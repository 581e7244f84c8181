"""Finitely generated abelian groups used as grading groups.

A group is described by a sequence of moduli, one per cyclic factor.
A modulus m >= 2 gives a cyclic factor of order m, a modulus 0 gives an
infinite cyclic factor.  Elements carry one integer coordinate per
factor and are kept normalized (0 <= c < m for finite factors).

The group law is written multiplicatively in the mathematics this
package implements, but coordinates are additive; `mul` adds
coordinates componentwise.  This is the one module that does degree
arithmetic.  A spec interns its elements, one per normal form, and an
element memoises its products {other: product}; the memo grows only
with the products actually formed, so a search that multiplies only
letters of a finite alphabet stays bounded even with a free factor.
Elements of distinct but equal specs compare, hash and multiply as
equal.  Elements are ordered by coordinates, the canonical degree order.

A memo hit is one dict lookup.  A first product pays for the rest, so
its path is kept short: operands of the same spec object skip
`GroupSpec.__eq__` (an object equals itself), the coordinates are added
and reduced by `map` over `operator.add` and `operator.mod` unless a
factor is free (no modulus to reduce by, so only then a genexpr picks
the factors to reduce), and the slots of a new element are set one by
one.  The result is the interned element of the normal form, which is
unique, so the path changes the cost of a product and not its value.
On CPython 3.11 (x86-64, 2 shared cores) a first product of two
elements of (Z/2)^6 or Z x Z/2 costs about 1.1-1.3 us, against 0.13 us
for a memo hit.

    >>> G = GroupSpec((2, 2))
    >>> a = G.elem((1, 0)); b = G.elem((0, 1))
    >>> a.mul(b).coords
    (1, 1)
    >>> a.mul(b) is G.elem((3, -1))
    True
    >>> a.mul(a).is_identity()
    True
    >>> Z = GroupSpec((0,))
    >>> Z.elem((3,)).mul(Z.elem((-5,))).coords
    (-2,)
    >>> G3 = GroupSpec((3,))
    >>> G3.elem((1,)).inv().coords
    (2,)
"""

from operator import add, mod


class GroupSpec:
    """Moduli of the cyclic factors.  No modulus may equal 1; the empty
    sequence is the trivial group."""

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        for m in moduli:
            if m < 0 or m == 1:
                raise ValueError("modulus must be 0 or >= 2, got %r" % (m,))
        self.moduli = moduli
        self._free = 0 in moduli       # some factor is infinite cyclic
        self._elems = {}               # normal form -> its element

    def __eq__(self, other):
        return isinstance(other, GroupSpec) and self.moduli == other.moduli

    def __hash__(self):
        return hash(("GroupSpec", self.moduli))

    def __repr__(self):
        return "GroupSpec(%r)" % (self.moduli,)

    def elem(self, coords):
        coords = tuple(map(int, coords))
        if len(coords) != len(self.moduli):
            raise ValueError(
                "coordinate length %d does not match group arity %d"
                % (len(coords), len(self.moduli)))
        return _elem(self, coords)

    def identity(self):
        return _elem(self, (0,) * len(self.moduli))


class GroupElem:
    """A normalized element of a GroupSpec, interned by its spec and
    made by `GroupSpec.elem`.  Immutable and hashable."""

    __slots__ = ("spec", "coords", "_hash", "_products")

    def __setattr__(self, name, value):
        raise AttributeError("GroupElem is immutable")

    def mul(self, other):
        p = self._products.get(other)
        if p is None:
            # a hit implies equal specs, so only a miss checks them
            spec = self.spec
            if other.spec is not spec and other.spec != spec:
                raise ValueError("elements of different groups")
            p = self._products[other] = _elem(
                spec, map(add, self.coords, other.coords))
        return p

    def inv(self):
        return _elem(self.spec, [-c for c in self.coords])

    def is_identity(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GroupElem)
            and self.spec == other.spec and self.coords == other.coords)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.coords < other.coords

    def __repr__(self):
        return "GroupElem%r" % (self.coords,)


_set = object.__setattr__


def _elem(spec, coords):
    """The interned element of spec with the int coordinates `coords`
    (any iterable), which have the spec's arity, reduced into range; made
    on first use.  `mul`, `inv` and `identity` build their arguments from
    normalised operands, and the parser checks a file's degrees itself,
    so `GroupSpec.elem`'s conversion and arity check are skipped."""
    moduli = spec.moduli
    if spec._free:
        coords = tuple(c % m if m else c for c, m in zip(coords, moduli))
    else:
        coords = tuple(map(mod, coords, moduli))
    e = spec._elems.get(coords)
    if e is None:
        e = spec._elems[coords] = object.__new__(GroupElem)
        _set(e, "spec", spec)
        _set(e, "coords", coords)
        _set(e, "_hash", hash((moduli, coords)))
        _set(e, "_products", {})
    return e

"""Data model for a finite-dimensional graded 3-Lie-Rinehart algebra.

An instance bundles a grading group, labelled graded bases of the
3-Lie side L and the commutative side A, and four sparse structure
constant tables.  `TABLES` gives the signature of each, the one place
it is written: the spaces of its key's arguments, the space of its
values, and the order of a stored key.

  bracket  [.,.,.] : L x L x L -> L   keys (i<j<k), expanded by sign
  amul     A x A -> A                 keys {i<=j}, symmetric
  action   A x L -> L                 keys (a_i, l_j)
  rho      L x L -> Der(A)            keys (i, j, a_k), stored as
                                      L x L x A -> A, both (i,j) orders
                                      stored independently

Unlisted entries are zero.  Skew symmetry of the bracket and
commutativity of the product hold by storage convention; the genuinely
checkable axioms live in `axioms`.

`Algebra3LR.incidence` turns the stored keys around once per instance:
for each basis index, the keys that reach it and their signed entries.
It is the one way to form a product, in the catalog too: the axiom
suite sums each side of an identity per witness over the nonzero terms
it lists, and the decomposition layer (ideal products, constraint
rows, orthogonality, pairing and the simplicity tests) multiplies
sparse rows {index: coefficient} by reading only the keys that a row's
support reaches.  Vectors are dense tuples only at the public boundary:
`Subspace.basis`, ideal certificates and orthogonality counterexamples;
public functions take a dense tuple or a sparse row.
`Algebra3LR.degree_index` reads the same stored keys by degree, for the
degree-1 spans and the multiplicative-support check of the
decomposition layer.

Coefficients are exact, never floats.  The stored tables and every
output hold Fractions; the incidence and the rows of every `Subspace`
hold the exact view of `linalg._view` (an int when integral, else a
Fraction), so integral instances run their kernels and eliminations on
ints, which mix, compare and hash exactly with Fractions.  `sparse_row`
brings rows into the view; `dense_vec` is the one way back to Fractions.
A report writes the rows of a subspace straight to strings, and `str`
gives the same text for an int and the equal Fraction.
"""

from fractions import Fraction
from functools import reduce
from operator import getitem, le, lt

from .groups import GroupElem, GroupSpec
from .linalg import Subspace, _view


class GradedBasis:
    """Ordered basis labels with one group degree per label."""

    def __init__(self, labels, degrees):
        labels = tuple(labels)
        degrees = tuple(degrees)
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees differ in length")
        self._index = {label: i for i, label in enumerate(labels)}
        if len(self._index) != len(labels):
            raise ValueError("duplicate basis labels")
        for d in degrees:
            if not isinstance(d, GroupElem):
                raise ValueError("degree is not a group element: %r" % (d,))
        self.labels = labels
        self.degrees = degrees
        # degree -> the indices of the basis vectors of that degree
        self.fibers = {}
        for i, d in enumerate(degrees):
            self.fibers.setdefault(d, []).append(i)

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except (KeyError, TypeError):   # an unhashable value is no label
            raise ValueError("unknown label %r" % (label,)) from None


def _sparse(entries, dim):
    out = {}
    for idx, c in entries.items():
        if type(c) is not Fraction:
            c = Fraction(c)
        if c != 0:
            if not 0 <= idx < dim:
                raise ValueError("structure constant index out of range")
            out[idx] = c
    return out


# name -> (the spaces of a key's arguments, the space of the values, the
# key order): a table with a key order stores one key per set of
# arguments, the one whose indices are in that order
TABLES = {
    "bracket": ("LLL", "L", "strictly increasing"),
    "amul": ("AA", "A", "non-decreasing"),
    "action": ("AL", "L", None),
    "rho": ("LLA", "A", None),
}

# the comparison each two consecutive indices of a key in the order pass
_ORDERS = {"strictly increasing": lt, "non-decreasing": le}


def in_key_order(key, order):
    """Whether the index tuple `key` is in the key order `order` of a
    table of `TABLES`."""
    return order is None or all(map(_ORDERS[order], key, key[1:]))


def _stored(alg, name, table):
    """Table `name` of `TABLES` with every entry made sparse by `_sparse`
    and the zero entries dropped.  A key that is not a tuple of indices
    in range of the argument spaces and in the key order raises
    ValueError naming the table and the key."""
    args, value, order = TABLES[name]
    dims = [len(alg.basis(s)) for s in args]
    dim = len(alg.basis(value))
    out = {}
    for key, val in table.items():
        if not (len(key) == len(dims) and min(key) >= 0
                and all(map(lt, key, dims)) and in_key_order(key, order)):
            raise ValueError("%s key %r %s" % (
                name, key,
                "is not %s in range" % order if order else "out of range"))
        v = _sparse(val, dim)
        if v:
            out[key] = v
    return out


def _exact(entry):
    """The entry with every coefficient in the exact view of
    `linalg._view`: an int when integral, else the stored Fraction."""
    return {t: _view(c) for t, c in entry.items()}


class Incidence:
    """The stored keys of one instance, indexed by each basis index they
    reach: the nonzero terms from which every axiom check sums each side
    of an identity per witness, and every product of `decompose`.  Each
    `*_by_*` map sends a key to [(other, image)] over the nonzero images
    only, where the image is linear in the indexed basis vector; so the
    product of a sparse row with the other basis vector is the sum of
    c * image over the row's coordinates and their lists, and an `other`
    absent from all of those lists gives a zero product.

      ad[(x, y)]          {p: [p, x, y]} over ordered pairs, ad(x, y) != 0
      bracket_by_L[p]     [((i, j), [p, i, j])] over i < j
      hits[p]             [(T, [T]_p)] over the stored triples T whose
                          image has p
      acted_into[p]       [((l_j, a_i), (a_i l_j)_p)] over the stored
                          action keys whose image has p
      action_by_L[m]      [(a_i, a_i l_m)]
      action_by_A[a]      [(l_j, a l_j)]
      amul_by_A[m]        [(a_i, a_i a_m)]
      rho_by_pair[(i, j)] [(a_k, rho(i, j)(a_k))]
      rho_by_L[i]         [((j, a_k), rho(i, j)(a_k))]

    A key is present only with a nonempty list, so `(x, y) in rho_by_pair`
    says whether rho(x, y) != 0.  Built once from the stored tables, with
    every coefficient in the coefficient view of `_exact`; the images are
    new dicts, shared among these maps, and must not be modified."""

    def __init__(self, alg):
        nL = alg.dim_L
        # the entry E of (k0, k1, k2) is [k0, k1, k2] = [k1, k2, k0]
        # = [k2, k0, k1], and the odd permutations give -E
        self.ad, self.bracket_by_L = {}, {}
        self.hits = [[] for _ in range(nL)]
        for key, e in alg.bracket.items():
            e = _exact(e)
            for p, c in e.items():
                self.hits[p].append((key, c))
            k0, k1, k2 = key
            neg = {t: -c for t, c in e.items()}
            for p, x, y, v in ((k0, k1, k2, e), (k1, k2, k0, e),
                               (k2, k0, k1, e), (k0, k2, k1, neg),
                               (k1, k0, k2, neg), (k2, k1, k0, neg)):
                self.ad.setdefault((x, y), {})[p] = v
                if x < y:
                    self.bracket_by_L.setdefault(p, []).append(((x, y), v))
        self.action_by_L, self.action_by_A = {}, {}
        self.acted_into = [[] for _ in range(nL)]
        for (ai, m), e in alg.action.items():
            e = _exact(e)
            for p, c in e.items():
                self.acted_into[p].append(((m, ai), c))
            self.action_by_L.setdefault(m, []).append((ai, e))
            self.action_by_A.setdefault(ai, []).append((m, e))
        self.amul_by_A = {}
        for (i, j), e in alg.amul.items():
            e = _exact(e)
            self.amul_by_A.setdefault(j, []).append((i, e))
            if i != j:
                self.amul_by_A.setdefault(i, []).append((j, e))
        self.rho_by_pair, self.rho_by_L = {}, {}
        for (i, j, ak), e in alg.rho.items():
            e = _exact(e)
            self.rho_by_pair.setdefault((i, j), []).append((ak, e))
            self.rho_by_L.setdefault(i, []).append(((j, ak), e))


class DegreeIndex:
    """The stored keys of one instance read by their degrees, so that
    `decompose` tests degrees against them without scanning fibers.  For
    each table name of `TABLES`:

      one[name]       [(degrees, entry)] over the stored keys whose
                      argument degrees multiply to the identity
      degrees[name]   {the argument degrees of a stored key}: a frozenset
                      for a table with a key order, which stores one key
                      per set of arguments, else the tuple in key order

    Built from the stored tables on first use; the entries are the
    stored ones and must not be modified."""

    def __init__(self, alg):
        one = alg.group.identity()
        self.one, self.degrees = {}, {}
        for name, (_, _, order) in TABLES.items():
            self.one[name] = ones = []
            self.degrees[name] = seen = set()
            for _, ds, g, e in alg.key_degrees(name):
                seen.add(frozenset(ds) if order else ds)
                if g == one:
                    ones.append((ds, e))


class Algebra3LR:
    """Immutable instance; construction validates indices and storage
    canonicity, not the axioms (see `axioms.run_all`)."""

    _incidence = None
    _degree_index = None

    def __init__(self, group, L, A, bracket, amul, action, rho):
        assert isinstance(group, GroupSpec)
        assert isinstance(L, GradedBasis) and isinstance(A, GradedBasis)
        for d in L.degrees + A.degrees:
            if d.spec != group:
                raise ValueError("degree from a different group")
        self.group = group
        self.L = L
        self.A = A
        self.dim_L = len(L)
        self.dim_A = len(A)

        for name, table in zip(TABLES, (bracket, amul, action, rho)):
            setattr(self, name, _stored(self, name, table))

    def basis(self, space):
        """The `GradedBasis` of `space`, "L" or "A", else ValueError."""
        if space in ("L", "A"):
            return getattr(self, space)
        raise ValueError("unknown space %r" % (space,))

    def key_degrees(self, name):
        """(key, the degrees of its arguments, their product, entry) over
        the stored entries of table `name` of `TABLES`."""
        degrees = [self.basis(s).degrees for s in TABLES[name][0]]
        for key, entry in getattr(self, name).items():
            ds = tuple(map(getitem, degrees, key))
            yield key, ds, reduce(GroupElem.mul, ds), entry

    def incidence(self):
        """The `Incidence` of the stored keys, built on first use and
        cached on the (immutable) instance."""
        if self._incidence is None:
            self._incidence = Incidence(self)
        return self._incidence

    def degree_index(self):
        """The `DegreeIndex` of the stored keys, built on first use and
        cached on the (immutable) instance."""
        if self._degree_index is None:
            self._degree_index = DegreeIndex(self)
        return self._degree_index

    # ---- degree fibers ----

    def fiber(self, space, g):
        """Span of the basis vectors of the given degree; `space` is
        "L" or "A"."""
        return Subspace(len(self.basis(space)),
                        [{i: 1} for i in self.fiber_indices(space, g)])

    def fiber_indices(self, space, g):
        """Indices of the basis vectors of degree g, from the index the
        basis builds once."""
        return list(self.basis(space).fibers.get(g, ()))


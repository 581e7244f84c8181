"""Exact rational linear algebra: sparse rows, echelon-form subspaces
and the lattice operations on them.  All arithmetic is exact; there is
no tolerance anywhere.

Vectors are sparse rows {index: coefficient} internally, holding the
nonzero coordinates only, from the stored tables through the products
to the reduced-echelon rows of a `Subspace`, each coefficient in the
exact view of `_view`.  Public operations take dense or sparse rows,
which `sparse_row` brings into the view; a row formed in the view (a
`sparse_sum`, a constraint or null-space row) is eliminated as it is.
Dense tuples, formed only at the public boundary (`Subspace.basis`,
certificates and counterexamples), pass through `dense_vec`, the one
way back to Fractions.  The coefficient invariant is stated in `model`.
Every basis grows by one step, `_insert`: `_echelon` loops over it,
`_extend` adds rows to a subspace without rebuilding it, and an ideal
closure or a complement grows one basis in place and builds its
`Subspace` once, by `_from_echelon`.  `_reduce` visits only the rows
whose pivots are coordinates of the row it reduces.
"""

from bisect import bisect_left
from fractions import Fraction


# the one zero of every `dense_vec`, so a writer can tell it by identity
ZERO = Fraction(0)


def _view(c):
    """The scalar c as an int when integral, else as a Fraction."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quotient(c, f):
    """c / f in the exact view; two ints never meet `/`."""
    if type(c) is int and type(f) is int:
        q, r = divmod(c, f)
        return Fraction(c, f) if r else q
    return _view(c / f)


def sparse_row(r, n):
    """The row r of F^n, dense (a sequence of length n) or sparse
    ({index: coordinate}), as a new sparse row in the exact view."""
    if isinstance(r, dict):
        items = r.items()
    elif len(r) != n:
        raise ValueError("row length %d in ambient of dim %d" % (len(r), n))
    else:
        items = enumerate(r)
    out = {j: c if type(c) is int else _view(c) for j, c in items if c}
    if out and not (0 <= min(out) and max(out) < n):
        raise ValueError("row index outside ambient of dim %d" % n)
    return out


def dense_vec(entry, n):
    """The sparse vector {index: coefficient} as a dense tuple of length
    n of Fractions."""
    out = [ZERO] * n
    for m, c in entry.items():
        out[m] = c if type(c) is Fraction else Fraction(c)
    return tuple(out)


def sparse_sum(terms):
    """The sparse vector sum of f * entry over (f, entry) pairs of
    scalars and sparse vectors, without zero coefficients, in the exact
    view."""
    acc = {}
    for f, entry in terms:
        for m, c in entry.items():
            acc[m] = acc[m] + f * c if m in acc else f * c
    return {m: c if type(c) is int else _view(c) for m, c in acc.items() if c}


def _reduce(basis, pivots, v):
    """The sparse row v, in place, minus the multiples of the reduced
    rows `basis` (1 at the sorted `pivots`) that clear it at every pivot;
    v stays in the exact view and no row is modified.  Each row is found
    by bisecting a coordinate of v into `pivots`, with that coordinate as
    its multiplier: each row is 0 at every other row's pivot, so
    subtracting it leaves v unchanged there, in any order."""
    for p, f in list(v.items()):
        k = bisect_left(pivots, p)
        if k < len(pivots) and pivots[k] == p:
            for j, c in basis[k].items():
                d = v.get(j, 0) - f * c
                if not d:
                    del v[j]
                elif type(d) is int or d.denominator != 1:
                    v[j] = d
                else:
                    v[j] = d.numerator
    return v


def _insert(basis, pivots, v):
    """Whether the sparse row v, in the exact view, grows the span of the
    reduced echelon lists `basis` and `pivots`, which it joins in place:
    v is reduced in place, scaled to a leading 1 (by negation or exact
    quotients), cleared from copies of the rows with its pivot p, so no
    row is modified, and inserted by pivot.  Only the rows before the
    insertion point can hold p: a reduced row is 0 left of its pivot."""
    v = _reduce(basis, pivots, v)
    if not v:
        return False
    p = min(v)
    f = v[p]
    if f == -1:
        v = {j: -c for j, c in v.items()}
    elif f != 1:
        v = {j: _quotient(c, f) for j, c in v.items()}
    k = bisect_left(pivots, p)
    for i in range(k):
        if p in basis[i]:
            basis[i] = _reduce((v,), (p,), dict(basis[i]))
    basis.insert(k, v)
    pivots.insert(k, p)
    return True


def _echelon(rows, n, basis=(), pivots=()):
    """The reduced echelon basis, sorted by pivot, and the pivots of the
    span of the reduced rows `basis` (with `pivots`) and the sparse rows
    of F^n, each added by `_insert`, which reduces it in place.  Rows
    after the basis spans F^n are skipped."""
    basis, pivots = list(basis), list(pivots)
    for r in rows:
        if len(basis) == n:
            break
        _insert(basis, pivots, r)
    return tuple(basis), tuple(pivots)


def _from_echelon(n, basis, pivots):
    """The Subspace of F^n on reduced echelon `basis` and `pivots`."""
    S = Subspace.__new__(Subspace)
    S.ambient_dim, S.rows, S._pivots = n, tuple(basis), tuple(pivots)
    return S


def _extend(S, rows):
    """S + span(rows), rows dense or sparse, each brought into the view
    and reduced once; S is unchanged, and is the result if it has them."""
    n = S.ambient_dim
    out = _from_echelon(n, *_echelon([sparse_row(r, n) for r in rows], n,
                                     S.rows, S._pivots))
    return S if out.dim == S.dim else out


class Subspace:
    """A subspace of F^n held as its canonical reduced-echelon basis of
    sparse rows, `rows`; these are shared and must not be modified.  Two
    subspaces are equal iff their rows are equal."""

    __slots__ = ("ambient_dim", "rows", "_pivots")

    def __init__(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        self.rows, self._pivots = _echelon(
            [sparse_row(r, ambient_dim) for r in rows], ambient_dim)

    @property
    def basis(self):
        """The reduced-echelon basis as dense tuples."""
        return tuple(dense_vec(r, self.ambient_dim) for r in self.rows)

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return self._pivots

    def contains(self, v):
        return not _reduce(self.rows, self._pivots,
                           sparse_row(v, self.ambient_dim))

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))


def span(vectors, ambient_dim):
    return Subspace(ambient_dim, vectors)


def full_subspace(ambient_dim):
    return _from_echelon(ambient_dim, [{i: 1} for i in range(ambient_dim)],
                         range(ambient_dim))


def _null_space(c):
    """Null space of the rows of the Subspace c: one solution per free
    column f, e_f minus the rows' coordinates at f on their pivots.  When
    every row is a unit row the solutions are the unit rows e_f, already
    a reduced echelon basis, and are taken as they are."""
    n, pivots = c.ambient_dim, set(c.pivots())
    sols = {f: {f: 1} for f in range(n) if f not in pivots}
    if all(len(row) == 1 for row in c.rows):
        return _from_echelon(n, sols.values(), sols)
    for row, p in zip(c.rows, c.pivots()):
        for f, x in row.items():
            if f != p:
                sols[f][p] = -x
    return _from_echelon(n, *_echelon(sols.values(), n))


def intersect_subspaces(s, t):
    """Lattice meet, as the null space of both annihilators: S ∩ T is
    (ann S + ann T)^⊥, since (X^⊥)^⊥ = X in finite dimension over any
    field."""
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("ambient mismatch")
    return _null_space(_extend(_null_space(s), _null_space(t).rows))


def complement(s, within=None):
    """A canonical complement C with s + C = within, direct.  Candidate
    vectors are taken in a fixed order: standard basis vectors on
    non-pivot coordinates of s first, then the basis of `within`."""
    n = s.ambient_dim
    if within is None:
        within = full_subspace(n)
    if within.ambient_dim != n:
        raise ValueError("ambient mismatch")
    if not within.contains_subspace(s):
        raise ValueError("complement requested outside the enclosing space")
    pivots = set(s.pivots())
    candidates = [{j: 1} for j in range(n)
                  if j not in pivots and within.contains({j: 1})]
    candidates += within.rows
    basis, pivots, picked = list(s.rows), list(s._pivots), []
    for v in candidates:
        if len(basis) == within.dim:
            break
        if _insert(basis, pivots, dict(v)):
            picked.append(v)
    assert len(basis) == within.dim
    return Subspace(n, picked)

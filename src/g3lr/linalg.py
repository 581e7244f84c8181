"""Exact rational linear algebra: vectors, echelon-form subspaces and
the lattice operations on them.  All arithmetic uses Fraction; there is
no tolerance anywhere."""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache


def vec(coords):
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


@lru_cache(maxsize=None)
def zero_vec(n):
    return (Fraction(0),) * n


@lru_cache(maxsize=None)
def unit_vec(n, i):
    assert 0 <= i < n
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def nonzero_coords(v):
    """The (index, coordinate) pairs of v with a nonzero coordinate."""
    return [(i, c) for i, c in enumerate(v) if c]


def dense_vec(entry, n):
    """The sparse vector {index: Fraction} as a dense tuple of length n."""
    out = list(zero_vec(n))
    for m, c in entry.items():
        out[m] = c
    return tuple(out)


def sparse_sum(terms):
    """The sparse vector sum of f * entry over (f, entry) pairs of
    scalars and sparse vectors, without zero coefficients."""
    acc = {}
    for f, entry in terms:
        for m, c in entry.items():
            acc[m] = acc[m] + f * c if m in acc else f * c
    return {m: c for m, c in acc.items() if c}


def is_zero_vec(u):
    return all(a == 0 for a in u)


def _reduce(basis, pivots, v):
    """The list v, in place, minus the multiples of the reduced rows
    `basis` (sparse {index: coordinate}, 1 at the pivot) that clear it at
    every pivot.  Only rows whose pivot coordinate in v is nonzero are
    subtracted, and only at their own nonzero coordinates."""
    for row, p in zip(basis, pivots):
        f = v[p]
        if f:
            for j, c in row.items():
                v[j] -= f * c
    return v


def _echelon(rows):
    """The reduced echelon basis of the span of rows, as sparse rows
    sorted by pivot, and the pivots.  Each row is reduced against the
    basis built so far, scaled to a leading 1, cleared from the pivot
    column of the earlier rows and inserted by pivot."""
    basis, pivots = [], []
    for r in rows:
        new = {j: c for j, c in enumerate(_reduce(basis, pivots, list(r)))
               if c}
        if not new:
            continue
        p = next(iter(new))
        f = new[p]
        if f != 1:
            new = {j: c / f for j, c in new.items()}
        for row in basis:
            g = row.get(p)
            if g:
                for j, c in new.items():
                    d = row.get(j, 0) - g * c
                    if d:
                        row[j] = d
                    else:
                        del row[j]
        k = bisect_left(pivots, p)
        basis.insert(k, new)
        pivots.insert(k, p)
    return basis, tuple(pivots)


def rref(rows):
    """Reduced row echelon form of a list of equal-length tuples.
    Returns the nonzero rows, pivots scaled to 1, pivot columns cleared
    above and below, pivot columns strictly increasing.  Rows of unequal
    length raise ValueError."""
    return list(Subspace(len(rows[0]) if rows else 0, rows).basis)


class Subspace:
    """A subspace of F^n held as a canonical reduced-echelon basis.
    Two subspaces are equal iff their basis tuples are equal."""

    __slots__ = ("ambient_dim", "basis", "_rows", "_pivots")

    def __init__(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        rows = [vec(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length %d in ambient of dim %d"
                                 % (len(r), ambient_dim))
        self._rows, self._pivots = _echelon(rows)
        self.basis = tuple(dense_vec(r, ambient_dim) for r in self._rows)

    @property
    def dim(self):
        return len(self.basis)

    def pivots(self):
        return self._pivots

    def contains(self, v):
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return not any(_reduce(self._rows, self._pivots, list(v)))

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))


def span(vectors, ambient_dim):
    return Subspace(ambient_dim, vectors)


def zero_subspace(ambient_dim):
    return Subspace(ambient_dim, [])


def full_subspace(ambient_dim):
    return Subspace(ambient_dim, [unit_vec(ambient_dim, i)
                                  for i in range(ambient_dim)])


def sum_subspaces(s, t):
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("ambient mismatch")
    return Subspace(s.ambient_dim, list(s.basis) + list(t.basis))


def solve_homogeneous(constraint_rows, ambient_dim):
    """Null space of the stacked constraint matrix, as a Subspace.
    With no constraints the result is the full space."""
    c = Subspace(ambient_dim, constraint_rows)
    basis = []
    for f in range(ambient_dim):
        if f not in c.pivots():
            sol = list(unit_vec(ambient_dim, f))
            for row, p in zip(c.basis, c.pivots()):
                sol[p] = -row[f]
            basis.append(sol)
    return Subspace(ambient_dim, basis)


def intersect_subspaces(s, t):
    """Lattice meet, as the null space of both annihilators: S ∩ T is
    (ann S + ann T)^⊥, since (X^⊥)^⊥ = X in finite dimension over any
    field."""
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("ambient mismatch")
    n = s.ambient_dim
    return solve_homogeneous(solve_homogeneous(s.basis, n).basis
                             + solve_homogeneous(t.basis, n).basis, n)


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
    candidates = [unit_vec(n, j) for j in range(n)
                  if j not in pivots and within.contains(unit_vec(n, j))]
    candidates += list(within.basis)
    picked = []
    cur = s
    for v in candidates:
        if cur.dim == within.dim:
            break
        if not cur.contains(v):
            picked.append(v)
            cur = Subspace(n, cur.basis + (v,))
    assert cur.dim == within.dim
    return Subspace(n, picked)

"""Exact rational linear algebra: vectors, echelon-form subspaces and
the lattice operations on them.  All arithmetic uses Fraction; there is
no tolerance anywhere."""

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


def vec_add(u, v):
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    assert len(u) == len(v)
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def rref(rows):
    """Reduced row echelon form of a list of equal-length tuples.
    Returns the nonzero rows, pivots scaled to 1, pivot columns cleared
    above and below, pivot columns strictly increasing."""
    m = [list(r) for r in rows]
    if m:
        n_cols = len(m[0])
        for r in m:
            assert len(r) == n_cols
    piv_r = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    for piv_c in range(n_cols):
        pivot = None
        for i in range(piv_r, n_rows):
            if m[i][piv_c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[piv_r], m[pivot] = m[pivot], m[piv_r]
        fp = m[piv_r][piv_c]
        m[piv_r] = [x / fp for x in m[piv_r]]
        for i in range(n_rows):
            if i == piv_r:
                continue
            f = m[i][piv_c]
            if f == 0:
                continue
            m[i] = [a - f * b for a, b in zip(m[i], m[piv_r])]
        piv_r += 1
        if piv_r == n_rows:
            break
    out = [tuple(r) for r in m[:piv_r] if not all(x == 0 for x in r)]
    return out


class Subspace:
    """A subspace of F^n held as a canonical reduced-echelon basis.
    Two subspaces are equal iff their basis tuples are equal."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim, rows, reduced=False):
        self.ambient_dim = ambient_dim
        rows = [vec(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length %d in ambient of dim %d"
                                 % (len(r), ambient_dim))
        self.basis = tuple(rows) if reduced else tuple(rref(rows))
        self._pivots = tuple(next(j for j, x in enumerate(r) if x != 0)
                             for r in self.basis)

    @property
    def dim(self):
        return len(self.basis)

    def pivots(self):
        return self._pivots

    def contains(self, v):
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        v = list(v)
        for row, p in zip(self.basis, self._pivots):
            f = v[p]
            if f != 0:
                v = [a - f * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


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
    reduced = rref([vec(r) for r in constraint_rows])
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in reduced]
    free = [j for j in range(ambient_dim) if j not in pivots]
    basis = []
    for f in free:
        sol = [Fraction(0)] * ambient_dim
        sol[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            sol[p] = -row[f]
        basis.append(tuple(sol))
    return Subspace(ambient_dim, basis)


def intersect_subspaces(s, t):
    """Lattice meet.  Solves for coefficient vectors (a, b) with
    a·basis(s) = b·basis(t) and spans the common values."""
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("ambient mismatch")
    n = s.ambient_dim
    ds, dt = s.dim, t.dim
    if ds == 0 or dt == 0:
        return zero_subspace(n)
    # columns: ds coefficients for s, dt for t; rows: one per coordinate
    constraints = []
    for j in range(n):
        row = [s.basis[i][j] for i in range(ds)] + \
              [-t.basis[i][j] for i in range(dt)]
        constraints.append(tuple(row))
    null = solve_homogeneous(constraints, ds + dt)
    vecs = []
    for coeffs in null.basis:
        v = zero_vec(n)
        for c, row in zip(coeffs[:ds], s.basis):
            v = vec_add(v, vec_scale(c, row))
        vecs.append(v)
    return Subspace(n, vecs)


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
            cur = Subspace(n, list(cur.basis) + [v])
    assert cur.dim == within.dim
    return Subspace(n, picked)

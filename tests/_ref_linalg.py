"""Reference copy of the subspace lattice, kept as a test oracle.

These are the routines `g3lr.linalg` used before it moved onto one sparse
reduce/build loop: column-by-column Gauss–Jordan `rref`, a membership
test that subtracts whole rows, the null space read off the reduced
constraint matrix, and the meet of S and T as the values a·basis(S) over
the coefficient vectors (a, b) with a·basis(S) = b·basis(T).  A subspace
is held here as its list of reduced rows, with no `Subspace` object, so
the differential test in `test_linalg.py` compares two independent
computations.
"""

from fractions import Fraction
from functools import lru_cache

from g3lr.linalg import zero_vec


# dense vector arithmetic for the oracles and tests; the package itself
# works on sparse rows


def vec(coords):
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


@lru_cache(maxsize=None)
def unit_vec(n, i):
    assert 0 <= i < n
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def is_zero_vec(u):
    return all(a == 0 for a in u)


def vec_add(u, v):
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    assert len(u) == len(v)
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def rref(rows):
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
    return [tuple(r) for r in m[:piv_r] if not all(x == 0 for x in r)]


def _pivots(basis):
    return [next(j for j, x in enumerate(r) if x != 0) for r in basis]


def contains(basis, v):
    v = list(vec(v))
    for row, p in zip(basis, _pivots(basis)):
        f = v[p]
        if f != 0:
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def solve_homogeneous(constraint_rows, ambient_dim):
    reduced = rref([vec(r) for r in constraint_rows])
    pivots = _pivots(reduced)
    free = [j for j in range(ambient_dim) if j not in pivots]
    basis = []
    for f in free:
        sol = [Fraction(0)] * ambient_dim
        sol[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            sol[p] = -row[f]
        basis.append(tuple(sol))
    return rref(basis)


def intersect_subspaces(s, t, n):
    """s and t are reduced bases in F^n."""
    ds, dt = len(s), len(t)
    if ds == 0 or dt == 0:
        return []
    constraints = []
    for j in range(n):
        row = [s[i][j] for i in range(ds)] + [-t[i][j] for i in range(dt)]
        constraints.append(tuple(row))
    null = solve_homogeneous(constraints, ds + dt)
    vecs = []
    for coeffs in null:
        v = zero_vec(n)
        for c, row in zip(coeffs[:ds], s):
            v = vec_add(v, vec_scale(c, row))
        vecs.append(v)
    return rref(vecs)


def complement(s, within, n):
    """s and within are reduced bases in F^n, s inside within."""
    pivots = set(_pivots(s))
    candidates = [unit_vec(n, j) for j in range(n)
                  if j not in pivots and contains(within, unit_vec(n, j))]
    candidates += list(within)
    picked = []
    cur = s
    for v in candidates:
        if len(cur) == len(within):
            break
        if not contains(cur, v):
            picked.append(v)
            cur = rref(list(cur) + [v])
    assert len(cur) == len(within)
    return rref(picked)


def reduce_sequential(basis, pivots, v):
    """`g3lr.linalg._reduce` as it was before it found its rows by pivot
    lookup: a scan over every basis row in pivot order, subtracting the
    rows whose pivot coordinate in v is nonzero at that point."""
    for row, p in zip(basis, pivots):
        f = v.get(p)
        if f:
            for j, c in row.items():
                d = v.get(j, 0) - f * c
                if not d:
                    del v[j]
                elif type(d) is int or d.denominator != 1:
                    v[j] = d
                else:
                    v[j] = d.numerator
    return v

"""Reference copy of the generator closures, kept as a test oracle.

These are `_ideal_closure` and `_close_generators` as `g3lr.decompose`
ran them before the closures stopped at the class ideal: every closure
runs until no product adds a row, and a closure that escapes C raises
only after it has been formed.  The differential test in
`test_closure.py` asserts that the bounded closures give the same
verdicts and witness rows with no more products.

The closures reach `_ideal_products` through the module, so a test
that replaces `g3lr.decompose._ideal_products` counts the products of
this copy too.  The generators are this module's own: the meets of C
with each degree fiber, one null space each, as `g3lr.decompose` formed
them before it read them off the rows of C.
"""

from collections import Counter

from g3lr import decompose as D
from g3lr.linalg import Subspace, _null_space, sparse_sum


def homogeneous_generators(alg, space, C):
    """Echelon bases of the intersections of C with each degree fiber, as
    sparse rows.  For a graded C these jointly span C and every row is
    homogeneous.

    C meets the fiber F_d in one null space: x = sum_r lam_r r over the
    rows r of C lies in F_d iff its coordinates outside F_d vanish, and
    the rows are independent, so lam -> x maps the solutions one to one
    onto C meet F_d."""
    degrees = alg.L.degrees if space == "L" else alg.A.degrees
    cols = {}                     # coordinate t -> {r: (row r)_t}
    for r, row in enumerate(C.rows):
        for t, c in row.items():
            cols.setdefault(t, {})[r] = c
    out = []
    for d in sorted(set(degrees), key=lambda e: e.coords):
        # Skip: when no row of C has a coordinate in F_d, no nonzero
        # combination of them lies in F_d
        if all(degrees[t] != d for t in cols):
            continue
        lams = _null_space(Subspace(
            C.dim, [col for t, col in cols.items() if degrees[t] != d]))
        B = Subspace(C.ambient_dim, [
            sparse_sum((c, C.rows[r]) for r, c in lam.items())
            for lam in lams.rows])
        out.extend((d, row) for row in B.rows)
    return out


def ideal_closure(alg, side, v):
    """Least ideal containing the homogeneous vector v, dense or sparse.
    Worklist closure: each round multiplies only the rows added in the
    round before, so every product is formed once."""
    degrees = alg.L.degrees if side == "L" else alg.A.degrees
    S = Subspace(alg.dim_L if side == "L" else alg.dim_A, [v])
    if len({degrees[i] for r in S.rows for i in r}) > 1:
        raise ValueError("vector is not homogeneous")
    old, new = (), S.rows
    while new:
        added = []
        for _, w in D._ideal_products(alg, side, old, new):
            if not S.contains(w):
                S = Subspace(S.ambient_dim, S.rows + (w,))
                added.append(w)
        old, new = old + new, tuple(added)
    return S


def close_generators(alg, side, C, allowed=None):
    """Close every homogeneous generator of C.  Returns ("no", ideal)
    for the first proper ideal found inside C other than `allowed`;
    else "yes", or "undetermined" when a non-identity fiber of C has
    dimension greater than one, with no witness."""
    gens = homogeneous_generators(alg, side, C)
    for d, v in gens:
        closure = ideal_closure(alg, side, v)
        if closure == C or closure == allowed:
            continue
        if C.contains_subspace(closure):
            return "no", closure
        # generator escapes: `within` was not an ideal to begin with
        raise ValueError("subspace is not an ideal, simplicity undefined")
    fiber_dims = Counter(d for d, v in gens if not d.is_identity())
    if max(fiber_dims.values(), default=0) > 1:
        return "undetermined", None
    return "yes", None

"""Reference copy of the generator closures, kept as a test oracle.

These are `_ideal_closure` and `_close_generators` as `g3lr.decompose`
ran them before the closures stopped at the class ideal: every closure
runs until no product adds a row, and a closure that escapes C raises
only after it has been formed.  The differential test in
`test_closure.py` asserts that the bounded closures give the same
verdicts and witness rows with no more products.

Both reach `_ideal_products` and `_homogeneous_generators` through the
module, so a test that replaces `g3lr.decompose._ideal_products` counts
the products of this copy too.
"""

from collections import Counter

from g3lr import decompose as D
from g3lr.linalg import Subspace, span


def ideal_closure(alg, side, v):
    """Least ideal containing the homogeneous vector v, dense or sparse.
    Worklist closure: each round multiplies only the rows added in the
    round before, so every product is formed once."""
    degrees = alg.L.degrees if side == "L" else alg.A.degrees
    S = span([v], alg.dim_L if side == "L" else alg.dim_A)
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
    gens = D._homogeneous_generators(alg, side, C)
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

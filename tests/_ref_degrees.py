"""Reference copy of the degree-1 spans and the multiplicative-support
check, kept as a test oracle.

These are `_images`, `_L1_span`, `_A1_span` and `check_G_multiplicative`
as `g3lr.decompose` ran them before the degree arithmetic moved onto the
per-instance degree index: each scans the fibers of every degree pair
or triple with `GroupElem` products and the dense basis products of
`_dense_model`.  The differential test in `test_degrees.py` asserts
that the index gives the same span rows, class spans, verdicts and
counterexamples.
"""

from functools import partial
from itertools import combinations, combinations_with_replacement, product, \
    starmap

import _dense_model as dm
from _ref_linalg import is_zero_vec
from g3lr.connections import compute_supports
from g3lr.linalg import Subspace


def _images(alg, basis, spaces, degrees):
    """The nonzero dense images under the `_dense_model` basis product
    `basis` of the basis tuples whose i-th index runs over the fiber of
    degrees[i] in spaces[i] ("L" or "A"), in lexicographic order."""
    fibers = [alg.basis(s).fibers.get(d, ()) for s, d in zip(spaces, degrees)]
    return [e for e in starmap(partial(basis, alg), product(*fibers))
            if not is_zero_vec(e)]


def _sorted_elems(elems):
    return sorted(elems, key=lambda e: e.coords)


def L1_span(alg, degrees, supports):
    """The span of A_{h^-1} L_h over h that also lies in the A-support,
    plus [L_h, L_k, L_{(hk)^-1}] over pairs h, k."""
    degrees = _sorted_elems(degrees)
    rows = []
    for h in degrees:
        if h in supports.lambda1:
            rows += _images(alg, dm.action_basis, "AL", (h.inv(), h))
    for h, k in product(degrees, repeat=2):
        rows += _images(alg, dm.bracket_basis, "LLL",
                        (h, k, h.mul(k).inv()))
    return Subspace(alg.dim_L, rows)


def A1_span(alg, degrees, supports):
    """The span of A_{mu^-1} A_mu, plus rho(L_h, L_k)(A_{(hk)^-1}) over
    pairs h, k that also lie in the L-support."""
    degrees = _sorted_elems(degrees)
    rows = []
    for mu in degrees:
        rows += _images(alg, dm.amul_basis, "AA", (mu.inv(), mu))
    for h, k in product(degrees, repeat=2):
        if h in supports.sigma1 and k in supports.sigma1:
            rows += _images(alg, dm.rho_basis, "LLA",
                            (h, k, h.mul(k).inv()))
    return Subspace(alg.dim_A, rows)


def check_G_multiplicative(alg):
    supports = compute_supports(alg)
    s1 = _sorted_elems(supports.sigma1)
    l1 = _sorted_elems(supports.lambda1)
    bad = []
    for g, h, k in combinations(s1, 3):
        if g.mul(h).mul(k) in supports.sigma1:
            if not _images(alg, dm.bracket_basis, "LLL", (g, h, k)):
                bad.append(("bracket", g.coords, h.coords, k.coords))
    for lam in l1:
        for g in s1:
            if lam.mul(g) in supports.sigma1:
                if not _images(alg, dm.action_basis, "AL", (lam, g)):
                    bad.append(("action", lam.coords, g.coords))
    for lam, mu in combinations_with_replacement(l1, 2):
        if lam.mul(mu) in supports.lambda1:
            if not _images(alg, dm.amul_basis, "AA", (lam, mu)):
                bad.append(("amul", lam.coords, mu.coords))
    return not bad, bad

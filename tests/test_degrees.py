"""The degree index against the scans it replaced.

`_L1_span`, `_A1_span` and `check_G_multiplicative` read the stored keys
by their degrees (`model.DegreeIndex`); `_ref_degrees` keeps the
fiber scans over `GroupElem` products that they replaced.  Both must
give the same reduced-echelon rows for every span, the same class spans
and the same multiplicative-support verdict with its counterexamples in
order.
"""

import random
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path

import _ref_degrees as ref
from _cases import (failing_instances, rational_seed, rational_seed_mutant,
                    rho_seed_square, rho_square_overflow, rho_trace_seed)
from g3lr.catalog import BUILTIN_NAMES, builtin, direct_sum
from g3lr.connections import compute_supports, lambda_classes, sigma_classes
from g3lr.decompose import _A1_span, _L1_span, check_G_multiplicative
from g3lr.groups import GroupSpec
from g3lr.instio import load_instance
from g3lr.model import Algebra3LR, GradedBasis
from test_decompose import (_doubled_fiber, _identity_only, _truncated_poly,
                            _zero_bracket_chain)

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _seeds():
    """The `_cases` seeds and the small instances of `test_decompose`,
    valid or not."""
    return [rho_trace_seed(), rho_seed_square(), rho_square_overflow(),
            rational_seed(), rational_seed_mutant(),
            *failing_instances().values(), _truncated_poly(),
            _truncated_poly(square_nonzero=False), _zero_bracket_chain(),
            _identity_only(), _doubled_fiber()]


def _pools():
    """Small grading pools, each with the identity and closed under
    inverses, in Z, Z x Z/2, Z^2 and (Z/2)^k: degree products land back
    in the pool often enough that stored keys of degree 1 and products
    in the supports are common."""
    Z, ZZ2, Z2 = GroupSpec((0,)), GroupSpec((0, 2)), GroupSpec((0, 0))
    pools = [[Z.elem((c,)) for c in (0, 1, -1, 2, -2)],
             [Z.elem((c,)) for c in (0, 1, -1)],
             [ZZ2.elem(c) for c in ((0, 0), (1, 0), (-1, 0), (0, 1),
                                    (1, 1), (-1, 1))],
             [Z2.elem(c) for c in ((0, 0), (1, 0), (-1, 0), (0, 1),
                                   (0, -1), (1, 1), (-1, -1))]]
    for k in (1, 2, 3, 4):
        G = GroupSpec((2,) * k)
        pools.append([G.elem(c) for c in product((0, 1), repeat=k)])
    return pools


def _regraded(rng, alg, pool):
    """The stored tables of alg over new bases graded by random elements
    of pool; the grading axiom need not hold."""
    def basis(b):
        return GradedBasis(b.labels, [rng.choice(pool) for _ in b.labels])
    return Algebra3LR(pool[0].spec, basis(alg.L), basis(alg.A), alg.bracket,
                      alg.amul, alg.action, alg.rho)


def _subsets(rng, alg):
    """Two random sets of basis degrees, the identity included."""
    elems = sorted(set(alg.L.degrees + alg.A.degrees), key=lambda e: e.coords)
    return [frozenset(e for e in elems if rng.random() < 0.5)
            for _ in range(2)]


def _check(alg, rng):
    """Compare every span, class span and the multiplicative-support
    check; returns the counterexamples counted by clause and the number
    of nonzero spans."""
    supports = compute_supports(alg)
    sigma, lam = sigma_classes(supports), lambda_classes(supports)
    nonzero = 0
    for degrees in ([supports.sigma1, supports.lambda1]
                    + _subsets(rng, alg)):
        got = _L1_span(alg, degrees, supports)
        assert got.rows == ref.L1_span(alg, degrees, supports).rows
        want = ref.A1_span(alg, degrees, supports)
        assert _A1_span(alg, degrees, supports).rows == want.rows
        nonzero += bool(got.dim) + bool(want.dim)
    for cls in sigma:
        assert _L1_span(alg, cls.members, supports).rows == ref.L1_span(
            alg, cls.members, supports).rows
    for cls in lam:
        assert _A1_span(alg, cls.members, supports).rows == ref.A1_span(
            alg, cls.members, supports).rows
    got = check_G_multiplicative(alg)
    assert got == ref.check_G_multiplicative(alg)
    assert check_G_multiplicative(alg, supports) == got
    return Counter(c[0] for c in got[1]), nonzero


def test_degree_index_matches_the_fiber_scans():
    rng = random.Random(1313)
    bases = [builtin(name) for name in BUILTIN_NAMES]
    bases += [load_instance(str(p)) for p in sorted(EXAMPLES.glob("*.json"))]
    bases += _seeds()
    cases = list(bases)
    valid = [builtin(name) for name in BUILTIN_NAMES] + [rho_trace_seed()]
    cases += [direct_sum(x, y) for x, y in combinations_with_replacement(
        valid, 2) if x.dim_L + y.dim_L <= 16]
    pools = _pools()
    regraded = [_regraded(rng, rng.choice(bases), rng.choice(pools))
                for _ in range(240)]
    bad, nonzero = Counter(), 0
    for alg in cases + regraded:
        b, n = _check(alg, rng)
        bad, nonzero = bad + b, nonzero + n
    free = sum(0 in alg.group.moduli for alg in regraded)
    assert 60 <= free <= 180      # both free and finite groups are drawn
    # every clause, the bracket triples included, has counterexamples
    assert (bad["bracket"] >= 150 and bad["action"] >= 50
            and bad["amul"] >= 3 and nonzero >= 200), (bad, nonzero)

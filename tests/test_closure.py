"""The bounded generator closures against the unbounded ones they
replaced.

`_close_generators` stops each closure at dim C, for an ideal C that
its callers have verified; `_ref_closure` keeps the closures that ran
to the end.  On every valid instance of the family below, for the whole
space on both sides and for every class ideal that `verify_ideal`
accepts on its side, both must give the same verdict and the same
witness rows.  The products that `_ideal_products` yields are counted on both sides:
the bounded closures may form no more than the unbounded ones on any
case, and, with any ideal check made inside counted too, they must form
fewer in total.  The simplicity checks verify C before their product
test, which is what makes a non-ideal C raise (see `test_decompose`).
"""

import random
from itertools import combinations_with_replacement

import _ref_closure as ref
from _cases import rho_trace_seed
from g3lr import decompose as D
from g3lr.axioms import run_all
from g3lr.catalog import BUILTIN_NAMES, builtin, direct_sum
from g3lr.connections import compute_supports, lambda_classes, sigma_classes
from g3lr.instio import load_instance
from g3lr.linalg import full_subspace, intersect_subspaces
from test_degrees import EXAMPLES, _pools, _regraded, _seeds


def _family(rng):
    """The builtins, the `docs/examples` files, the `_cases` seeds and
    the `test_decompose` instances, their pairwise direct sums up to
    dim L 16, the dim-24 rung and regradings of the bases drawn as in
    `test_degrees`; the valid ones only."""
    bases = [builtin(name) for name in BUILTIN_NAMES]
    bases += [load_instance(str(p)) for p in sorted(EXAMPLES.glob("*.json"))]
    bases += _seeds()
    valid = [builtin(name) for name in BUILTIN_NAMES] + [rho_trace_seed()]
    cases = bases + [direct_sum(x, y) for x, y in
                     combinations_with_replacement(valid, 2)
                     if x.dim_L + y.dim_L <= 16]
    dual = builtin("a4-dual-numbers")
    cases.append(direct_sum(direct_sum(dual, dual), dual))
    pools = _pools()
    cases += [_regraded(rng, rng.choice(bases), rng.choice(pools))
              for _ in range(600)]
    return [alg for alg in cases if run_all(alg).passed]


def _targets(alg):
    """(side, C, allowed) as `check_gr_simple_L/A` pass them: the whole
    space and each class ideal that verifies, with the kernel part of C
    allowed on the L side."""
    supports = compute_supports(alg)
    spaces = [("L", full_subspace(alg.dim_L)), ("A", full_subspace(alg.dim_A))]
    spaces += [("L", I.subspace) for I in (
        D.build_I(alg, c, supports) for c in sigma_classes(supports))
        if I.is_graded_ideal]
    spaces += [("A", J.subspace) for J in (
        D.build_A_ideal(alg, c, supports) for c in lambda_classes(supports))
        if J.is_graded_ideal]
    ker_rho = D.structure_ideals(alg).ker_rho
    return [(side, C, intersect_subspaces(ker_rho, C) if side == "L"
             else None) for side, C in spaces]


def test_bounded_closures_match_the_unbounded_ones(monkeypatch):
    counts = {}
    stage = ["closure"]
    products, verify = D._ideal_products, D.verify_ideal

    def counted_products(*args):
        for item in products(*args):
            counts[stage[0]] = counts.get(stage[0], 0) + 1
            yield item

    def counted_verify(*args):
        stage[0] = "verify"
        try:
            return verify(*args)
        finally:
            stage[0] = "closure"
    monkeypatch.setattr(D, "_ideal_products", counted_products)
    monkeypatch.setattr(D, "verify_ideal", counted_verify)

    family = _family(random.Random(1414))
    verdicts, total = {}, {"ref": 0, "closure": 0, "verify": 0}
    for alg in family:
        for side, C, allowed in _targets(alg):
            counts.clear()
            want = ref.close_generators(alg, side, C, allowed)
            before = counts.pop("closure", 0)
            got = D._close_generators(
                alg, side, C, D._homogeneous_generators(alg, side, C), allowed)
            assert got == want      # a witness compares by its rows
            assert counts.get("closure", 0) <= before
            total["ref"] += before
            for key, n in counts.items():
                total[key] += n
            verdicts[want[0]] = verdicts.get(want[0], 0) + 1
    assert total["closure"] + total["verify"] < total["ref"], total
    assert len(family) >= 80 and verdicts["no"] >= 50 \
        and verdicts["yes"] >= 100, (len(family), verdicts)

import copy
import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import (combinations, combinations_with_replacement,
                       product)
from types import SimpleNamespace

import pytest

import _dense_model as dm
import _ref_degrees as ref_degrees
from _cases import rational_seed, rebuild, rho_trace_seed
from g3lr.catalog import builtin, direct_sum
from g3lr.connections import (compute_supports, connected, lambda_classes,
                              replay_chain, sigma_classes)
from g3lr.decompose import (_A1_span, _L1_span, _bracket, _close_generators,
                            _constraints, _homogeneous_generators, _ideal_products,
                            _product, _reached, IdealCandidate, build_A_ideal,
                            build_I, check_G_multiplicative, check_gr_simple_A,
                            check_gr_simple_L, check_maximal_length,
                            check_tight, decompose, ideal_generated_by,
                            pair_ideals, structure_ideals, verify_ideal,
                            verify_triple_orthogonality)
from g3lr.groups import GroupSpec
from g3lr.instio import canonical_json
import _ref_linalg
from _ref_linalg import is_zero_vec, unit_vec, vec, zero_vec
from g3lr.linalg import (_null_space, dense_vec, full_subspace,
                         intersect_subspaces, span, sparse_row)
from g3lr.model import TABLES, Algebra3LR, GradedBasis

BUILTINS = ("trivial", "a4", "gl2-trace", "a4-dual-numbers", "tight-pair")


def _truncated_poly(square_nonzero=True):
    """A = F[t]/(t^3) graded by a cyclic group of order 4 with deg t = 1,
    acting trivially on a one-dimensional L concentrated in degree 0.
    With square_nonzero=False the product t*t is redefined to 0 (still
    associative), leaving t^2 as an isolated support element."""
    G = GroupSpec((4,))
    A = GradedBasis(("one", "t", "t2"),
                    (G.elem((0,)), G.elem((1,)), G.elem((2,))))
    L = GradedBasis(("x",), (G.elem((0,)),))
    amul = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}}
    if square_nonzero:
        amul[(1, 1)] = {2: 1}
    return Algebra3LR(G, L, A, {}, amul, {(0, 0): {0: 1}}, {})


def _zero_bracket_chain():
    """Zero bracket, L supported in degrees 1, 2, 3, 6 of a cyclic group
    of order 9; the triple (1, 2, 3) composes back into the support."""
    G = GroupSpec((9,))
    L = GradedBasis(("x1", "x2", "x3", "x6"),
                    tuple(G.elem((d,)) for d in (1, 2, 3, 6)))
    A = GradedBasis(("one",), (G.identity(),))
    return Algebra3LR(G, L, A, {}, {(0, 0): {0: 1}},
                      {(0, i): {i: 1} for i in range(4)}, {})


def _identity_only():
    """Everything concentrated in the identity degree, zero bracket."""
    G = GroupSpec((2,))
    L = GradedBasis(("x",), (G.identity(),))
    A = GradedBasis(("one",), (G.identity(),))
    return Algebra3LR(G, L, A, {}, {(0, 0): {0: 1}}, {(0, 0): {0: 1}}, {})


def _doubled_fiber():
    """Two basis vectors in the same nonidentity degree."""
    G = GroupSpec((2,))
    L = GradedBasis(("x", "y"), (G.elem((1,)), G.elem((1,))))
    A = GradedBasis(("one",), (G.identity(),))
    return Algebra3LR(G, L, A, {}, {(0, 0): {0: 1}},
                      {(0, 0): {0: 1}, (0, 1): {1: 1}}, {})


def _single_class(alg, kind="sigma"):
    classes = (sigma_classes if kind == "sigma" else lambda_classes)(
        compute_supports(alg))
    assert len(classes) == 1
    return classes[0]


# ---------------------------------------------------------------------------
# class ideals


def test_L1_class_of_a4_is_identity_fiber():
    alg = builtin("a4")
    sub = _L1_span(alg, _single_class(alg).members, compute_supports(alg))
    assert sub == span([unit_vec(4, 3)], 4)


def test_L1_class_zero_without_products():
    alg = _zero_bracket_chain()
    supports = compute_supports(alg)
    for cls in sigma_classes(supports):
        assert _L1_span(alg, cls.members, supports).dim == 0


def test_I_of_a4_is_everything():
    alg = builtin("a4")
    cand = build_I(alg, _single_class(alg))
    assert cand.subspace == full_subspace(4)
    assert cand.is_graded_ideal and cand.certificate is None


def test_I_recovers_direct_sum_factors():
    alg = direct_sum(builtin("a4"), builtin("a4"))
    classes = sigma_classes(compute_supports(alg))
    assert len(classes) == 2
    factor_spans = [span([unit_vec(alg.dim_L, i) for i in f.l_indices],
                         alg.dim_L) for f in alg.factors]
    got = [build_I(alg, c).subspace for c in classes]
    assert {s.basis for s in got} == {s.basis for s in factor_spans}


def test_class_kind_and_origin_validated():
    alg = builtin("a4-dual-numbers")
    lam_cls = _single_class(alg, "lambda")
    with pytest.raises(ValueError):
        build_I(alg, lam_cls)
    with pytest.raises(ValueError):
        build_A_ideal(builtin("a4"), lam_cls)


def test_A1_class_of_truncated_polynomials():
    alg = _truncated_poly()
    cls = _single_class(alg, "lambda")
    assert cls.members == {alg.group.elem((1,)), alg.group.elem((2,))}
    assert _A1_span(alg, cls.members, compute_supports(alg)).dim == 0
    cand = build_A_ideal(alg, cls)
    assert cand.subspace == span([unit_vec(3, 1), unit_vec(3, 2)], 3)
    assert cand.is_graded_ideal


# ---------------------------------------------------------------------------
# ideal verification


def test_verify_ideal_full_and_proper():
    alg = builtin("a4")
    assert verify_ideal(alg, "L", full_subspace(4)) == (True, None)
    ok, cert = verify_ideal(alg, "L", span([unit_vec(4, 0)], 4))
    assert not ok and cert[0] == "bracket"


def test_center_is_always_an_ideal():
    for name in BUILTINS:
        alg = builtin(name)
        center = structure_ideals(alg).center
        assert verify_ideal(alg, "L", center)[0]


def test_verify_ideal_A():
    alg = _truncated_poly()
    assert verify_ideal(alg, "A", span([unit_vec(3, 1), unit_vec(3, 2)], 3))[0]
    ok, cert = verify_ideal(alg, "A", span([unit_vec(3, 0)], 3))
    assert not ok and cert[0] == "amul"


def test_orthogonality_on_direct_sum():
    alg = direct_sum(builtin("a4"), builtin("gl2-trace"))
    classes = sigma_classes(compute_supports(alg))
    ideals = [build_I(alg, c) for c in classes]
    ok, bad = verify_triple_orthogonality(alg, ideals)
    assert ok and bad == []


def test_orthogonality_detects_overlap():
    alg = builtin("a4")
    I = build_I(alg, _single_class(alg))
    ok, bad = verify_triple_orthogonality(alg, [I, I])
    assert not ok and bad


# ---------------------------------------------------------------------------
# structural subspaces, tightness, pairing


def _dense_constraints(by_index, n):
    """Every constraint row of `by_index`, one per (key, t), dense."""
    rows = {}
    for m, images in by_index.items():
        for key, image in images:
            for t, c in image.items():
                rows.setdefault((key, t), list(zero_vec(n)))[m] = Fraction(c)
    return [tuple(r) for r in rows.values()]


def test_one_constraint_row_per_line_keeps_the_null_space():
    """`_constraints` starts its basis from the unit rows of the columns
    that one-coordinate rows reach and eliminates only the other rows;
    its echelon basis and null space are those of every row, computed
    densely by `_ref_linalg`: a column hit by several one-coordinate
    rows with int and Fraction coefficients, a multi-coordinate row over
    that column, columns no row reaches, an empty map, and random maps
    whose images are mostly single coordinates."""
    n = 5
    lines = {1: [("a", {0: 3, 1: Fraction(-2, 3)}), ("c", {0: -1})],
             3: [("b", {0: 4}), ("b", {1: Fraction(5, 7)})]}
    mixed = {1: lines[1] + [("d", {0: 7})], 3: [("d", {0: Fraction(1, 2)})],
             4: [("a", {2: -2})]}
    cases = [lines, mixed, {}]
    rng = random.Random(33)
    for _ in range(60):
        cases.append({m: [(rng.randrange(3), {t: rng.choice(
            (1, -1, 2, Fraction(3, 4))) for t in rng.sample(range(3),
                                                          rng.randint(1, 2))})
                          for _ in range(rng.randint(1, 3))]
                      for m in rng.sample(range(n), rng.randint(0, n))})
    for by_index in cases:
        dense = _dense_constraints(by_index, n)
        c = _constraints(by_index, n)
        assert list(c.basis) == _ref_linalg.rref(dense)
        assert list(_null_space(c).basis) == \
            _ref_linalg.solve_homogeneous(dense, n)
    assert _constraints({}, n).dim == 0
    assert _null_space(_constraints(lines, n)).basis == (
        unit_vec(n, 0), unit_vec(n, 2), unit_vec(n, 4))


def test_structure_ideals_of_a4():
    s = structure_ideals(builtin("a4"))
    assert s.z_L.dim == 0
    assert s.ker_rho == full_subspace(4)      # no representation given
    assert s.center.dim == 0
    assert s.ann_A.dim == 0 and s.ann_L_A.dim == 0 and s.ann_A_on_L.dim == 0


def test_structure_ideals_of_truncated_polynomials():
    alg = _truncated_poly()
    s = structure_ideals(alg)
    assert s.z_L == full_subspace(1)          # zero bracket
    assert s.ann_A.dim == 0                   # unital
    assert s.ann_A_on_L == span([unit_vec(3, 1), unit_vec(3, 2)], 3)


def _rho_bearing(seed):
    """The builtins, whose rho is zero, the trace seed, its rational
    rescaling and 20 random graded instances with a nonzero rho."""
    rng = random.Random(seed)
    return ([builtin(name) for name in BUILTINS]
            + [rho_trace_seed(), rational_seed()]
            + [_random_graded(rng) for _ in range(20)])


def test_center_is_intersection():
    """The center, the z_L rows extended by the rho rows, is the meet
    of z_L and ker_rho, on instances with and without a rho."""
    proper = 0
    for alg in _rho_bearing(8812):
        s = structure_ideals(alg)
        assert s.center == intersect_subspaces(s.z_L, s.ker_rho)
        proper += s.ker_rho.dim < alg.dim_L and s.center != s.z_L
    assert proper


def test_whole_space_simplicity_reads_only_ker_rho():
    """`check_gr_simple_L` without a `structure` computes only ker_rho;
    verdict and witness rows must be those given the full structure,
    and those of the closures that allow ker_rho, the kernel part of L."""
    verdicts, kernel_allowed = set(), 0
    for alg in _rho_bearing(8813):
        s = structure_ideals(alg)
        got = check_gr_simple_L(alg)
        want = check_gr_simple_L(alg, structure=s)
        assert got == want
        verdicts.add(got.verdict)
        if not got.product_nonzero:
            continue
        L = full_subspace(alg.dim_L)
        gens = _homogeneous_generators(alg, "L", L)
        closed = _close_generators(alg, "L", L, gens, s.ker_rho)
        assert (got.verdict, got.witness) == closed
        if closed[1] is not None:
            assert got.witness.rows == want.witness.rows == closed[1].rows
        kernel_allowed += closed != _close_generators(alg, "L", L, gens)
    assert verdicts >= {"yes", "no"} and kernel_allowed


def test_tightness_flags():
    t = check_tight(builtin("a4"))
    assert t.center_zero and t.ann_A_zero and t.ann_L_A_zero
    assert t.AA_eq_A and t.AL_eq_L and t.L1_generation
    assert not t.A1_generation and not t.tight

    assert not check_tight(builtin("trivial")).tight
    assert check_tight(builtin("tight-pair")).tight


def test_pairing_on_tight_pair():
    alg = builtin("tight-pair")
    supports = compute_supports(alg)
    L_ideals = [build_I(alg, c) for c in sigma_classes(supports)]
    A_ideals = [build_A_ideal(alg, c) for c in lambda_classes(supports)]
    pairing = pair_ideals(alg, L_ideals, A_ideals)
    assert pairing.applicable and pairing.unique
    assert len(pairing.mapping) == 2
    hit = [h[0] for h in pairing.mapping.values()]
    assert len(set(hit)) == 2                 # bijective


# ---------------------------------------------------------------------------
# multiplicative supports and fiber lengths


def test_G_multiplicative_vacuous_and_empty():
    assert check_G_multiplicative(builtin("a4")) == (True, [])
    assert check_G_multiplicative(builtin("trivial")) == (True, [])


def test_G_multiplicative_bracket_counterexample():
    ok, bad = check_G_multiplicative(_zero_bracket_chain())
    assert not ok
    assert ("bracket", (1,), (2,), (3,)) in bad


def test_G_multiplicative_amul_counterexample():
    assert check_G_multiplicative(_truncated_poly())[0]
    ok, bad = check_G_multiplicative(_truncated_poly(square_nonzero=False))
    assert not ok
    assert ("amul", (1,), (1,)) in bad


def test_maximal_length():
    assert check_maximal_length(builtin("a4"))
    assert check_maximal_length(builtin("tight-pair"))
    assert not check_maximal_length(_doubled_fiber())


# ---------------------------------------------------------------------------
def _wrong_argument_calls():
    """(id, call, message): each call passes a4 (dim L 4, dim A 1) a
    side, kind or ambient that is not its own."""
    a4 = builtin("a4")
    s = compute_supports(a4)
    g, one = s.group.elem((1, 0)), a4.group.identity()
    L4, A1 = full_subspace(4), full_subspace(1)
    return [
        ("verify_ideal-ambient", lambda: verify_ideal(a4, "A", L4),
         "ambient mismatch"),
        ("verify_ideal-side", lambda: verify_ideal(a4, "l", L4),
         "unknown space 'l'"),
        ("ideal_generated_by-side",
         lambda: ideal_generated_by(a4, "B", unit_vec(4, 0)),
         "unknown space 'B'"),
        ("ideal_generated_by-ambient",
         lambda: ideal_generated_by(a4, "A", unit_vec(4, 0)),
         "row length 4 in ambient of dim 1"),
        ("check_gr_simple_L-ambient",
         lambda: check_gr_simple_L(a4, within=A1), "ambient mismatch"),
        ("check_gr_simple_A-ambient",
         lambda: check_gr_simple_A(a4, within=L4), "ambient mismatch"),
        ("fiber-side", lambda: a4.fiber("B", one), "unknown space 'B'"),
        ("connected-kind", lambda: connected(s, "Sigma", g, g),
         "unknown connection kind 'Sigma'"),
        ("replay_chain-kind",
         lambda: replay_chain(s, "sigma1", (g,), g, g),
         "unknown connection kind 'sigma1'"),
    ]


@pytest.mark.parametrize(
    "call, message", [pytest.param(call, message, id=name)
                      for name, call, message in _wrong_argument_calls()])
def test_wrong_side_kind_or_ambient_raises(call, message):
    """A side other than "L" and "A", a kind other than "sigma" and
    "lambda", or a subspace of the other side's ambient is refused by
    name, never run as the other side."""
    with pytest.raises(ValueError, match=message):
        call()


# generated ideals and graded simplicity


def test_closure_of_zero_and_of_generator():
    alg = builtin("a4")
    assert ideal_generated_by(alg, "L", zero_vec(4)).dim == 0
    assert ideal_generated_by(alg, "L", unit_vec(4, 0)) == full_subspace(4)


def test_closure_rejects_inhomogeneous():
    alg = builtin("a4")
    with pytest.raises(ValueError):
        ideal_generated_by(alg, "L", vec((1, 1, 0, 0)))


def test_closure_idempotent_and_ideal():
    alg = direct_sum(builtin("a4"), builtin("gl2-trace"))
    for i in range(alg.dim_L):
        C = ideal_generated_by(alg, "L", unit_vec(alg.dim_L, i))
        assert verify_ideal(alg, "L", C)[0]
        for row in C.basis:
            assert C.contains_subspace(ideal_generated_by(alg, "L", row))


def test_A_closure():
    alg = _truncated_poly()
    assert ideal_generated_by(alg, "A", unit_vec(3, 1)) \
        == span([unit_vec(3, 1), unit_vec(3, 2)], 3)
    assert ideal_generated_by(alg, "A", unit_vec(3, 0)) == full_subspace(3)


def test_gr_simple_L_verdicts():
    assert check_gr_simple_L(builtin("a4")).verdict == "yes"

    v = check_gr_simple_L(_zero_bracket_chain())
    assert v.verdict == "no" and v.witness == "zero-bracket"

    two = direct_sum(builtin("a4"), builtin("a4"))
    v = check_gr_simple_L(two)
    assert v.verdict == "no"
    assert v.witness.dim == 4                 # one factor as proper ideal


def test_gr_simple_L_undetermined_on_a_two_dimensional_fiber():
    """A4 graded by Z/2 with e1, e2 in degree 1 and e3, e4 in degree 0,
    over A = F acting as the identity: every homogeneous generator closes
    to all of L, but the fiber of degree 1 is two-dimensional, so the
    closure test is not conclusive."""
    G = GroupSpec((2,))
    L = GradedBasis(("e1", "e2", "e3", "e4"),
                    tuple(G.elem((d,)) for d in (1, 1, 0, 0)))
    A = GradedBasis(("one",), (G.identity(),))
    a4 = builtin("a4")
    alg = Algebra3LR(G, L, A, a4.bracket, a4.amul, a4.action, {})
    v = check_gr_simple_L(alg)
    assert v.verdict == "undetermined"
    assert v.product_nonzero and v.witness is None


def test_gr_simple_L_within_non_ideal_rejected():
    alg = builtin("a4")
    bad = span([unit_vec(4, 0), unit_vec(4, 1), unit_vec(4, 2)], 4)
    with pytest.raises(ValueError):
        check_gr_simple_L(alg, within=bad)
    # a factor of a direct sum plus one basis vector of the other factor:
    # closing the first generators finds the factor, a proper ideal
    # inside it, so the verdict must not rest on the generator order
    two = direct_sum(builtin("a4"), builtin("a4"))
    for j in range(4, 8):
        bad = span([unit_vec(8, i) for i in range(4)] + [unit_vec(8, j)], 8)
        assert not verify_ideal(two, "L", bad)[0]
        with pytest.raises(ValueError):
            check_gr_simple_L(two, within=bad)
    # rows with a zero bracket: the check must come before the bracket
    # test, which would answer "no" on its own
    bad = span([unit_vec(4, 0), unit_vec(4, 1)], 4)
    assert not verify_ideal(alg, "L", bad)[0]
    with pytest.raises(ValueError):
        check_gr_simple_L(alg, within=bad)


def test_gr_simple_A_within_non_ideal_rejected():
    """The A-side analogue of the direct-sum case above."""
    dual = builtin("a4-dual-numbers")
    for alg, j in ((direct_sum(dual, dual), 2),
                   (direct_sum(builtin("a4"), dual), 1)):
        n = alg.dim_A
        bad = span([unit_vec(n, i) for i in range(j)] + [unit_vec(n, j)], n)
        assert not verify_ideal(alg, "A", bad)[0]
        with pytest.raises(ValueError):
            check_gr_simple_A(alg, within=bad)
    # rows with a zero product, which must not answer before the check:
    # span{t.1 + t.2} in the square of the dual numbers, and the graded
    # span{s} in F[s, u]/(s^2, u^2), where u s = su escapes it
    G = GroupSpec((2, 2))
    A = GradedBasis(("one", "s", "u", "su"), tuple(
        G.elem(d) for d in ((0, 0), (1, 0), (0, 1), (1, 1))))
    L = GradedBasis(("x",), (G.identity(),))
    amul = {(0, i): {i: 1} for i in range(4)}
    amul[(1, 2)] = {3: 1}
    for alg, bad in (
            (direct_sum(dual, dual), span([{1: 1, 3: 1}], 4)),
            (Algebra3LR(G, L, A, {}, amul, {(0, 0): {0: 1}}, {}),
             span([unit_vec(4, 1)], 4))):
        assert not verify_ideal(alg, "A", bad)[0]
        with pytest.raises(ValueError):
            check_gr_simple_A(alg, within=bad)


def test_gr_simple_within_non_graded_ideal_rejected():
    """An ideal that is not graded gets no verdict: its rows are not
    all homogeneous, and the check comes before every shortcut."""
    G = GroupSpec((2, 2))
    one = GradedBasis(("one",), (G.identity(),))
    # span{s + u, su} in F[s, u]/(s^2, u^2): an ideal, (s + u)^2 = 2su
    A = GradedBasis(("one", "s", "u", "su"), tuple(
        G.elem(d) for d in ((0, 0), (1, 0), (0, 1), (1, 1))))
    amul = {(0, i): {i: 1} for i in range(4)}
    amul[(1, 2)] = {3: 1}
    alg = Algebra3LR(G, GradedBasis(("x",), (G.identity(),)), A, {}, amul,
                     {(0, 0): {0: 1}}, {})
    C = span([{1: 1, 2: 1}, {3: 1}], 4)
    assert verify_ideal(alg, "A", C)[0]
    with pytest.raises(ValueError):
        check_gr_simple_A(alg, within=C)
    # with su = 0, span{s + u} is an ideal with a zero product
    A = GradedBasis(("one", "s", "u"), A.degrees[:3])
    alg = Algebra3LR(G, alg.L, A, {}, {(0, i): {i: 1} for i in range(3)},
                     {(0, 0): {0: 1}}, {})
    C = span([{1: 1, 2: 1}], 3)
    assert verify_ideal(alg, "A", C)[0]
    with pytest.raises(ValueError):
        check_gr_simple_A(alg, within=C)
    # a4 plus central z1, z2 of distinct degrees, A = F acting as the
    # identity: a4 + span{z1 + z2} is an ideal with a nonzero bracket
    a4 = builtin("a4")
    L = GradedBasis(a4.L.labels + ("z1", "z2"),
                    a4.L.degrees + (G.elem((1, 0)), G.elem((0, 1))))
    alg = Algebra3LR(G, L, one, a4.bracket, {(0, 0): {0: 1}},
                     {(0, i): {i: 1} for i in range(6)}, {})
    C = span([unit_vec(6, i) for i in range(4)] + [{4: 1, 5: 1}], 6)
    assert verify_ideal(alg, "L", C)[0]
    with pytest.raises(ValueError):
        check_gr_simple_L(alg, within=C)
    # span{z1 + z2} there: an ideal with a zero bracket
    C = span([{4: 1, 5: 1}], 6)
    assert verify_ideal(alg, "L", C)[0]
    with pytest.raises(ValueError):
        check_gr_simple_L(alg, within=C)


def test_gr_simple_A_verdicts():
    assert check_gr_simple_A(builtin("a4")).verdict == "yes"
    v = check_gr_simple_A(_truncated_poly())
    assert v.verdict == "no" and v.witness.dim == 2
    dual = builtin("a4-dual-numbers")
    assert check_gr_simple_A(dual).verdict == "no"
    # t^2 = 0, so the A-ideal spanned by t has a zero product
    v = check_gr_simple_A(dual, span([{1: 1}], 2))
    assert (v.verdict, v.product_nonzero, v.witness) \
        == ("no", False, "zero-product")


# ---------------------------------------------------------------------------
# the full pipeline


def test_decompose_a4():
    r = decompose(builtin("a4"))
    assert not r.aborted
    assert len(r.sigma_classes) == 1 and len(r.lambda_classes) == 0
    assert r.U_complement.dim == 0
    assert r.L_covers and r.L_direct and r.L_directness_certified
    assert r.V_complement.dim == 1            # A = F, nothing generates it
    assert not r.A_directness_certified
    assert not r.fine_attempted


def test_decompose_identity_only():
    r = decompose(_identity_only())
    assert r.sigma_classes == [] and r.L_ideals == []
    assert r.U_complement == full_subspace(1)
    assert r.L_covers and r.L_direct


def test_decompose_aborts_on_invalid_input():
    alg = builtin("a4")
    bad = dict(alg.bracket)
    bad[(0, 1, 2)] = {0: 1}
    broken = Algebra3LR(alg.group, alg.L, alg.A, bad, alg.amul,
                        alg.action, alg.rho)
    r = decompose(broken)
    assert r.aborted and not r.axioms.passed
    # the report of an aborted run holds the axioms and nothing else
    doc = json.loads(canonical_json(r))
    assert sorted(doc) == ["aborted", "axioms"]
    assert doc["aborted"] is True and doc["axioms"]["passed"] is False


def test_decompose_tight_pair_fine():
    r = decompose(builtin("tight-pair"))
    assert r.tightness.tight
    assert r.maximal_length and r.supports_symmetric
    assert not r.g_multiplicative
    assert r.fine_attempted
    assert len(r.fine_components) == 2
    assert all(c.simplicity.verdict == "yes" for c in r.fine_components)
    assert all(c.simplicity.verdict == "yes" for c in r.fine_components_A)
    assert r.orthogonality[0]
    assert r.pairing.applicable and r.pairing.unique
    # fine components are the factor blocks
    alg = builtin("tight-pair")
    factor_spans = {span([unit_vec(alg.dim_L, i) for i in f.l_indices],
                         alg.dim_L).basis for f in alg.factors}
    assert {c.subspace.basis for c in r.fine_components} == factor_spans


def test_decompose_truncated_polynomials():
    r = decompose(_truncated_poly())
    assert len(r.lambda_classes) == 1
    assert r.A_ideals[0].subspace.dim == 2
    assert r.V_complement.dim == 1
    assert r.A_covers and r.A_direct


# ---------------------------------------------------------------------------
# differential check of the closure engine against a round-based reference
#
# The reference below is the round-based closure and the ordered ideal scan
# that the worklist engine replaced, on the dense products of the oracle
# `_dense_model`.  The random instances are graded but
# need not satisfy the axioms: closure and ideal verification are pure
# linear algebra over the structure tables, and these tables carry a
# nonzero rho, which no valid tier-1 instance does.


def _ref_verify_L(alg, S):
    nL, nA = alg.dim_L, alg.dim_A
    for s in S.basis:
        for i, j in combinations(range(nL), 2):
            v = dm.eval_bracket(alg, s, unit_vec(nL, i), unit_vec(nL, j))
            if not S.contains(v):
                return False, ("bracket", s, i, j, v)
    for s in S.basis:
        for ai in range(nA):
            v = dm.eval_action(alg, unit_vec(nA, ai), s)
            if not S.contains(v):
                return False, ("action", ai, s, v)
    if alg.rho:
        for s1 in S.basis:
            for s2 in S.basis:
                for ak in range(nA):
                    ra = dm.eval_rho(alg, s1, s2, unit_vec(nA, ak))
                    if is_zero_vec(ra):
                        continue
                    for lj in range(nL):
                        v = dm.eval_action(alg, ra, unit_vec(nL, lj))
                        if not S.contains(v):
                            return False, ("rho-action", s1, s2, ak, lj, v)
    return True, None


def _ref_verify_A(alg, T):
    for t in T.basis:
        for ai in range(alg.dim_A):
            v = dm.eval_amul(alg, unit_vec(alg.dim_A, ai), t)
            if not T.contains(v):
                return False, ("amul", ai, t, v)
    return True, None


def _ref_closure_L(alg, v):
    nL, nA = alg.dim_L, alg.dim_A
    S = span([v], nL)
    while True:
        rows = list(S.basis)
        for s in S.basis:
            for i, j in combinations(range(nL), 2):
                rows.append(dm.eval_bracket(alg, s, unit_vec(nL, i),
                                            unit_vec(nL, j)))
            for ai in range(nA):
                rows.append(dm.eval_action(alg, unit_vec(nA, ai), s))
        if alg.rho:
            for s1 in S.basis:
                for s2 in S.basis:
                    for ak in range(nA):
                        ra = dm.eval_rho(alg, s1, s2, unit_vec(nA, ak))
                        if is_zero_vec(ra):
                            continue
                        for lj in range(nL):
                            rows.append(
                                dm.eval_action(alg, ra, unit_vec(nL, lj)))
        nxt = span(rows, nL)
        if nxt == S:
            return S
        S = nxt


def _ref_closure_A(alg, v):
    T = span([v], alg.dim_A)
    while True:
        rows = list(T.basis)
        for t in T.basis:
            for ai in range(alg.dim_A):
                rows.append(dm.eval_amul(alg, unit_vec(alg.dim_A, ai), t))
        nxt = span(rows, alg.dim_A)
        if nxt == T:
            return T
        T = nxt


def _ref_null(dim, image):
    """Null space of the linear map x -> image(x) on F^dim, read off the
    images of the unit vectors."""
    cols = [image(unit_vec(dim, m)) for m in range(dim)]
    return span(_ref_linalg.solve_homogeneous(
        [tuple(c[t] for c in cols) for t in range(len(cols[0]))], dim), dim)


def _ref_structure(alg):
    """The six subspaces of `structure_ideals`, each read off the
    oracle's dense evaluators instead of the incidence."""
    nL, nA = alg.dim_L, alg.dim_A
    L, A = partial(unit_vec, nL), partial(unit_vec, nA)

    def flat(vectors):
        return tuple(c for v in vectors for c in v)

    z_L = _ref_null(nL, lambda x: flat(
        dm.eval_bracket(alg, x, L(i), L(j))
        for i, j in combinations(range(nL), 2)))
    ker_rho = _ref_null(nL, lambda x: flat(
        dm.eval_rho(alg, x, L(j), A(k)) for j in range(nL) for k in range(nA)))
    return (z_L, ker_rho, intersect_subspaces(z_L, ker_rho),
            _ref_null(nA, lambda a: flat(dm.eval_amul(alg, a, A(j))
                                         for j in range(nA))),
            _ref_null(nL, lambda x: flat(dm.eval_action(alg, A(k), x)
                                         for k in range(nA))),
            _ref_null(nA, lambda a: flat(dm.eval_action(alg, a, L(j))
                                         for j in range(nL))))


# coefficients of the random instances with non-integral entries
NON_INTEGRAL = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3))


def _random_graded(rng, coeffs=None):
    """Random graded structure tables over a small cyclic group with a
    nonzero rho; entries land in the fiber of the product degree.  The
    coefficients are drawn from `coeffs`, by default the integers
    -2..2."""
    G = GroupSpec((rng.choice((2, 3, 4)),))

    def basis(prefix, n):
        return GradedBasis(["%s%d" % (prefix, i) for i in range(n)],
                           [G.elem((rng.randrange(G.moduli[0]),))
                            for _ in range(n)])

    L, A = basis("x", rng.randint(2, 5)), basis("a", rng.randint(1, 3))
    nL, nA, dL, dA = len(L), len(A), L.degrees, A.degrees

    def table(keys, degree, target, density):
        out = {}
        for key in keys:
            fiber = [m for m, d in enumerate(target.degrees) if d == degree(key)]
            if fiber and rng.random() < density:
                out[key] = {m: rng.randint(-2, 2) if coeffs is None
                            else rng.choice(coeffs) for m in
                            rng.sample(fiber, rng.randint(1, len(fiber)))}
        return out

    bracket = table(combinations(range(nL), 3),
                    lambda k: dL[k[0]].mul(dL[k[1]]).mul(dL[k[2]]),
                    L, rng.choice((0.0, 0.3, 0.7)))
    amul = table(combinations_with_replacement(range(nA), 2),
                 lambda k: dA[k[0]].mul(dA[k[1]]), A, 0.5)
    action = table(product(range(nA), range(nL)),
                   lambda k: dA[k[0]].mul(dL[k[1]]), L,
                   rng.choice((0.2, 0.5)))
    rho = table(product(range(nL), range(nL), range(nA)),
                lambda k: dL[k[0]].mul(dL[k[1]]).mul(dA[k[2]]), A, 0.3)
    if not rho:
        return _random_graded(rng, coeffs)
    return Algebra3LR(G, L, A, bracket, amul, action, rho)


def _random_homogeneous(rng, alg, space):
    basis = alg.L if space == "L" else alg.A
    d = rng.choice(basis.degrees)
    return vec(rng.randint(-2, 2) if e == d else 0 for e in basis.degrees)


def _check_closure_engine(alg, rng):
    """Closures, ideal verification and the structure ideals of `alg`
    against the round-based reference; returns the number of rho-action
    certificates seen."""
    rho_certs = 0
    no_rho = Algebra3LR(alg.group, alg.L, alg.A, alg.bracket, alg.amul,
                        alg.action, {})
    nL, nA = alg.dim_L, alg.dim_A
    L_tests = [span([_random_homogeneous(rng, alg, "L")], nL),
               span([_random_homogeneous(rng, alg, "L")
                     for _ in range(2)], nL)]
    for _ in range(3):
        v = _random_homogeneous(rng, alg, "L")
        closure = ideal_generated_by(alg, "L", v)
        assert closure == _ref_closure_L(alg, v)
        # closed under brackets and actions, perhaps not under rho
        L_tests += [closure, _ref_closure_L(no_rho, v)]
    A_tests = [span([_random_homogeneous(rng, alg, "A")], nA)]
    for _ in range(2):
        v = _random_homogeneous(rng, alg, "A")
        closure = ideal_generated_by(alg, "A", v)
        assert closure == _ref_closure_A(alg, v)
        A_tests.append(closure)
    for S in L_tests:
        got = verify_ideal(alg, "L", S)
        assert got == _ref_verify_L(alg, S)
        rho_certs += got[1] is not None and got[1][0] == "rho-action"
    for T in A_tests:
        assert verify_ideal(alg, "A", T) == _ref_verify_A(alg, T)
    s = structure_ideals(alg)
    assert (s.z_L, s.ker_rho, s.center, s.ann_A, s.ann_L_A,
            s.ann_A_on_L) == _ref_structure(alg)
    return rho_certs


def test_closure_engine_matches_round_based_reference():
    rng = random.Random(4168)
    rho_certs = 0
    for _ in range(60):
        rho_certs += _check_closure_engine(_random_graded(rng), rng)
    assert rho_certs > 0


# ---------------------------------------------------------------------------
# differential check of the sparse products against the dense oracle
#
# `_dense_model` keeps the dense basis tables and evaluators the model
# once had.  `_bracket` and `_product` form the products of sparse rows
# off the incidence, and rho(x, y)(a) is `_product` over rho_by_pair with
# the pairs {(i, j): x_i y_j}, as `_ideal_products` forms it; each is
# compared with the dense evaluator.  `_ideal_products` skips zero
# products, so the oracle's sequence is compared with its zero vectors
# removed; tags, vectors and order must otherwise agree exactly.
# `_ideal_products` takes and yields sparse rows, so its tags and vectors
# are made dense for the comparison.


def _random_vec(rng, n):
    return vec(rng.choice((0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(n))


def _products_agree(alg, side, S):
    n, rows, basis = S.ambient_dim, S.rows, S.basis

    def dense(x):
        return dense_vec(x, n) if isinstance(x, dict) else x
    for split in range(len(rows) + 1):
        want = [(tag, v) for tag, v in dm.ideal_products(
            alg, side, basis[:split], basis[split:]) if not is_zero_vec(v)]
        got = [(tuple(map(dense, tag)), dense(v)) for tag, v in
               _ideal_products(alg, side, rows[:split], rows[split:])]
        assert got == want
    return any(tag[0] == "rho-action" for tag, _ in
               _ideal_products(alg, side, (), rows))


def _check_against_dense_oracle(alg, rng):
    nL, nA = alg.dim_L, alg.dim_A
    inc = alg.incidence()
    for _ in range(4):
        x, y, z = (_random_vec(rng, nL) for _ in range(3))
        a, b = _random_vec(rng, nA), _random_vec(rng, nA)
        sx, sy, sz = (sparse_row(r, nL) for r in (x, y, z))
        sa, sb = sparse_row(a, nA), sparse_row(b, nA)
        pairs = {(i, j): c * d for i, c in sx.items() for j, d in sy.items()}
        assert dense_vec(_bracket(inc.bracket_by_L, sx, sy, sz), nL) \
            == dm.eval_bracket(alg, x, y, z)
        assert dense_vec(_product(inc.amul_by_A, sa, sb), nA) \
            == dm.eval_amul(alg, a, b)
        assert dense_vec(_product(inc.action_by_L, sa, sx), nL) \
            == dm.eval_action(alg, a, x)
        assert dense_vec(_product(inc.rho_by_pair, sa, pairs), nA) \
            == dm.eval_rho(alg, x, y, a)
    rho_seen = False
    for v in (_random_homogeneous(rng, alg, "L") for _ in range(2)):
        rho_seen |= _products_agree(alg, "L", ideal_generated_by(
            alg, "L", v))
    rho_seen |= _products_agree(alg, "L", alg.fiber(
        "L", rng.choice(alg.L.degrees)))
    _products_agree(alg, "A", ideal_generated_by(
        alg, "A", _random_homogeneous(rng, alg, "A")))
    _products_agree(alg, "A", full_subspace(nA))
    s = structure_ideals(alg)
    assert (s.z_L, s.ker_rho, s.center, s.ann_A, s.ann_L_A,
            s.ann_A_on_L) == _ref_structure(alg)
    supports = compute_supports(alg)
    for degrees in [supports.sigma1] + [
            c.members for c in sigma_classes(supports)]:
        assert _L1_span(alg, degrees, supports) \
            == ref_degrees.L1_span(alg, degrees, supports)
    for degrees in [supports.lambda1] + [
            c.members for c in lambda_classes(supports)]:
        assert _A1_span(alg, degrees, supports) \
            == ref_degrees.A1_span(alg, degrees, supports)
    return rho_seen


def test_sparse_products_match_dense_oracle():
    rng = random.Random(2604)
    instances = [builtin(name) for name in BUILTINS] + [rho_trace_seed()]
    instances += [_random_graded(rng) for _ in range(40)]
    rho_seen = [_check_against_dense_oracle(alg, rng) for alg in instances]
    assert any(rho_seen)


# ---------------------------------------------------------------------------
# differential checks of the output-sensitive scans
#
# `verify_triple_orthogonality` skips the ideal triples that no stored key
# connects, and `_homogeneous_generators` reads the meets of a graded C
# with the fibers off its rows.  Both are compared, exactly and in order,
# with the plain routes they replaced: a scan over every row triple
# through the dense oracle, and the general meet of C with each fiber.


def _plain_orthogonality(alg, L_ideals, A_ideals=()):
    """Every row tuple of every ideal tuple, through the dense oracle."""
    L = [I.subspace.basis for I in L_ideals]
    A = [J.subspace.basis for J in A_ideals]
    bad = []
    for i, j in combinations(range(len(L)), 2):
        for a, b, c in ([(i, j, k) for k in range(len(L)) if k not in (i, j)]
                        + [(i, i, j), (j, j, i)]):
            for u, v, w in product(L[a], L[b], L[c]):
                r = dm.eval_bracket(alg, u, v, w)
                if not is_zero_vec(r):
                    bad.append(("bracket", a, b, c, r))
    for i, j in combinations(range(len(A)), 2):
        for u, v in product(A[i], A[j]):
            r = dm.eval_amul(alg, u, v)
            if not is_zero_vec(r):
                bad.append(("amul", i, j, r))
    return not bad, bad


def _candidates(spaces, side):
    return [IdealCandidate(S, None, side) for S in spaces]


def _orthogonality_cases(alg, rng):
    """(L ideals, A ideals) lists: the degree fibers, whose supports are
    disjoint, generated ideals, whose supports may overlap, and lists
    that repeat one subspace."""
    def fibers(space):
        basis = alg.L if space == "L" else alg.A
        return [alg.fiber(space, d) for d in
                sorted(set(basis.degrees), key=lambda e: e.coords)]
    closures = [ideal_generated_by(
        alg, "L", _random_homogeneous(rng, alg, "L")) for _ in range(3)]
    A_closures = [ideal_generated_by(
        alg, "A", _random_homogeneous(rng, alg, "A")) for _ in range(2)]
    X = span([_random_vec(rng, alg.dim_L) for _ in range(2)], alg.dim_L)
    return [(fibers("L"), fibers("A")), (closures, A_closures),
            ([X, X], A_closures[:1] * 2), ([X] + fibers("L")[:2] + [X], [])]


def _check_orthogonality(alg, rng):
    """`verify_triple_orthogonality` against the plain scan on the cases
    of `_orthogonality_cases` and the class ideals; returns the numbers
    of clean and dirty cases."""
    clean = dirty = 0
    supports = compute_supports(alg)
    cases = _orthogonality_cases(alg, rng)
    cases.append(([build_I(alg, c).subspace
                   for c in sigma_classes(supports)],
                  [build_A_ideal(alg, c).subspace
                   for c in lambda_classes(supports)]))
    for L_spaces, A_spaces in cases:
        L_ideals = _candidates(L_spaces, "L")
        A_ideals = _candidates(A_spaces, "A")
        got = verify_triple_orthogonality(alg, L_ideals, A_ideals)
        assert got == _plain_orthogonality(alg, L_ideals, A_ideals)
        clean += got[0]
        dirty += not got[0]
    return clean, dirty


def _scan_instances(rng):
    """The builtins, the rho seed, two direct sums and 30 random graded
    tables with a nonzero rho."""
    instances = [builtin(name) for name in BUILTINS] + [rho_trace_seed()]
    instances += [direct_sum(builtin("a4"), builtin("gl2-trace")),
                  direct_sum(builtin("a4-dual-numbers"),
                             builtin("a4-dual-numbers"))]
    return instances + [_random_graded(rng) for _ in range(30)]


def test_orthogonality_matches_plain_scan():
    rng = random.Random(7345)
    clean = dirty = 0
    for alg in _scan_instances(rng):
        c, d = _check_orthogonality(alg, rng)
        clean, dirty = clean + c, dirty + d
    assert clean and dirty


def _plain_pairing(alg, L_ideals, A_ideals):
    """The mapping of `pair_ideals` from a scan over every row pair
    through the dense oracle."""
    return {I.source_class.representative.coords: [
        J.source_class.representative.coords for J in A_ideals
        if any(not is_zero_vec(dm.eval_action(alg, a, x))
               for a, x in product(J.subspace.basis, I.subspace.basis))]
        for I in L_ideals}


def _plain_simplicity(alg, side, C):
    """(product_nonzero, AA_nonzero, AL_nonzero) of the graded ideal C
    from scans over every row tuple through the dense oracle: [C, C, C],
    A A and the A-basis acting on C for L; C C for A, whose verdict
    leaves the other two at their default, True."""
    nL, nA, rows = alg.dim_L, alg.dim_A, C.basis
    if side == "A":
        return (any(not is_zero_vec(dm.eval_amul(alg, u, v))
                    for u, v in product(rows, repeat=2)), True, True)
    return (any(not is_zero_vec(dm.eval_bracket(alg, u, v, w))
                for u, v, w in product(rows, repeat=3)),
            any(not is_zero_vec(dm.amul_basis(alg, i, j))
                for i, j in product(range(nA), repeat=2)),
            any(not is_zero_vec(dm.eval_action(alg, unit_vec(nA, ai), x))
                for ai in range(nA) for x in rows))


def _labelled(spaces, side):
    """Ideal candidates whose class representatives have the coordinates
    (side, position), as `pair_ideals` reads them."""
    return [IdealCandidate(S, SimpleNamespace(
        representative=SimpleNamespace(coords=(side, k))), side)
        for k, S in enumerate(spaces)]


def _check_pairing_and_simplicity(alg, rng, witnesses):
    """`pair_ideals` and the verdicts of both simplicity checks against
    the plain scans, on the cases of `_orthogonality_cases`, the class
    ideals, the generated ideals and the whole spaces; counts the paired
    and unpaired ideals and each witness in `witnesses`."""
    supports = compute_supports(alg)
    L_class = [build_I(alg, c) for c in sigma_classes(supports)]
    A_class = [build_A_ideal(alg, c) for c in lambda_classes(supports)]
    cases = _orthogonality_cases(alg, rng)
    cases.append(([I.subspace for I in L_class],
                  [J.subspace for J in A_class]))
    for L_spaces, A_spaces in cases:
        L_ideals, A_ideals = _labelled(L_spaces, "L"), _labelled(A_spaces, "A")
        got = pair_ideals(alg, L_ideals, A_ideals, tight=True)
        want = _plain_pairing(alg, L_ideals, A_ideals)
        assert got.mapping == want
        assert got.unique == all(len(h) == 1 for h in want.values())
        paired = sum(map(len, want.values()))
        witnesses["paired"] += paired
        witnesses["unpaired"] += len(L_ideals) * len(A_ideals) - paired
    graded = {
        "L": [full_subspace(alg.dim_L)] + [I.subspace for I in L_class
                                           if I.is_graded_ideal],
        "A": [full_subspace(alg.dim_A)] + [J.subspace for J in A_class
                                           if J.is_graded_ideal]}
    graded["L"] += [ideal_generated_by(
        alg, "L", _random_homogeneous(rng, alg, "L")) for _ in range(2)]
    graded["A"] += [ideal_generated_by(
        alg, "A", _random_homogeneous(rng, alg, "A")) for _ in range(2)]
    for side, check, zero in (("L", check_gr_simple_L, "zero-bracket"),
                              ("A", check_gr_simple_A, "zero-product")):
        for C in graded[side]:
            got = check(alg, C)
            nonzero, AA, AL = _plain_simplicity(alg, side, C)
            assert (got.product_nonzero, got.AA_nonzero, got.AL_nonzero) \
                == (nonzero, AA, AL)
            if nonzero:
                assert got.witness not in ("zero-bracket", "zero-product")
            else:
                assert (got.verdict, got.witness) == ("no", zero)
            witnesses[got.witness if not nonzero else side] += 1
            witnesses["AL" if AL else "no AL"] += side == "L"


def test_pairing_and_simplicity_match_plain_scan():
    """`pair_ideals`, the zero-product and zero-bracket tests, and
    AL_nonzero read their products off the incidence; the dense oracle
    scans every row tuple instead."""
    rng = random.Random(5519)
    witnesses = Counter()
    for alg in _scan_instances(rng):
        _check_pairing_and_simplicity(alg, rng, witnesses)
    assert all(witnesses[k] for k in ("paired", "unpaired", "L", "A",
                                      "zero-bracket", "zero-product", "AL",
                                      "no AL"))


def _fiber_meets(alg, space, C):
    """The general route: C met with each degree fiber."""
    degrees = alg.L.degrees if space == "L" else alg.A.degrees
    return [(d, row)
            for d in sorted(set(degrees), key=lambda e: e.coords)
            for row in intersect_subspaces(C, alg.fiber(space, d)).rows]


def _check_fiber_meets(alg, rng):
    """`_homogeneous_generators` against the meets with each fiber, on
    random, fiber-spanned and generated C: equal on a graded C, a
    ValueError on any other; returns the numbers of graded C and of
    non-graded C that meet some fiber."""
    graded = ungraded = 0
    for space, n in (("L", alg.dim_L), ("A", alg.dim_A)):
        basis = alg.L if space == "L" else alg.A
        spaces = [full_subspace(n), span([], n)]
        spaces += [span([r for d in rng.choices(basis.degrees, k=2)
                         for r in alg.fiber(space, d).rows], n)]
        spaces += [span([_random_vec(rng, n) for _ in range(k)], n)
                   for k in (1, max(n - 1, 1), n)]
        spaces.append(ideal_generated_by(
            alg, space, _random_homogeneous(rng, alg, space)))
        for C in spaces:
            want = _fiber_meets(alg, space, C)
            if len(want) == C.dim:
                assert _homogeneous_generators(alg, space, C) == want
                graded += 1
                continue
            with pytest.raises(ValueError):
                _homogeneous_generators(alg, space, C)
            ungraded += bool(want)
    return graded, ungraded


def test_homogeneous_generators_match_fiber_meets():
    rng = random.Random(5119)
    instances = [builtin(name) for name in BUILTINS] + [rho_trace_seed()]
    instances += [_random_graded(rng) for _ in range(30)]
    graded = ungraded = 0
    for alg in instances:
        g, u = _check_fiber_meets(alg, rng)
        graded, ungraded = graded + g, ungraded + u
    # a C that is not graded but still meets some fiber
    assert graded and ungraded


def _non_integral_instances(seed):
    """The valid non-integral trace seed and 20 random graded instances
    whose coefficients include 1/2 and -2/3."""
    rng = random.Random(seed)
    return [rational_seed()] + [_random_graded(rng, NON_INTEGRAL)
                                for _ in range(20)]


def test_decompose_differentials_on_non_integral_tables():
    """The closure, product, orthogonality and fiber-meet differentials
    on tables with non-integral entries, whose coefficients the
    incidence keeps as Fractions."""
    rng = random.Random(6173)
    instances = _non_integral_instances(9321)
    assert sum(c.denominator > 1 for alg in instances
               for table in (alg.bracket, alg.amul, alg.action, alg.rho)
               for e in table.values() for c in e.values()) > 20
    counts = [0] * 7
    for alg in instances:
        found = (_check_closure_engine(alg, rng),
                 _check_against_dense_oracle(alg, rng))
        found += _check_orthogonality(alg, rng) + _check_fiber_meets(alg, rng)
        counts = [a + b for a, b in zip(counts, found)]
    assert all(counts), counts


def test_products_leave_the_incidence_unchanged():
    """`_reached` may yield an image of the incidence itself, shared and
    read-only, so every path that reduces a product copies it first:
    `decompose`, both whole-space simplicity checks, ideal checks that
    fail and ideal closures leave every incidence map as they found it,
    on integral and non-integral tables."""
    rng = random.Random(3017)
    instances = [builtin(name) for name in BUILTINS] + [rho_trace_seed()]
    instances += [_random_graded(rng, NON_INTEGRAL) for _ in range(8)]
    failed = 0
    for alg in instances:
        inc = alg.incidence()
        before = copy.deepcopy(vars(inc))
        decompose(alg)
        check_gr_simple_L(alg)
        check_gr_simple_A(alg)
        for side in "LA":
            for d in sorted(set(alg.basis(side).degrees)):
                F = alg.fiber(side, d)
                failed += not verify_ideal(alg, side, F)[0]
                ideal_generated_by(alg, side, F.rows[0])
        assert vars(inc) == before
    assert failed >= 10, failed


def _reached_by_sum(row, by_index):
    """`_reached` as a plain sum: for each key, in ascending order, the
    sum of c * image over every coordinate c at p of the row and every
    (key, image) listed at p, with the zero sums dropped."""
    sums = {}
    for p, c in row.items():
        for key, image in by_index.get(p, ()):
            acc = sums.setdefault(key, {})
            for m, x in image.items():
                acc[m] = acc.get(m, 0) + c * x
    sums = {key: {m: x for m, x in acc.items() if x}
            for key, acc in sums.items()}
    return [(key, sums[key]) for key in sorted(sums) if sums[key]]


def test_reached_on_one_coordinate_rows_is_the_plain_sum():
    """A row {p: c} reads its incidence list sorted by key: the keys,
    images and order of the plain sum, every coefficient in the exact
    view, and with c = 1 the incidence's own image objects.  Each
    instance is also built with its tables in reverse order, so that
    the lists are not in key order as stored."""
    instances = [builtin(name) for name in BUILTINS] + [rho_trace_seed()]
    # its amul, action and rho hold non-integral coefficients
    last = _random_graded(random.Random(3), NON_INTEGRAL)
    instances.append(last)
    assert all(any(x.denominator > 1 for e in table.values()
                   for x in e.values())
               for table in (last.amul, last.action, last.rho))
    instances += [rebuild(alg, **{name: dict(reversed(getattr(
        alg, name).items())) for name in TABLES}) for alg in instances]
    shared = scaled = 0
    for alg in instances:
        inc = alg.incidence()
        for name in sorted(n for n in vars(inc) if "_by_" in n):
            by_index = getattr(inc, name)
            for p, listed in by_index.items():
                images = dict(listed)
                for c in (1, -1, 2, Fraction(1, 3)):
                    got = list(_reached({p: c}, by_index))
                    assert got == _reached_by_sum({p: c}, by_index)
                    assert all(type(x) is type(x.numerator
                                              if x.denominator == 1 else x)
                               for _, v in got for x in v.values())
                    if c == 1:
                        assert all(v is images[key] for key, v in got)
                        shared += len(got)
                    scaled += c != 1 and len(got)
            assert list(_reached({-1: 1}, by_index)) == []
    assert shared and scaled

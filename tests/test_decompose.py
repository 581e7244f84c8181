import random
from itertools import (combinations, combinations_with_replacement,
                       product)

import pytest

from g3lr.catalog import builtin, direct_sum
from g3lr.connections import compute_supports, lambda_classes, sigma_classes
from g3lr.decompose import (A_ideal_generated_by, build_A1_class,
                            build_A_ideal, build_I, build_L1_class,
                            check_G_multiplicative, check_gr_simple_A,
                            check_gr_simple_L, check_maximal_length,
                            check_tight, decompose, graded_ideal_generated_by,
                            pair_ideals, structure_ideals,
                            verify_ideal_A, verify_ideal_L,
                            verify_triple_orthogonality)
from g3lr.groups import GroupSpec
from g3lr.linalg import (full_subspace, intersect_subspaces, is_zero_vec,
                         solve_homogeneous, span, unit_vec, vec, zero_vec)
from g3lr.model import Algebra3LR, GradedBasis

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
    sub = build_L1_class(alg, _single_class(alg))
    assert sub == span([unit_vec(4, 3)], 4)


def test_L1_class_zero_without_products():
    alg = _zero_bracket_chain()
    classes = sigma_classes(compute_supports(alg))
    for cls in classes:
        assert build_L1_class(alg, cls).dim == 0


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
        build_L1_class(alg, lam_cls)
    with pytest.raises(ValueError):
        build_A1_class(builtin("a4"), lam_cls)


def test_A1_class_of_truncated_polynomials():
    alg = _truncated_poly()
    cls = _single_class(alg, "lambda")
    assert cls.members == {alg.group.elem((1,)), alg.group.elem((2,))}
    assert build_A1_class(alg, cls).dim == 0
    cand = build_A_ideal(alg, cls)
    assert cand.subspace == span([unit_vec(3, 1), unit_vec(3, 2)], 3)
    assert cand.is_graded_ideal


# ---------------------------------------------------------------------------
# ideal verification


def test_verify_ideal_full_and_proper():
    alg = builtin("a4")
    assert verify_ideal_L(alg, full_subspace(4)) == (True, None)
    ok, cert = verify_ideal_L(alg, span([unit_vec(4, 0)], 4))
    assert not ok and cert[0] == "bracket"


def test_center_is_always_an_ideal():
    for name in BUILTINS:
        alg = builtin(name)
        center = structure_ideals(alg).center
        assert verify_ideal_L(alg, center)[0]


def test_verify_ideal_A():
    alg = _truncated_poly()
    assert verify_ideal_A(alg, span([unit_vec(3, 1), unit_vec(3, 2)], 3))[0]
    ok, cert = verify_ideal_A(alg, span([unit_vec(3, 0)], 3))
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


def test_center_is_intersection():
    for name in BUILTINS:
        s = structure_ideals(builtin(name))
        assert s.center == intersect_subspaces(s.z_L, s.ker_rho)


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
# generated ideals and graded simplicity


def test_closure_of_zero_and_of_generator():
    alg = builtin("a4")
    assert graded_ideal_generated_by(alg, zero_vec(4)).dim == 0
    assert graded_ideal_generated_by(alg, unit_vec(4, 0)) == full_subspace(4)


def test_closure_rejects_inhomogeneous():
    alg = builtin("a4")
    with pytest.raises(ValueError):
        graded_ideal_generated_by(alg, vec((1, 1, 0, 0)))


def test_closure_idempotent_and_ideal():
    alg = direct_sum(builtin("a4"), builtin("gl2-trace"))
    for i in range(alg.dim_L):
        C = graded_ideal_generated_by(alg, unit_vec(alg.dim_L, i))
        assert verify_ideal_L(alg, C)[0]
        for row in C.basis:
            assert C.contains_subspace(graded_ideal_generated_by(alg, row))


def test_A_closure():
    alg = _truncated_poly()
    assert A_ideal_generated_by(alg, unit_vec(3, 1)) \
        == span([unit_vec(3, 1), unit_vec(3, 2)], 3)
    assert A_ideal_generated_by(alg, unit_vec(3, 0)) == full_subspace(3)


def test_gr_simple_L_verdicts():
    assert check_gr_simple_L(builtin("a4")).verdict == "yes"

    v = check_gr_simple_L(_zero_bracket_chain())
    assert v.verdict == "no" and v.witness == "zero-bracket"

    two = direct_sum(builtin("a4"), builtin("a4"))
    v = check_gr_simple_L(two)
    assert v.verdict == "no"
    assert v.witness.dim == 4                 # one factor as proper ideal


def test_gr_simple_L_within_non_ideal_rejected():
    alg = builtin("a4")
    bad = span([unit_vec(4, 0), unit_vec(4, 1), unit_vec(4, 2)], 4)
    with pytest.raises(ValueError):
        check_gr_simple_L(alg, within=bad)


def test_gr_simple_A_verdicts():
    assert check_gr_simple_A(builtin("a4")).verdict == "yes"
    v = check_gr_simple_A(_truncated_poly())
    assert v.verdict == "no" and v.witness.dim == 2
    dual = builtin("a4-dual-numbers")
    assert check_gr_simple_A(dual).verdict == "no"


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
# that the worklist engine replaced.  The random instances are graded but
# need not satisfy the axioms: closure and ideal verification are pure
# linear algebra over the structure tables, and these tables carry a
# nonzero rho, which no valid tier-1 instance does.


def _ref_verify_L(alg, S):
    for s in S.basis:
        for i, j in combinations(range(alg.dim_L), 2):
            v = alg.eval_bracket(s, alg.L_unit(i), alg.L_unit(j))
            if not S.contains(v):
                return False, ("bracket", s, i, j, v)
    for s in S.basis:
        for ai in range(alg.dim_A):
            v = alg.eval_action(alg.A_unit(ai), s)
            if not S.contains(v):
                return False, ("action", ai, s, v)
    if alg.rho:
        for s1 in S.basis:
            for s2 in S.basis:
                for ak in range(alg.dim_A):
                    ra = alg.eval_rho(s1, s2, alg.A_unit(ak))
                    if is_zero_vec(ra):
                        continue
                    for lj in range(alg.dim_L):
                        v = alg.eval_action(ra, alg.L_unit(lj))
                        if not S.contains(v):
                            return False, ("rho-action", s1, s2, ak, lj, v)
    return True, None


def _ref_verify_A(alg, T):
    for t in T.basis:
        for ai in range(alg.dim_A):
            v = alg.eval_amul(alg.A_unit(ai), t)
            if not T.contains(v):
                return False, ("amul", ai, t, v)
    return True, None


def _ref_closure_L(alg, v):
    S = span([v], alg.dim_L)
    while True:
        rows = list(S.basis)
        for s in S.basis:
            for i, j in combinations(range(alg.dim_L), 2):
                rows.append(alg.eval_bracket(s, alg.L_unit(i), alg.L_unit(j)))
            for ai in range(alg.dim_A):
                rows.append(alg.eval_action(alg.A_unit(ai), s))
        if alg.rho:
            for s1 in S.basis:
                for s2 in S.basis:
                    for ak in range(alg.dim_A):
                        ra = alg.eval_rho(s1, s2, alg.A_unit(ak))
                        if is_zero_vec(ra):
                            continue
                        for lj in range(alg.dim_L):
                            rows.append(alg.eval_action(ra, alg.L_unit(lj)))
        nxt = span(rows, alg.dim_L)
        if nxt == S:
            return S
        S = nxt


def _ref_closure_A(alg, v):
    T = span([v], alg.dim_A)
    while True:
        rows = list(T.basis)
        for t in T.basis:
            for ai in range(alg.dim_A):
                rows.append(alg.eval_amul(alg.A_unit(ai), t))
        nxt = span(rows, alg.dim_A)
        if nxt == T:
            return T
        T = nxt


def _ref_null(dim, image):
    """Null space of the linear map x -> image(x) on F^dim, read off the
    images of the unit vectors."""
    cols = [image(unit_vec(dim, m)) for m in range(dim)]
    return solve_homogeneous(
        [tuple(c[t] for c in cols) for t in range(len(cols[0]))], dim)


def _ref_structure(alg):
    """The six subspaces of `structure_ideals`, each read off the
    multilinear evaluators instead of the basis tables."""
    nL, nA = alg.dim_L, alg.dim_A
    L, A = alg.L_unit, alg.A_unit

    def flat(vectors):
        return tuple(c for v in vectors for c in v)

    z_L = _ref_null(nL, lambda x: flat(
        alg.eval_bracket(x, L(i), L(j))
        for i, j in combinations(range(nL), 2)))
    ker_rho = _ref_null(nL, lambda x: flat(
        alg.eval_rho(x, L(j), A(k)) for j in range(nL) for k in range(nA)))
    return (z_L, ker_rho, intersect_subspaces(z_L, ker_rho),
            _ref_null(nA, lambda a: flat(alg.eval_amul(a, A(j))
                                         for j in range(nA))),
            _ref_null(nL, lambda x: flat(alg.eval_action(A(k), x)
                                         for k in range(nA))),
            _ref_null(nA, lambda a: flat(alg.eval_action(a, L(j))
                                         for j in range(nL))))


def _random_graded(rng):
    """Random graded structure tables over a small cyclic group with a
    nonzero rho; entries land in the fiber of the product degree."""
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
                out[key] = {m: rng.randint(-2, 2) for m in
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
        return _random_graded(rng)
    return Algebra3LR(G, L, A, bracket, amul, action, rho)


def _random_homogeneous(rng, alg, space):
    basis = alg.L if space == "L" else alg.A
    d = rng.choice(basis.degrees)
    return vec(rng.randint(-2, 2) if e == d else 0 for e in basis.degrees)


def test_closure_engine_matches_round_based_reference():
    rng = random.Random(4168)
    rho_certs = 0
    for _ in range(60):
        alg = _random_graded(rng)
        no_rho = Algebra3LR(alg.group, alg.L, alg.A, alg.bracket, alg.amul,
                            alg.action, {})
        nL, nA = alg.dim_L, alg.dim_A
        L_tests = [span([_random_homogeneous(rng, alg, "L")], nL),
                   span([_random_homogeneous(rng, alg, "L")
                         for _ in range(2)], nL)]
        for _ in range(3):
            v = _random_homogeneous(rng, alg, "L")
            closure = graded_ideal_generated_by(alg, v)
            assert closure == _ref_closure_L(alg, v)
            # closed under brackets and actions, perhaps not under rho
            L_tests += [closure, _ref_closure_L(no_rho, v)]
        A_tests = [span([_random_homogeneous(rng, alg, "A")], nA)]
        for _ in range(2):
            v = _random_homogeneous(rng, alg, "A")
            closure = A_ideal_generated_by(alg, v)
            assert closure == _ref_closure_A(alg, v)
            A_tests.append(closure)
        for S in L_tests:
            got = verify_ideal_L(alg, S)
            assert got == _ref_verify_L(alg, S)
            rho_certs += got[1] is not None and got[1][0] == "rho-action"
        for T in A_tests:
            assert verify_ideal_A(alg, T) == _ref_verify_A(alg, T)
        s = structure_ideals(alg)
        assert (s.z_L, s.ker_rho, s.center, s.ann_A, s.ann_L_A,
                s.ann_A_on_L) == _ref_structure(alg)
    assert rho_certs > 0

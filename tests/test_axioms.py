import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from _cases import (garbage_ungraded, rational_seed, rational_seed_mutant,
                    rebuild, rho_seed_square, rho_square_overflow,
                    rho_trace_seed, with_entry)
import _dense_axioms as dense
from test_acceptance import _perturb
from test_decompose import _non_integral_instances, _random_graded

from g3lr.axioms import (A_ALGEBRA, ALL_AXIOMS, FUNDAMENTAL, GRADING,
                         REPRESENTATION, RHO_DERIVATION, RINEHART,
                         VIOLATION_CAP, Violation, check_A_algebra,
                         check_fundamental_identity, check_grading,
                         check_representation, check_rho_derivation,
                         check_rinehart_compat, rho_antisymmetry_witnesses,
                         run_all)
from g3lr.catalog import BUILTIN_NAMES, builtin
from g3lr.groups import GroupSpec
from g3lr.instio import load_instance
from g3lr.model import Algebra3LR, GradedBasis


def test_all_builtins_pass():
    for name in ("trivial", "a4", "gl2-trace", "a4-dual-numbers",
                 "tight-pair"):
        report = run_all(builtin(name))
        assert report.passed, (name, report.counts)


def test_violation_requires_disagreement():
    with pytest.raises(AssertionError):
        Violation(FUNDAMENTAL, (0,), (1,), (1,))


def test_fundamental_identity_violations_reported():
    broken = garbage_ungraded()
    assert check_grading(broken) == []
    vs = check_fundamental_identity(broken)
    assert vs
    assert all(v.axiom == FUNDAMENTAL and v.lhs != v.rhs for v in vs)


def test_degenerate_bracket_variants_still_valid():
    """Dropping or rescaling one structure constant of the
    4-dimensional instance yields another valid (if different) algebra;
    the checker must not produce false positives on these."""
    alg = builtin("a4")
    for key in list(alg.bracket):
        dropped = {k: v for k, v in alg.bracket.items() if k != key}
        assert check_fundamental_identity(
            rebuild(alg, bracket=dropped)) == []
        scaled = dict(alg.bracket)
        scaled[key] = {m: 2 * c for m, c in scaled[key].items()}
        assert check_fundamental_identity(
            rebuild(alg, bracket=scaled)) == []


# (instance, table, key, wrong entry, witness, the expected degree)
_WRONG_DEGREE_CASES = [
    # a4 is graded by Z2 x Z2 with deg e1 e2 e3 = (0, 0), deg e1 = (1, 0)
    (lambda: builtin("a4"), "bracket", (0, 1, 2), {0: 1},
     ("bracket", 0, 1, 2, 0), (0, 0)),
    # the rho seed: one * one lands in deg 0, not in deg t = 2
    (rho_trace_seed, "amul", (0, 0), {1: 1}, ("amul", 0, 0, 1), (0,)),
    # one e lands in deg e = 1, not in deg f = -1
    (rho_trace_seed, "action", (0, 0), {1: 1}, ("action", 0, 0, 1), (1,)),
    # rho(I, J)(t) lands in deg t = 2, not in deg one = 0
    (rho_trace_seed, "rho", (3, 4, 1), {0: 1}, ("rho", 3, 4, 1, 0), (2,)),
]


def test_wrong_degree_target_breaks_grading():
    """One entry of each table moved to a value of the wrong degree
    gives exactly one grading violation, naming the table, the key, the
    value index and the degree the key's arguments ask for."""
    for make, table, key, entry, witness, expected in _WRONG_DEGREE_CASES:
        vs = check_grading(with_entry(make(), table, key, entry))
        assert [(v.axiom, v.witness, v.rhs) for v in vs] == [
            (GRADING, witness, ("expected-degree",) + expected)], table


def test_broken_action_breaks_rinehart():
    alg = builtin("a4")
    bad = dict(alg.action)
    bad[(0, 0)] = {0: 2}         # unit now acts by 2 on e1 only
    broken = rebuild(alg, action=bad)
    assert check_rinehart_compat(broken) or check_A_algebra(broken)


def test_broken_amul_breaks_associativity():
    alg = builtin("a4-dual-numbers")
    bad = dict(alg.amul)
    bad[(1, 1)] = {1: 1}         # t*t = t
    broken = rebuild(alg, amul=bad)
    vs = check_A_algebra(broken)
    assert any(v.witness[0] in ("assoc", "module") for v in vs)


def test_representation_checks_pass_on_trace_instance():
    alg = builtin("gl2-trace")
    assert check_representation(alg) == []
    assert check_rho_derivation(alg) == []


def test_rho_antisymmetry_note_absent_without_rho():
    alg = builtin("a4")
    assert rho_antisymmetry_witnesses(alg) == []
    assert all("antisymmetric" not in n for n in run_all(alg).notes)


def test_report_capping_keeps_counts():
    report = run_all(garbage_ungraded())
    assert not report.passed
    assert report.counts[FUNDAMENTAL] > VIOLATION_CAP
    capped = report.capped()
    assert len(capped[FUNDAMENTAL]) == VIOLATION_CAP
    for axiom, vs in capped.items():
        assert len(vs) <= VIOLATION_CAP
        assert report.counts[axiom] >= len(vs)


def test_metamorphic_basis_relabel():
    """Renaming labels (not indices) changes nothing checkable."""
    alg = builtin("a4")
    L = GradedBasis(("x1", "x2", "x3", "x4"), alg.L.degrees)
    A = GradedBasis(("unit",), alg.A.degrees)
    relabeled = Algebra3LR(alg.group, L, A, alg.bracket, alg.amul,
                           alg.action, alg.rho)
    assert run_all(relabeled).passed


def test_metamorphic_basis_permutation():
    """Permuting the L-basis order of the 4-dimensional instance and
    rewriting the tables accordingly must stay valid."""
    alg = builtin("a4")
    perm = (2, 0, 3, 1)          # new index of old basis vector i
    inv = tuple(perm.index(i) for i in range(4))

    def resort(i, j, k, val):
        trip = sorted(((perm[i], 0), (perm[j], 1), (perm[k], 2)))
        order = tuple(p for _, p in trip)
        sign = 1 if order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        key = tuple(p for p, _ in trip)
        return key, {perm[m]: sign * c for m, c in val.items()}

    bracket = {}
    for (i, j, k), val in alg.bracket.items():
        key, entry = resort(i, j, k, val)
        bracket[key] = entry
    action = {(0, perm[li]): {perm[m]: c for m, c in val.items()}
              for (ai, li), val in alg.action.items()}
    L = GradedBasis(tuple(alg.L.labels[inv[i]] for i in range(4)),
                    tuple(alg.L.degrees[inv[i]] for i in range(4)))
    permuted = Algebra3LR(alg.group, L, alg.A, bracket, alg.amul,
                          action, {})
    assert run_all(permuted).passed


def test_rinehart_rho_scaling_clause():
    """A nonzero rho that is not A-linear must be flagged."""
    alg = builtin("a4-dual-numbers")
    # rho(e1, e2) acts on "one" producing t: degree-consistent
    # ((1,0,0)(0,1,0)(0,0,0) = (1,1,0)) is violated too, but the
    # A-linearity clause must fire regardless
    rho = {(0, 1, 0): {1: Fraction(1)}}
    broken = rebuild(alg, rho=rho)
    assert check_rinehart_compat(broken)


def test_trace_seed_with_nonzero_rho_passes():
    """The Bai-Bai-Wang trace seed is valid and has rho(I, J)(t) = t, so
    the representation and rho-derivation checks do work on a passing
    instance."""
    alg = rho_trace_seed()
    report = run_all(alg)
    assert report.passed, report.counts
    I, J, t = alg.L.index("I"), alg.L.index("J"), alg.A.index("t")
    assert alg.rho.get((I, J, t)) == {t: Fraction(1)}
    assert alg.rho.get((J, I, t)) == {t: Fraction(-1)}
    assert check_representation(alg) == [] and check_rho_derivation(alg) == []


# ---------------------------------------------------------------------------
# differential test: the sparse checks against the dense reference in
# _dense_axioms.py, violation by violation

SPARSE_CHECKS = {
    FUNDAMENTAL: check_fundamental_identity,
    REPRESENTATION: check_representation,
    RINEHART: check_rinehart_compat,
    RHO_DERIVATION: check_rho_derivation,
    A_ALGEBRA: check_A_algebra,
    GRADING: check_grading,
}

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _single_entry_mutants(alg):
    """Every bracket target moved to a basis vector of another degree
    (grading breaks) and every action, amul and rho entry doubled."""
    out = []
    degrees = alg.L.degrees
    for key, entry in sorted(alg.bracket.items()):
        for m in sorted(entry):
            for m2 in range(alg.dim_L):
                if m2 in entry or degrees[m2] == degrees[m]:
                    continue
                moved = {t: c for t, c in entry.items() if t != m}
                moved[m2] = entry[m]
                out.append(with_entry(alg, "bracket", key, moved))
    for table in ("action", "amul", "rho"):
        for key, entry in sorted(getattr(alg, table).items()):
            out.append(with_entry(alg, table, key,
                                  {t: 2 * c for t, c in entry.items()}))
    return out


def _ungraded(n, bracket, rho=None):
    """Trivially graded L of dimension n over A = span{1}, the unit acting
    as the identity; the grading check is silent on any tables."""
    G = GroupSpec(())
    L = GradedBasis(tuple("v%d" % i for i in range(n)), (G.identity(),) * n)
    A = GradedBasis(("one",), (G.identity(),))
    return Algebra3LR(G, L, A, bracket, {(0, 0): {0: 1}},
                      {(0, i): {i: 1} for i in range(n)}, rho or {})


def _cyclic_bracket():
    """[v_i, v_i+1, v_i+2] = v_i+3 (indices mod 6): the fundamental
    identity fails on more than VIOLATION_CAP tuples over many (l, m)."""
    return _ungraded(6, {(0, 1, 2): {3: 1}, (1, 2, 3): {4: 1},
                         (2, 3, 4): {5: 1}, (3, 4, 5): {0: 1},
                         (0, 4, 5): {1: 1}, (0, 1, 5): {2: 1}})


def _skip_rule_cases():
    """Instances whose violations come from one live source each of the
    output-sensitive checks."""
    return [
        # ad(v0, v1) = 0 but rho(v0, v1)(1) = 1: the Rinehart bracket
        # clause fails only through (rho(x, y) a) z
        _ungraded(3, {}, {(0, 1, 0): {0: 1}}),
        # [v0, v1, v2] = v3 meets P(v4, v5) = {v3} while {0, 1, 2} does
        # not: on (0, 1, 2, 4, 5) only the left side is nonzero
        _ungraded(6, {(0, 1, 2): {3: 1}, (3, 4, 5): {0: 1}}),
        _cyclic_bracket(),
    ]


def _differential_cases():
    cases = [builtin(name) for name in BUILTIN_NAMES]
    cases += [load_instance(str(p)) for p in sorted(EXAMPLES.glob("*.json"))]
    rng = random.Random(101)            # criterion 1's perturbations
    cases += [_perturb(builtin(name), rng)
              for name in ("a4", "gl2-trace") for _ in range(20)]
    for name in ("a4", "gl2-trace"):
        cases += _single_entry_mutants(builtin(name))
    cases.append(rho_trace_seed())
    rng = random.Random(5150)
    cases += [_random_graded(rng) for _ in range(40)]
    cases += _skip_rule_cases()
    return cases


def _rows(violations):
    return [repr((v.axiom, v.witness, v.lhs, v.rhs)) for v in violations]


def test_sparse_checks_match_dense_reference():
    seen = dict.fromkeys(ALL_AXIOMS, 0)
    for alg in _differential_cases():
        for axiom, reference in dense.DENSE_CHECKS:
            want = reference(alg)
            assert _rows(SPARSE_CHECKS[axiom](alg)) == _rows(want)
            seen[axiom] += len(want)
        assert rho_antisymmetry_witnesses(alg) \
            == dense.rho_antisymmetry_witnesses(alg)
    assert all(seen.values()), seen


def test_sparse_checks_match_dense_reference_on_non_integral_tables():
    """The same comparison on tables with non-integral entries, which
    the incidence keeps as Fractions among the int coefficients."""
    cases = _non_integral_instances(9321) + [rational_seed_mutant()]
    cases += _single_entry_mutants(rational_seed())
    seen = dict.fromkeys(ALL_AXIOMS, 0)
    for alg in cases:
        for axiom, reference in dense.DENSE_CHECKS:
            want = reference(alg)
            assert _rows(SPARSE_CHECKS[axiom](alg)) == _rows(want)
            seen[axiom] += len(want)
        assert rho_antisymmetry_witnesses(alg) \
            == dense.rho_antisymmetry_witnesses(alg)
    assert all(seen.values()), seen


def test_capped_report_matches_dense_reference():
    """The 25-witness cap keeps the (i, j, k)-major order of the dense
    enumeration, although the sparse check builds its witnesses pair by
    pair."""
    alg = _cyclic_bracket()
    report = run_all(alg)
    full = report.violations[FUNDAMENTAL]
    assert len(full) > VIOLATION_CAP
    assert len({v.witness[3:] for v in full}) >= 3
    capped = report.capped()
    for axiom, reference in dense.DENSE_CHECKS:
        want = reference(alg)
        assert report.counts[axiom] == len(want)
        assert _rows(capped[axiom]) == _rows(want[:VIOLATION_CAP])


# ---------------------------------------------------------------------------
# the rho layer on rho-rich tables: the representation, Rinehart and
# rho-derivation checks against the dense reference, violation by
# violation

RHO_CHECKS = (REPRESENTATION, RINEHART, RHO_DERIVATION)


def _bare(n, nA, bracket, rho, amul=None, action=None):
    """Trivially graded L of dimension n over A of dimension nA.  The
    product and the action default to zero, so that only the bracket and
    rho contribute to the representation identities."""
    G = GroupSpec(())
    L = GradedBasis(tuple("v%d" % i for i in range(n)), (G.identity(),) * n)
    A = GradedBasis(tuple("a%d" % i for i in range(nA)),
                    (G.identity(),) * nA)
    return Algebra3LR(G, L, A, bracket, amul or {}, action or {}, rho)


def _random_rho_rich(rng):
    """A random trivially graded instance whose rho table holds about
    half of all keys (x, y, a), diagonal pairs x = y included.  In half
    of them a0 is the unit of A and acts as the identity; random product
    and action entries make the Rinehart rho clauses do work."""
    n, nA = rng.randint(3, 5), rng.randint(2, 3)

    def entry(dim):
        return {rng.randrange(dim): rng.choice((-2, -1, 1, 2))}
    bracket = {key: entry(n) for key in combinations(range(n), 3)
               if rng.random() < 0.4}
    amul, action = {}, {}
    if rng.random() < 0.5:
        amul = {(0, j): {j: 1} for j in range(nA)}
        action = {(0, i): {i: 1} for i in range(n)}
    first = 1 if amul else 0
    amul.update({(i, j): entry(nA) for i in range(first, nA)
                 for j in range(i, nA) if rng.random() < 0.3})
    action.update({(ai, li): entry(n) for ai in range(first, nA)
                   for li in range(n) if rng.random() < 0.3})
    rho = {key: entry(nA) for key in product(range(n), range(n), range(nA))
           if rng.random() < 0.5}
    return _bare(n, nA, bracket, rho, amul, action)


def _term_kind_cases():
    """name -> (instance, witness): at the witness exactly one term of
    the representation identities is nonzero, the named one, and the
    identity containing it fails.  E maps a0 to a1 and F maps a1 to a0.
    """
    E, F = {1: 1}, {0: 1}
    return {
        # [rho(0,1), rho(2,3)] a0 = E F a0 - F E a0 = -a0
        "commutator": (_bare(4, 2, {}, {(0, 1, 0): E, (2, 3, 1): F}),
                       ("i", 0, 1, 2, 3, 0)),
        # rho([v0,v1,v2], v4) a0 = rho(v3, v4) a0 = a1, and rho(v3, v4)
        # squares to zero, so no composition is nonzero anywhere
        "bracket-term": (_bare(5, 2, {(0, 1, 2): {3: 1}}, {(3, 4, 0): E}),
                         ("ii", 0, 1, 2, 4, 0)),
        # the same term with the pair in slot 3: rho([v0,v1,v2], v4) a0
        # enters (i) on (0, 1, 4, 2)
        "bracket-term-slot-3": (
            _bare(5, 2, {(0, 1, 2): {3: 1}}, {(3, 4, 0): E}),
            ("i", 0, 1, 4, 2, 0)),
        # rho(x1,x2) rho(x3,x4) a0 = F E a0 on (0, 1, 2, 3)
        "product-12-34": (_bare(4, 2, {}, {(0, 1, 1): F, (2, 3, 0): E}),
                          ("ii", 0, 1, 2, 3, 0)),
        # rho(x2,x3) rho(x1,x4) a0 = F E a0 on (0, 1, 2, 3)
        "product-23-14": (_bare(4, 2, {}, {(1, 2, 1): F, (0, 3, 0): E}),
                          ("ii", 0, 1, 2, 3, 0)),
        # rho(x3,x1) rho(x2,x4) a0 = F E a0 on (0, 1, 2, 3)
        "product-31-24": (_bare(4, 2, {}, {(2, 0, 1): F, (1, 3, 0): E}),
                          ("ii", 0, 1, 2, 3, 0)),
    }


def _assert_rho_layer_matches(alg):
    """Compare the rho checks and the antisymmetry witnesses with the
    dense reference; returns the number of violations of each check."""
    counts = {}
    for axiom, reference in dense.DENSE_CHECKS:
        if axiom in RHO_CHECKS:
            want = reference(alg)
            assert _rows(SPARSE_CHECKS[axiom](alg)) == _rows(want)
            counts[axiom] = len(want)
    assert rho_antisymmetry_witnesses(alg) \
        == dense.rho_antisymmetry_witnesses(alg)
    return counts


def test_rho_layer_matches_dense_reference_on_rho_rich_tables():
    seed, square = rho_trace_seed(), rho_seed_square()
    cases = [square, rho_square_overflow()]
    cases += _single_entry_mutants(seed) + _single_entry_mutants(square)
    rng = random.Random(1010)
    cases += [_random_rho_rich(rng) for _ in range(30)]
    seen = dict.fromkeys(RHO_CHECKS, 0)
    for alg in cases:
        for axiom, count in _assert_rho_layer_matches(alg).items():
            seen[axiom] += count
    assert all(seen.values()), seen


def test_each_representation_term_kind_is_found():
    """Each term of (i) and (ii) reaches the check through its own
    source of candidates; an instance whose witness has only that term
    nonzero fails exactly where the dense reference fails."""
    for name, (alg, witness) in _term_kind_cases().items():
        assert witness in [v.witness for v in check_representation(alg)], \
            name
        _assert_rho_layer_matches(alg)


def _rinehart_term_cases():
    """name -> (instance, witness): at the witness exactly one term of
    [x,y,a z] = a[x,y,z] + (rho(x,y)a) z is nonzero, the named one, and
    only its own source of candidates proposes the witness's (z, a)."""
    return {
        # a0 [v0, v1, v2] = a0 v0 = v0, while a0 v2 = 0: z = v2 is in
        # the domain of ad(v0, v1)
        "bracket-of-z": (_bare(3, 1, {(0, 1, 2): {0: 1}}, {},
                               action={(0, 0): {0: 1}}),
                         ("bracket", 0, 1, 2, 0)),
        # (rho(v0, v1) a0) v2 = a1 v2 = v2, with a zero bracket: a0 is
        # in the domain of rho(v0, v1)
        "rho-of-a": (_bare(3, 2, {}, {(0, 1, 0): {1: 1}},
                           action={(1, 2): {2: 1}}),
                     ("bracket", 0, 1, 2, 0)),
        # [v0, v1, a0 v3] = [v0, v1, v2] = v0, while [v0, v1, v3] = 0:
        # supp(a0 v3) = {v2} meets the domain of ad(v0, v1)
        "a-times-z": (_bare(4, 1, {(0, 1, 2): {0: 1}}, {},
                            action={(0, 3): {2: 1}}),
                      ("bracket", 0, 1, 3, 0)),
    }


def test_each_rinehart_bracket_term_is_found():
    """Each term of the Rinehart bracket clause reaches the check
    through its own source of candidates; an instance whose witness has
    only that term nonzero fails exactly where the dense reference
    fails."""
    for name, (alg, witness) in _rinehart_term_cases().items():
        got = check_rinehart_compat(alg)
        assert witness in [v.witness for v in got], name
        assert _rows(got) == _rows(dense.check_rinehart_compat(alg)), name


def test_diagonal_rho_entry_breaks_antisymmetry():
    """rho(x, x) != 0 is not antisymmetric: rho(x, x) = -rho(x, x) only
    for the zero operator."""
    alg = _ungraded(3, {}, {(0, 0, 0): {0: 1}})
    assert rho_antisymmetry_witnesses(alg) == [(0, 0, 0)]
    assert rho_antisymmetry_witnesses(alg) \
        == dense.rho_antisymmetry_witnesses(alg)
    assert any("antisymmetric" in n and "1 basis pair" in n
               for n in run_all(alg).notes)

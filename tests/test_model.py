import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import _dense_model as dm
from _cases import rho_trace_seed
from _ref_linalg import is_zero_vec, vec_add, vec_scale
from test_decompose import _random_graded
from g3lr.catalog import builtin
from g3lr.groups import GroupSpec
from g3lr.linalg import dense_vec, vec
from g3lr.model import Algebra3LR, GradedBasis

_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _lvec(alg):
    return st.lists(_scalars, min_size=alg.dim_L,
                    max_size=alg.dim_L).map(vec)


def test_basis_validation():
    G = GroupSpec((2,))
    with pytest.raises(ValueError):
        GradedBasis(("a", "a"), (G.identity(), G.identity()))
    with pytest.raises(ValueError):
        GradedBasis(("a",), (G.identity(), G.identity()))
    with pytest.raises(ValueError):
        GradedBasis(("a",), ((0,),))     # not a group element


def test_degree_group_mismatch():
    G, H = GroupSpec((2,)), GroupSpec((3,))
    L = GradedBasis(("x",), (H.identity(),))
    A = GradedBasis(("a",), (G.identity(),))
    with pytest.raises(ValueError):
        Algebra3LR(G, L, A, {}, {}, {}, {})


def test_noncanonical_keys_rejected():
    alg = builtin("a4")
    G, L, A = alg.group, alg.L, alg.A
    with pytest.raises(ValueError):
        Algebra3LR(G, L, A, {(2, 1, 3): {0: 1}}, {}, {}, {})
    with pytest.raises(ValueError):
        Algebra3LR(G, L, A, {(0, 0, 1): {0: 1}}, {}, {}, {})
    with pytest.raises(ValueError):
        Algebra3LR(G, L, A, {}, {(1, 0): {0: 1}}, {}, {})
    with pytest.raises(ValueError):
        Algebra3LR(G, L, A, {}, {}, {(0, 9): {0: 1}}, {})


def test_zero_entries_dropped():
    alg = builtin("a4")
    bracket = dict(alg.bracket)
    bracket[(0, 1, 2)] = {3: 1, 2: 0}
    again = Algebra3LR(alg.group, alg.L, alg.A, bracket,
                       alg.amul, alg.action, alg.rho)
    assert again.bracket[(0, 1, 2)] == {3: Fraction(1)}


def test_bracket_sign_expansion():
    alg = builtin("a4")
    v = alg.bracket_entry(0, 1, 2)
    assert v and alg.bracket_entry(1, 0, 2) == {m: -c for m, c in v.items()}
    assert alg.bracket_entry(2, 0, 1) == v
    assert not alg.bracket_entry(0, 0, 2)
    for key in ((0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 0, 2)):
        assert dense_vec(alg.bracket_entry(*key), 4) \
            == dm.bracket_basis(alg, *key)


def test_amul_symmetric_lookup():
    alg = builtin("a4-dual-numbers")
    assert alg.amul_entry(0, 1) == alg.amul_entry(1, 0)
    assert dense_vec(alg.amul_entry(1, 0), 2) == dm.amul_basis(alg, 0, 1)


@settings(max_examples=25)
@given(st.data())
def test_eval_bracket_alternating_and_multilinear(data):
    alg = builtin("a4")
    x = data.draw(_lvec(alg))
    y = data.draw(_lvec(alg))
    z = data.draw(_lvec(alg))
    c = data.draw(_scalars)
    assert is_zero_vec(alg.eval_bracket(x, x, y))
    assert alg.eval_bracket(x, y, z) == \
        vec_scale(-1, alg.eval_bracket(y, x, z))
    lhs = alg.eval_bracket(vec_add(x, vec_scale(c, y)), y, z)
    assert lhs == alg.eval_bracket(x, y, z)
    lhs2 = alg.eval_bracket(vec_add(x, vec_scale(c, z)), y, z)
    rhs2 = vec_add(alg.eval_bracket(x, y, z),
                   vec_scale(c, alg.eval_bracket(z, y, z)))
    assert lhs2 == rhs2


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_eval_matches_basis_tables(data):
    alg = builtin("tight-pair")
    i = data.draw(st.integers(0, alg.dim_L - 1))
    j = data.draw(st.integers(0, alg.dim_L - 1))
    k = data.draw(st.integers(0, alg.dim_L - 1))
    ai = data.draw(st.integers(0, alg.dim_A - 1))
    assert alg.eval_bracket(alg.L_unit(i), alg.L_unit(j), alg.L_unit(k)) \
        == dm.bracket_basis(alg, i, j, k)
    assert alg.eval_action(alg.A_unit(ai), alg.L_unit(i)) \
        == dm.action_basis(alg, ai, i)
    assert alg.eval_amul(alg.A_unit(ai), alg.A_unit(0)) \
        == dm.amul_basis(alg, ai, 0)


def test_eval_rho_on_trace_instance():
    alg = builtin("gl2-trace")
    # rho vanishes here; the evaluator must agree
    assert is_zero_vec(alg.eval_rho(alg.L_unit(0), alg.L_unit(3),
                                    alg.A_unit(0)))


def test_fibers_partition_dimensions():
    for name in ("a4", "gl2-trace", "a4-dual-numbers", "tight-pair"):
        alg = builtin(name)
        for space, dim in (("L", alg.dim_L), ("A", alg.dim_A)):
            basis = alg.L if space == "L" else alg.A
            total = sum(alg.fiber(space, d).dim for d in set(basis.degrees))
            assert total == dim


def test_fiber_indices_match_fiber():
    alg = builtin("a4")
    g = alg.group.elem((1, 0))
    assert alg.fiber_indices("L", g) == [0]
    assert alg.fiber("L", g).dim == 1
    assert alg.fiber("A", g).dim == 0


def test_unit_helpers():
    alg = builtin("a4")
    assert alg.L_unit(2)[2] == 1 and sum(alg.L_unit(2)) == 1
    assert alg.A_unit(0)[0] == 1


def _flat(by_index, key):
    """{key(m, other): image} over an incidence map m -> [(other, image)],
    which must list each `other` once per m and no zero image."""
    out = {key(m, other): image
           for m, pairs in by_index.items() for other, image in pairs}
    assert len(out) == sum(map(len, by_index.values()))
    assert all(out.values())
    return out


def _lookups(lookup, *ranges):
    """{index tuple: image} over all basis tuples with a nonzero image."""
    return {idx: lookup(*idx) for idx in product(*ranges) if lookup(*idx)}


def test_incidence_matches_signed_lookups():
    rng = random.Random(811)
    instances = [builtin(name) for name in
                 ("trivial", "a4", "gl2-trace", "a4-dual-numbers",
                  "tight-pair")]
    instances += [rho_trace_seed()] + [_random_graded(rng)
                                       for _ in range(20)]
    for alg in instances:
        inc = alg.incidence()
        assert alg.incidence() is inc
        rL, rA = range(alg.dim_L), range(alg.dim_A)
        brackets = _lookups(alg.bracket_entry, rL, rL, rL)
        assert _flat({xy: list(d.items()) for xy, d in inc.ad.items()},
                     lambda xy, p: (p,) + xy) == brackets
        assert _flat(inc.bracket_by_L, lambda p, ij: (p,) + ij) \
            == {k: e for k, e in brackets.items() if k[1] < k[2]}
        actions = _lookups(alg.action_entry, rA, rL)
        assert _flat(inc.action_by_L, lambda m, ai: (ai, m)) == actions
        assert _flat(inc.action_by_A, lambda a, lj: (a, lj)) == actions
        assert _flat(inc.amul_by_A, lambda m, ai: (ai, m)) \
            == _lookups(alg.amul_entry, rA, rA)
        assert _flat(inc.rho_by_pair, lambda ij, ak: ij + (ak,)) \
            == _lookups(alg.rho_entry, rL, rL, rA)

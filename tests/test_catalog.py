from fractions import Fraction
from itertools import product

import pytest

import _dense_model as dm
from _cases import rho_trace_seed, trace_seed
from _ref_linalg import unit_vec
from g3lr.axioms import run_all
from g3lr.catalog import (BUILTIN_NAMES, LieRinehartSeed,
                          _a4_module_over_2dim, builtin, direct_sum,
                          from_lie_trace)
from g3lr.decompose import check_tight
from g3lr.groups import GroupSpec
from g3lr.model import Algebra3LR, GradedBasis


def _sl2_seed(tau):
    group = GroupSpec((0,))
    L = GradedBasis(("e", "f", "h", "I"),
                    (group.elem((1,)), group.elem((-1,)),
                     group.elem((0,)), group.elem((0,))))
    A = GradedBasis(("one",), (group.identity(),))
    return LieRinehartSeed(
        group=group, L=L, A=A,
        lie_bracket={(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
        amul={(0, 0): {0: 1}},
        action={(0, li): {li: 1} for li in range(4)},
        rep={}, tau=tau)


def test_trace_construction_oracle_values():
    alg = from_lie_trace(_sl2_seed((0, 0, 0, 2)))
    e, f, h, I = (unit_vec(alg.dim_L, i) for i in range(4))
    two = Fraction(2)
    assert dm.eval_bracket(alg, e, f, I) == tuple(two * c for c in h)
    assert dm.eval_bracket(alg, e, h, I) == tuple(-2 * two * c for c in e)
    assert dm.eval_bracket(alg, f, h, I) == tuple(2 * two * c for c in f)
    assert dm.eval_bracket(alg, e, f, h) == tuple(Fraction(0)
                                                  for _ in range(4))


def test_trace_zero_gives_zero_bracket():
    alg = from_lie_trace(_sl2_seed((0, 0, 0, 0)))
    assert alg.bracket == {}


def test_trace_property_violation_raises():
    # tau(h) != 0 but h = [e, f], so tau does not vanish on brackets
    with pytest.raises(ValueError):
        from_lie_trace(_sl2_seed((0, 0, 1, 0)))


def test_trace_module_compatibility_checked():
    seed = _sl2_seed((0, 0, 0, 2))
    seed.action = dict(seed.action)
    seed.action[(0, 3)] = {3: 2}          # unit acts by 2 on I only
    with pytest.raises(ValueError):
        from_lie_trace(seed)


def test_trace_construction_rejects_an_invalid_result():
    """rep(J)(1) = 1 passes both checks on the seed, the trace property
    and trace-module compatibility, but the instance built from it fails
    the Rinehart and rho-derivation identities."""
    with pytest.raises(ValueError, match="trace construction produced an "
                       "invalid instance") as err:
        from_lie_trace(trace_seed(rep={(4, 0): {0: 1}}))
    assert "'rinehart-compatibility': 14" in str(err.value)
    assert "'rho-derivation': 4" in str(err.value)


def test_direct_sum_rejects_an_invalid_factor():
    """a4 with the unit acting by 2 on its first basis vector fails the
    Rinehart and A-algebra identities, and so does its sum with a4."""
    a4 = builtin("a4")
    bad = Algebra3LR(a4.group, a4.L, a4.A, a4.bracket, a4.amul,
                     {**a4.action, (0, 0): {0: 2}}, a4.rho)
    with pytest.raises(ValueError, match="direct sum produced an invalid "
                       "instance") as err:
        direct_sum(bad, a4)
    assert "'rinehart-compatibility': 12" in str(err.value)
    assert "'A-algebra': 1" in str(err.value)


def test_direct_sum_shape_and_supports():
    x, y = builtin("a4"), builtin("gl2-trace")
    alg = direct_sum(x, y)
    assert alg.dim_L == x.dim_L + y.dim_L
    assert alg.dim_A == x.dim_A + y.dim_A
    assert run_all(alg).passed
    f1, f2 = alg.factors
    assert f1.l_indices == (0, 1, 2, 3)
    assert f2.l_indices == (4, 5, 6, 7)
    # cross products vanish
    for i in f1.l_indices:
        for j in f1.l_indices:
            for k in f2.l_indices:
                assert all(c == 0 for c in dm.eval_bracket(
                    alg, unit_vec(8, i), unit_vec(8, j), unit_vec(8, k)))


# the argument spaces and the value space of each table, written out as
# an oracle for the signatures of `model.TABLES`
_SPACES = {"bracket": ("LLL", "L"), "amul": ("AA", "A"),
           "action": ("AL", "L"), "rho": ("LLA", "A")}


def test_direct_sum_restricts_to_factors():
    """Every stored entry of each factor appears in the sum with each
    index moved by the offset of its space, the second factor's offsets
    being the dimensions of the first: rho's arguments by the L offset
    and its values by the A offset.  Nothing else is stored."""
    a4, dual = builtin("a4"), builtin("a4-dual-numbers")
    seed = rho_trace_seed()
    for x, y in ((a4, a4), (dual, seed), (seed, dual)):
        alg = direct_sum(x, y)
        expected = {name: {} for name in _SPACES}
        for factor, offset in ((x, {"L": 0, "A": 0}),
                               (y, {"L": x.dim_L, "A": x.dim_A})):
            for name, (args, value) in _SPACES.items():
                for key, entry in getattr(factor, name).items():
                    shifted = tuple(i + offset[s] for i, s in zip(key, args))
                    expected[name][shifted] = {m + offset[value]: Fraction(c)
                                               for m, c in entry.items()}
        for name in _SPACES:
            assert getattr(alg, name) == expected[name], name
        # the rho seed and the dual numbers together store every table
        assert x is a4 or all(expected.values())
    alg = direct_sum(a4, a4)
    assert alg.L.labels[0] == "e1.1" and alg.L.labels[4] == "e1.2"


def test_all_builtins_valid():
    for name in BUILTIN_NAMES:
        assert run_all(builtin(name)).passed, name


def test_tight_pair_is_tight():
    assert check_tight(builtin("tight-pair")).tight


def test_dual_numbers_not_tight():
    t = check_tight(builtin("a4-dual-numbers"))
    assert not t.tight
    assert not t.A1_generation         # t*t = 0 cannot reach the unit


@pytest.mark.parametrize("s", [0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 4)])
def test_dual_number_module_is_the_tensor_rule(s):
    """A4 tensor F[t]/(t^2 - s) is valid for every s, and each product
    of basis vectors is the dense tensor rule on the dense model of a4:
    [x a, y b, z c] = [x, y, z] abc and a (x b) = x ab, where the basis
    vector e_(i+1) t^p of L has index i + 4p and t^p of A has index p."""
    alg = _a4_module_over_2dim(s)
    assert run_all(alg).passed and not alg.rho
    a4, s = builtin("a4"), Fraction(s)

    def mul(a, b):                # (a0 + a1 t)(b0 + b1 t) with t^2 = s
        return (a[0] * b[0] + s * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def tensor(x, a):             # the dense L vector of x tensor a
        return tuple(x[m] * a[p] for p in range(2) for m in range(4))

    def split(i):                 # e_(i+1) t^p as (A4 vector, A vector)
        return unit_vec(4, i % 4), unit_vec(2, i // 4)

    for i, j, k in product(range(8), repeat=3):
        (x, a), (y, b), (z, c) = split(i), split(j), split(k)
        assert dm.eval_bracket(alg, *(unit_vec(8, n) for n in (i, j, k))) \
            == tensor(dm.eval_bracket(a4, x, y, z), mul(mul(a, b), c))
    for p, i in product(range(2), range(8)):
        x, b = split(i)
        assert dm.eval_action(alg, unit_vec(2, p), unit_vec(8, i)) \
            == tensor(x, mul(unit_vec(2, p), b))
    for p, q in product(range(2), repeat=2):
        assert dm.eval_amul(alg, unit_vec(2, p), unit_vec(2, q)) \
            == mul(unit_vec(2, p), unit_vec(2, q))


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin("nope")

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import _dense_model as dm
from _cases import rational_seed, rational_seed_mutant, rho_trace_seed
from _ref_linalg import is_zero_vec, unit_vec, vec, vec_add, vec_scale
from test_decompose import NON_INTEGRAL, _non_integral_instances, \
    _random_graded
from g3lr.axioms import run_all
from g3lr.catalog import builtin
from g3lr.decompose import (_bracket, _product, decompose,
                            ideal_generated_by, structure_ideals,
                            verify_ideal)
from g3lr.groups import GroupSpec
from g3lr.linalg import Subspace, dense_vec, sparse_row
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


@pytest.mark.parametrize("table, key, message", [
    (0, (2, 1, 3), "bracket key (2, 1, 3) is not strictly increasing "
                   "in range"),
    (0, (0, 1, 4), "bracket key (0, 1, 4) is not strictly increasing "
                   "in range"),
    (1, (1, 0), "amul key (1, 0) is not non-decreasing in range"),
    (1, (-1, 0), "amul key (-1, 0) is not non-decreasing in range"),
    (2, (0, 9), "action key (0, 9) out of range"),
    (2, (1, 0), "action key (1, 0) out of range"),
    (3, (0, 4, 0), "rho key (0, 4, 0) out of range"),
    (3, (0, 1, 1), "rho key (0, 1, 1) out of range"),
])
def test_rejected_key_names_the_key(table, key, message):
    """a4 has dim L 4 and dim A 1: each key is out of range or not in
    the stored order, and the error names the table and the key."""
    alg = builtin("a4")
    tables = [{}, {}, {}, {}]
    tables[table] = {key: {0: 1}}
    with pytest.raises(ValueError) as exc:
        Algebra3LR(alg.group, alg.L, alg.A, *tables)
    assert str(exc.value) == message


@pytest.mark.parametrize("table, key, value", [
    (0, (0, 1, 2), 4), (1, (0, 0), 1), (2, (0, 0), 4), (3, (0, 1, 0), 1),
])
def test_value_index_at_the_dimension_is_rejected(table, key, value):
    """a4 has dim L 4 and dim A 1: each entry's value coordinate is the
    dimension of its table's value space, one past the last index."""
    alg = builtin("a4")
    tables = [{}, {}, {}, {}]
    tables[table] = {key: {value: 1}}
    with pytest.raises(ValueError) as exc:
        Algebra3LR(alg.group, alg.L, alg.A, *tables)
    assert str(exc.value) == "structure constant index out of range"


@pytest.mark.parametrize("table, key", [
    (0, (0, 1)), (0, (0, 1, 2, 3)), (1, (0,)), (1, (0, 0, 0)),
    (2, (0,)), (2, (0, 1, 2)), (3, (0, 1)), (3, (0, 1, 0, 0)),
])
def test_key_of_the_wrong_length_is_rejected(table, key):
    alg = builtin("a4")
    tables = [{}, {}, {}, {}]
    tables[table] = {key: {0: 1}}
    with pytest.raises(ValueError):
        Algebra3LR(alg.group, alg.L, alg.A, *tables)


def test_zero_entries_dropped():
    alg = builtin("a4")
    bracket = dict(alg.bracket)
    bracket[(0, 1, 2)] = {3: 1, 2: 0}
    again = Algebra3LR(alg.group, alg.L, alg.A, bracket,
                       alg.amul, alg.action, alg.rho)
    assert again.bracket[(0, 1, 2)] == {3: Fraction(1)}


def _bracket_of(alg, x, y, z):
    """[x, y, z] of dense vectors, formed by `decompose._bracket` on
    their sparse rows off the incidence, as a dense vector."""
    n = alg.dim_L
    rows = (sparse_row(r, n) for r in (x, y, z))
    return dense_vec(_bracket(alg.incidence().bracket_by_L, *rows), n)


@settings(max_examples=25)
@given(st.data())
def test_eval_bracket_alternating_and_multilinear(data):
    """The bracket of sparse rows is alternating in every pair of slots
    and linear in the first."""
    alg = builtin("a4")
    x = data.draw(_lvec(alg))
    y = data.draw(_lvec(alg))
    z = data.draw(_lvec(alg))
    c = data.draw(_scalars)
    assert is_zero_vec(_bracket_of(alg, x, x, y))
    assert _bracket_of(alg, x, y, z) == \
        vec_scale(-1, _bracket_of(alg, y, x, z))
    assert _bracket_of(alg, x, y, z) == \
        vec_scale(-1, _bracket_of(alg, x, z, y))
    lhs = _bracket_of(alg, vec_add(x, vec_scale(c, y)), y, z)
    assert lhs == _bracket_of(alg, x, y, z)
    lhs2 = _bracket_of(alg, vec_add(x, vec_scale(c, z)), y, z)
    rhs2 = vec_add(_bracket_of(alg, x, y, z),
                   vec_scale(c, _bracket_of(alg, z, y, z)))
    assert lhs2 == rhs2


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_eval_matches_basis_tables(data):
    """The products of unit rows off the incidence are the dense basis
    products: the bracket under any argument order, with its sign, and
    the product of A in either order."""
    alg = builtin("tight-pair")
    nL, nA, inc = alg.dim_L, alg.dim_A, alg.incidence()
    i = data.draw(st.integers(0, nL - 1))
    j = data.draw(st.integers(0, nL - 1))
    k = data.draw(st.integers(0, nL - 1))
    ai = data.draw(st.integers(0, nA - 1))
    aj = data.draw(st.integers(0, nA - 1))
    assert dense_vec(_bracket(inc.bracket_by_L, {i: 1}, {j: 1}, {k: 1}),
                     nL) == dm.bracket_basis(alg, i, j, k)
    assert dense_vec(_product(inc.action_by_L, {ai: 1}, {i: 1}), nL) \
        == dm.action_basis(alg, ai, i)
    for a, b in ((ai, aj), (aj, ai)):
        assert dense_vec(_product(inc.amul_by_A, {a: 1}, {b: 1}), nA) \
            == dm.amul_basis(alg, ai, aj)


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


def _flat(by_index, key, n):
    """{key(m, other): dense image of length n} over an incidence map
    m -> [(other, image)], which must list each `other` once per m and
    no zero image."""
    out = {key(m, other): image
           for m, pairs in by_index.items() for other, image in pairs}
    assert len(out) == sum(map(len, by_index.values()))
    assert all(out.values())
    return {k: dense_vec(image, n) for k, image in out.items()}


def _basis_table(alg, basis, *ranges):
    """{index tuple: image} over all basis tuples with a nonzero image
    under the dense, signed `_dense_model` basis product `basis`."""
    images = {idx: basis(alg, *idx) for idx in product(*ranges)}
    return {idx: v for idx, v in images.items() if not is_zero_vec(v)}


def test_incidence_matches_signed_lookups():
    """Every incidence map lists exactly the nonzero basis products of
    the dense oracle, each signed bracket under every argument order."""
    rng = random.Random(811)
    instances = [builtin(name) for name in
                 ("trivial", "a4", "gl2-trace", "a4-dual-numbers",
                  "tight-pair")]
    instances += [rho_trace_seed()] + [_random_graded(rng)
                                       for _ in range(20)]
    for alg in instances:
        inc = alg.incidence()
        assert alg.incidence() is inc
        nL, nA = alg.dim_L, alg.dim_A
        rL, rA = range(nL), range(nA)
        brackets = _basis_table(alg, dm.bracket_basis, rL, rL, rL)
        assert _flat({xy: list(d.items()) for xy, d in inc.ad.items()},
                     lambda xy, p: (p,) + xy, nL) == brackets
        assert _flat(inc.bracket_by_L, lambda p, ij: (p,) + ij, nL) \
            == {k: e for k, e in brackets.items() if k[1] < k[2]}
        actions = _basis_table(alg, dm.action_basis, rA, rL)
        assert _flat(inc.action_by_L, lambda m, ai: (ai, m), nL) == actions
        assert _flat(inc.action_by_A, lambda a, lj: (a, lj), nL) == actions
        assert _flat(inc.amul_by_A, lambda m, ai: (ai, m), nA) \
            == _basis_table(alg, dm.amul_basis, rA, rA)
        assert _flat(inc.rho_by_pair, lambda ij, ak: ij + (ak,), nA) \
            == _basis_table(alg, dm.rho_basis, rL, rL, rA)


def _view_of(c):
    """The kernels' coefficient view of a stored Fraction."""
    return c.numerator if c.denominator == 1 else c


def test_incidence_images_and_coefficient_view():
    """The action maps hold the dense basis products of `_dense_model`
    for every basis pair, `hits` and `acted_into` list the stored keys
    that reach each index, and every coefficient of the incidence is an
    int exactly when it is integral, a Fraction otherwise."""
    rng = random.Random(812)
    instances = [builtin(name) for name in ("trivial", "a4", "gl2-trace",
                                            "a4-dual-numbers")]
    instances += [rho_trace_seed(), rational_seed_mutant()]
    instances += _non_integral_instances(4410)
    instances += [_random_graded(rng) for _ in range(10)]
    kinds = set()
    for alg in instances:
        inc = alg.incidence()
        nL, nA = alg.dim_L, alg.dim_A
        rL, rA = range(nL), range(nA)
        action = [[dm.action_basis(alg, a, x) for x in rL] for a in rA]
        assert [[dense_vec(dict(inc.action_by_A.get(a, ())).get(x, {}), nL)
                 for x in rL] for a in rA] == action
        assert [[dense_vec(dict(inc.action_by_L.get(x, ())).get(a, {}), nL)
                 for x in rL] for a in rA] == action
        assert inc.hits == [[(key, e[p]) for key, e in alg.bracket.items()
                             if p in e] for p in rL]
        assert inc.acted_into == [[((z, a), e[p])
                                   for (a, z), e in alg.action.items()
                                   if p in e] for p in rL]
        images = [e for d in inc.ad.values() for e in d.values()]
        images += [e for by_index in (inc.bracket_by_L, inc.action_by_L,
                                      inc.action_by_A, inc.amul_by_A,
                                      inc.rho_by_pair)
                   for pairs in by_index.values() for _, e in pairs]
        coeffs = [c for e in images for c in e.values()]
        coeffs += [c for hits in inc.hits + inc.acted_into for _, c in hits]
        for c in coeffs:
            assert type(c) is type(_view_of(Fraction(c))), c
            kinds.add(type(c))
    assert kinds == {int, Fraction}


def _all_fraction(values):
    return all(type(c) is Fraction for c in values)


def _subspaces(obj):
    """The Subspaces reachable from a report through dataclass fields,
    lists, tuples and dict values."""
    if isinstance(obj, Subspace):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _subspaces(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _subspaces(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _subspaces(x)


def _check_subspace(S):
    assert all(type(c) is type(_view_of(Fraction(c)))
               for r in S.rows for c in r.values())
    assert all(_all_fraction(b) for b in S.basis)


def _check_certificate(cert):
    """Every vector of an ideal certificate is a dense Fraction tuple."""
    if cert is not None:
        assert all(_all_fraction(x) for x in cert if type(x) is tuple)


def test_public_surface_stays_fraction():
    """The int view stays inside the kernels and the subspace rows: the
    stored tables, subspace bases, violations, certificates and the
    decomposition all carry Fractions, and subspace rows the exact
    view, on integral and non-integral tables alike."""
    rng = random.Random(97)
    instances = [builtin("a4"), builtin("a4-dual-numbers"), rho_trace_seed(),
                 rational_seed(), rational_seed_mutant()]
    instances += [_random_graded(rng, NON_INTEGRAL) for _ in range(4)]
    violations = decomposed = 0
    for alg in instances:
        report = run_all(alg)
        for table in (alg.bracket, alg.amul, alg.action, alg.rho):
            assert all(_all_fraction(e.values()) for e in table.values())
        for vs in report.violations.values():
            for v in vs:
                assert _all_fraction(v.lhs)
                if v.rhs[:1] != ("expected-degree",):
                    assert _all_fraction(v.rhs)
                violations += 1
        spaces = list(_subspaces(structure_ideals(alg)))
        for d in set(alg.L.degrees):
            F = alg.fiber("L", d)
            _check_certificate(verify_ideal(alg, "L", F)[1])
            spaces += [F, ideal_generated_by(
                alg, "L", F.basis[0] if F.dim else unit_vec(alg.dim_L, 0))]
        for d in set(alg.A.degrees):
            _check_certificate(verify_ideal(alg, "A", alg.fiber("A", d))[1])
        if report.passed:
            rep = decompose(alg)
            spaces += list(_subspaces(rep))
            for I in rep.L_ideals + rep.A_ideals:
                _check_certificate(I.certificate)
            for bad in rep.orthogonality[1]:
                assert _all_fraction(bad[-1])
            decomposed += 1
        for S in spaces:
            _check_subspace(S)
    assert violations and decomposed >= 4


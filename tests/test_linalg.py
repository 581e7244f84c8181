from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import _ref_linalg as ref
from _ref_linalg import (is_zero_vec, unit_vec, vec, vec_add, vec_scale,
                         zero_vec)
from g3lr.linalg import (ZERO, Subspace, _extend, _null_space, _reduce,
                         complement, dense_vec, full_subspace,
                         intersect_subspaces, sparse_row, sparse_sum)

_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _matrix(n_cols, max_rows=4):
    return st.lists(
        st.lists(_scalars, min_size=n_cols, max_size=n_cols).map(tuple),
        min_size=0, max_size=max_rows)


def _rref(rows):
    """The reduced row echelon form of equal-length dense rows, read off
    their `Subspace`, whose ambient is the length of the first row."""
    return list(Subspace(len(rows[0]) if rows else 0, rows).basis)


def _null(rows, n):
    """The null space of the constraint rows in F^n."""
    return _null_space(Subspace(n, rows))


def test_rref_shape():
    rows = _rref([vec((2, 4)), vec((1, 2)), vec((0, 1))])
    assert rows == [vec((1, 0)), vec((0, 1))]


def test_rref_rejects_ragged_rows():
    with pytest.raises(ValueError):
        _rref([vec((1, 2)), vec((1, 2, 3))])
    with pytest.raises(ValueError):
        _rref([vec((1, 2, 3)), vec((1, 2))])


def test_rows_past_full_rank():
    """Rows after the basis spans F^n change nothing, and a malformed
    row among them is still rejected."""
    full = [vec((2, 1, 0)), vec((0, 1, 1)), vec((1, 0, 3))]
    more = [vec((5, -1, 2)), {2: Fraction(7)}, vec((0, 0, 0))]
    assert Subspace(3, full + more) == full_subspace(3)
    assert Subspace(3, full + more).rows == ({0: 1}, {1: 1}, {2: 1})
    with pytest.raises(ValueError):
        Subspace(3, full + more + [vec((1, 2))])
    with pytest.raises(ValueError):
        Subspace(3, full + [{3: Fraction(1)}])


def test_rref_empty():
    assert _rref([]) == []
    assert _rref([vec((0, 0, 0))]) == []


@settings(max_examples=60)
@given(_matrix(4))
def test_rref_canonical_pivots(rows):
    red = _rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in red]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for r, p in zip(red, pivots):
        assert r[p] == 1
        # pivot columns cleared everywhere else
        for other in red:
            if other is not r:
                assert other[p] == 0


@settings(max_examples=60)
@given(_matrix(4))
def test_span_invariant_under_shuffle(rows):
    s = Subspace(4, rows)
    t = Subspace(4, list(reversed(rows)) + [zero_vec(4)])
    assert s == t
    for r in rows:
        assert s.contains(r)
        assert s.contains(vec_scale(Fraction(3, 2), r))


def test_contains_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace(2, [vec((1, 0))]).contains(vec((1, 0, 0)))
    with pytest.raises(ValueError):
        Subspace(2, [vec((1, 0))]).contains({2: Fraction(1)})
    s, t = Subspace(2, [vec((1, 0))]), Subspace(3, [vec((1, 0, 0))])
    for op in (Subspace.contains_subspace, intersect_subspaces):
        for a, b in ((s, t), (t, s)):
            with pytest.raises(ValueError, match="ambient mismatch"):
                op(a, b)
    for a, b in ((s, t), (t, s)):
        with pytest.raises(ValueError, match="ambient mismatch"):
            complement(a, within=b)


def _view_of(c):
    """The exact view of the scalar c: an int when integral, else a
    Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def test_sparse_int_rows_stay_exact():
    s = Subspace(2, [{1: 3, 0: 2}])
    assert s.basis == (vec((1, Fraction(3, 2))),)
    assert s.rows == ({0: 1, 1: Fraction(3, 2)},)
    assert all(type(c) is type(_view_of(c)) for r in s.rows
               for c in r.values())


@settings(max_examples=60)
@given(_matrix(4), _matrix(4))
def test_dimension_formula(rows_s, rows_t):
    s, t = Subspace(4, rows_s), Subspace(4, rows_t)
    u = _extend(s, t.rows)
    m = intersect_subspaces(s, t)
    assert s.dim + t.dim == u.dim + m.dim
    assert u.contains_subspace(s) and u.contains_subspace(t)
    assert s.contains_subspace(m) and t.contains_subspace(m)


@settings(max_examples=60)
@given(_matrix(5))
def test_complement_is_direct(rows):
    s = Subspace(5, rows)
    c = complement(s)
    assert s.dim + c.dim == 5
    assert _extend(s, c.rows) == full_subspace(5)
    assert intersect_subspaces(s, c).dim == 0


@settings(max_examples=40)
@given(_matrix(4), _matrix(4))
def test_complement_within(rows_s, rows_w):
    w = Subspace(4, rows_s + rows_w)   # enclosing space contains s
    s = Subspace(4, rows_s)
    c = complement(s, within=w)
    assert s.dim + c.dim == w.dim
    assert _extend(s, c.rows) == w


def test_complement_outside_rejected():
    s = Subspace(2, [vec((1, 0))])
    w = Subspace(2, [vec((0, 1))])
    with pytest.raises(ValueError):
        complement(s, within=w)


@settings(max_examples=60)
@given(_matrix(4))
def test_solve_homogeneous_is_null_space(rows):
    ns = _null(rows, 4)
    for sol in ns.basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, sol)) == 0
    # rank-nullity
    assert ns.dim == 4 - Subspace(4, rows).dim


def test_solve_no_constraints():
    assert _null([], 3) == full_subspace(3)


@settings(max_examples=100)
@example((3, []))
@example((4, [2, 2, 0, 2]))
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), max_size=2 * n))))
def test_null_space_of_unit_rows_is_the_free_unit_rows(case):
    """Constraints that are all unit rows, columns repeated and the
    empty set included: the null space holds the unit rows of the free
    columns, taken as they are, with their columns as its pivots."""
    n, columns = case
    rows = [unit_vec(n, j) for j in columns]
    null = _null(rows, n)
    assert list(null.basis) == ref.solve_homogeneous(rows, n)
    free = tuple(j for j in range(n) if j not in columns)
    assert null.rows == tuple({j: 1} for j in free)
    assert null.pivots == free == Subspace(n, null.basis).pivots


def test_zero_and_unit_vectors():
    assert is_zero_vec(zero_vec(3))
    assert dense_vec({}, 3) == zero_vec(3)
    assert all(x is ZERO for x in dense_vec({1: 2}, 3)[::2])
    assert unit_vec(3, 1) == vec((0, 1, 0))
    assert vec_add(unit_vec(2, 0), unit_vec(2, 1)) == vec((1, 1))


def test_subspace_hash_consistency():
    a = Subspace(2, [vec((2, 0)), vec((0, 3))])
    b = full_subspace(2)
    assert a == b and hash(a) == hash(b)


# The lattice against the pre-rewrite Gauss–Jordan code in `_ref_linalg`.
# Zeros are drawn often, so rows are sparse and entries cancel; a third
# of the cases feed in rows that are already reduced, a third all-zero rows.

_sparse_scalars = st.one_of(st.just(Fraction(0)), _scalars)


@st.composite
def _lattice_case(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(_sparse_scalars, min_size=n, max_size=n).map(tuple)

    def matrix():
        rows = draw(st.lists(row, max_size=6))
        kind = draw(st.sampled_from(["raw", "reduced", "zero"]))
        if kind == "reduced":
            return ref.rref(rows) + draw(st.lists(row, max_size=1))
        return [zero_vec(n)] * len(rows) if kind == "zero" else rows
    rows_s, rows_t = matrix(), matrix()
    coeffs = draw(st.lists(_scalars, min_size=len(rows_s),
                           max_size=len(rows_s)))
    return n, rows_s, rows_t, coeffs, draw(row)


def _as_sparse(rows):
    return [{j: c for j, c in enumerate(r) if c} for r in rows]


@settings(max_examples=200)
@given(_lattice_case())
def test_lattice_matches_reference_oracle(case):
    n, rows_s, rows_t, coeffs, v = case
    s, t = Subspace(n, rows_s), Subspace(n, rows_t)
    ref_s, ref_t = ref.rref(rows_s), ref.rref(rows_t)
    assert list(s.basis) == ref_s
    assert list(intersect_subspaces(s, t).basis) == \
        ref.intersect_subspaces(ref_s, ref_t, n)
    assert list(_null(rows_s, n).basis) == ref.solve_homogeneous(rows_s, n)
    within = ref.rref(rows_s + rows_t)
    assert list(complement(s, Subspace(n, within)).basis) == \
        ref.complement(ref_s, within, n)
    assert list(complement(s).basis) == \
        ref.complement(ref_s, ref.rref(full_subspace(n).basis), n)
    inside = zero_vec(n)
    for c, r in zip(coeffs, rows_s):
        inside = vec_add(inside, vec_scale(c, r))
    probes = [v, inside, vec_add(inside, v)] + rows_t
    for probe in probes:
        assert s.contains(probe) == ref.contains(ref_s, probe)
    # the same matrices as sparse rows {index: Fraction}
    sparse_s = Subspace(n, _as_sparse(rows_s))
    assert sparse_s == s and sparse_s.basis == s.basis
    assert Subspace(n, _as_sparse(rows_t)) == t
    assert _null(_as_sparse(rows_s), n) == _null(rows_s, n)
    assert complement(sparse_s, Subspace(n, _as_sparse(within))) == \
        complement(s, Subspace(n, within))
    assert [s.contains(p) for p in _as_sparse(probes)] == \
        [s.contains(p) for p in probes]


# The exact view: rows whose coefficients are ints where integral, or a
# mix of ints and Fractions, give the subspaces the all-Fraction rows
# give, with every row coefficient in the view and every basis entry a
# Fraction.

def _check_view(S):
    assert all(type(c) is type(_view_of(c)) for r in S.rows
               for c in r.values())
    assert all(type(c) is Fraction for b in S.basis for c in b)


@settings(max_examples=200)
@given(_lattice_case(), st.randoms(use_true_random=False))
def test_exact_view_rows_match_fraction_rows(case, rnd):
    n, rows_s, rows_t, _, v = case
    ref_s, ref_t = ref.rref(rows_s), ref.rref(rows_t)
    within = ref.rref(rows_s + rows_t)
    full = ref.rref(full_subspace(n).basis)
    probes = [v] + rows_t
    s_frac, t_frac = Subspace(n, rows_s), Subspace(n, rows_t)
    meet_frac = intersect_subspaces(s_frac, t_frac)
    comp_frac = complement(s_frac, Subspace(n, within))

    def views(rows):
        """The rows in the exact view, and with each coefficient left a
        Fraction or put in the view at random."""
        return ([tuple(_view_of(c) for c in r) for r in rows],
                [tuple(rnd.choice((c, _view_of(c))) for c in r)
                 for r in rows])
    for rows in zip(views(rows_s), views(rows_t), views(within),
                    views(probes)):
        for s_rows, t_rows, w_rows, p_rows in (rows, map(_as_sparse, rows)):
            s, t = Subspace(n, s_rows), Subspace(n, t_rows)
            assert s == s_frac and s.rows == s_frac.rows and t == t_frac
            assert list(s.basis) == ref_s and list(t.basis) == ref_t
            meet = intersect_subspaces(s, t)
            assert meet == meet_frac and list(meet.basis) == \
                ref.intersect_subspaces(ref_s, ref_t, n)
            null = _null(s_rows, n)
            assert null == _null(rows_s, n)
            assert list(null.basis) == ref.solve_homogeneous(rows_s, n)
            comp = complement(s, Subspace(n, w_rows))
            assert comp == comp_frac and list(comp.basis) == \
                ref.complement(ref_s, within, n)
            whole = complement(s)
            assert list(whole.basis) == ref.complement(ref_s, full, n)
            assert [s.contains(p) for p in p_rows] == \
                [ref.contains(ref_s, p) for p in probes]
            for S in (s, t, meet, null, comp, whole):
                _check_view(S)


def test_exact_view_quotients_and_cancellations():
    # an int leading coefficient other than 1 divides exactly, to a
    # Fraction where it does not divide: 3/2, not 1.5 (which equals it)
    s = Subspace(2, [{0: 2, 1: 3}])
    assert s.rows == ({0: 1, 1: Fraction(3, 2)},)
    assert [type(c) for c in s.rows[0].values()] == [int, Fraction]
    s = Subspace(3, [{0: 4, 1: 2, 2: 6}])
    assert [(c, type(c)) for c in s.rows[0].values()] == \
        [(1, int), (Fraction(1, 2), Fraction), (Fraction(3, 2), Fraction)]
    s = Subspace(2, [{0: 3, 1: -6}])
    assert [(c, type(c)) for c in s.rows[0].values()] == \
        [(1, int), (-2, int)]
    # a leading -1 is a negation
    s = Subspace(3, [{0: -1, 1: 2, 2: Fraction(1, 3)}])
    assert [(c, type(c)) for c in s.rows[0].values()] == \
        [(1, int), (-2, int), (Fraction(-1, 3), Fraction)]
    # a Fraction quotient that is integral is stored as an int
    s = Subspace(2, [{0: Fraction(2, 3), 1: Fraction(4, 3)}])
    assert [(c, type(c)) for c in s.rows[0].values()] == \
        [(1, int), (2, int)]
    # (3/2)(2/3) cancels in the reduction to the int 1, and the pivot
    # clearing 5/2 - (3/2)(1/3) leaves the int 2
    s = Subspace(2, [{0: 1, 1: Fraction(2, 3)}, {0: Fraction(3, 2), 1: 2}])
    assert [(r, [type(c) for c in r.values()]) for r in s.rows] == \
        [({0: 1}, [int]), ({1: 1}, [int])]
    s = Subspace(3, [{0: 1, 1: Fraction(3, 2), 2: Fraction(5, 2)},
                     {1: 1, 2: Fraction(1, 3)}])
    assert [[(c, type(c)) for c in r.values()] for r in s.rows] == \
        [[(1, int), (2, int)], [(1, int), (Fraction(1, 3), Fraction)]]
    # no float reaches a subspace
    s = Subspace(2, [(0.5, 1.5)])
    assert [(c, type(c)) for c in s.rows[0].values()] == \
        [(1, int), (3, int)]
    assert not s.contains({0: 0.5, 1: 1.0})


# Extending a subspace by one row reuses its reduced rows: the result
# must be the rebuilt subspace, in the exact view, and the rows of the
# subspace extended, which other subspaces share, must stay as they were.

@settings(max_examples=200)
@given(_lattice_case(), st.sampled_from(["fraction", "view", "mixed"]),
       st.booleans(), st.randoms(use_true_random=False))
def test_extend_by_one_row_matches_rebuild(case, form, sparse, rnd):
    n, rows_s, _, _, v = case
    if form != "fraction":
        v = tuple(_view_of(c) if form == "view" or rnd.random() < 0.5
                  else c for c in v)
    if sparse:
        v = _as_sparse([v])[0]
    S = Subspace(n, rows_s)
    shared = S.rows
    before = [[(j, c, type(c)) for j, c in r.items()] for r in S.rows]
    T = _extend(S, (v,))
    assert S.rows is shared and all(a is b for a, b in zip(S.rows, shared))
    assert [[(j, c, type(c)) for j, c in r.items()] for r in S.rows] \
        == before
    if S.contains(v):
        assert T is S
        return
    want = Subspace(n, S.rows + (v,))
    assert T.rows == want.rows and T.pivots == want.pivots
    assert T.dim == S.dim + 1 and T.contains(v) and T.contains_subspace(S)
    assert all(type(c) is type(_view_of(c)) for r in T.rows
               for c in r.values())


# `_reduce` finds the rows it subtracts by bisecting the coordinates of
# v into the pivots; the scan over every row that it replaced is the
# oracle.  The probes meet several pivots and non-pivot columns at once.

_NONZERO = (1, -1, 2, Fraction(1, 3), Fraction(-5, 2), Fraction(3, 4))


@settings(max_examples=200)
@given(_lattice_case(), st.sampled_from(["fraction", "view", "mixed"]),
       st.randoms(use_true_random=False))
def test_reduce_by_pivot_lookup_matches_sequential_scan(case, form, rnd):
    n, rows_s, rows_t, _, v = case
    if form != "fraction":
        rows_s = [tuple(_view_of(c) if form == "view" or rnd.random() < 0.5
                        else c for c in r) for r in rows_s]
    S = Subspace(n, rows_s)
    pivots, shared = S.pivots, S.rows
    before = [[(j, c, type(c)) for j, c in r.items()] for r in S.rows]

    def picked(columns, share):
        return {j: _view_of(rnd.choice(_NONZERO)) for j in columns
                if rnd.random() < share}
    probes = [picked(range(n), 1), picked(range(n), 0.6),
              picked(pivots, 0.8), sparse_row(v, n)]
    probes += [sparse_row(r, n) for r in rows_t]
    for probe in probes:
        want = ref.reduce_sequential(S.rows, pivots, dict(probe))
        got = dict(probe)
        assert _reduce(S.rows, pivots, got) is got
        assert got == want and not set(got) & set(pivots)
        assert all(c and type(c) is type(_view_of(c)) for c in got.values())
        assert S.rows is shared and all(a is b for a, b in zip(S.rows,
                                                                shared))
        assert [[(j, c, type(c)) for j, c in r.items()] for r in S.rows] \
            == before


def test_full_subspace_is_the_unit_row_span():
    for n in range(7):
        F, want = full_subspace(n), Subspace(n, [{i: 1} for i in range(n)])
        assert F.rows == want.rows and F.basis == want.basis
        assert F.pivots == want.pivots == tuple(range(n))
        assert [type(c) for r in F.rows for c in r.values()] == [int] * n
        assert all(type(c) is Fraction for b in F.basis for c in b)


def test_sparse_sum_is_in_the_exact_view():
    """A product goes from `sparse_sum` to an echelon basis as it is, so
    the sum is in the exact view: an int where a coefficient is
    integral, a Fraction otherwise, and no zero coefficient."""
    got = sparse_sum([(Fraction(1, 2), {0: 2})])
    assert got == {0: 1} and type(got[0]) is int
    got = sparse_sum([(Fraction(1, 2), {0: 2, 1: 1, 2: 4}), (1, {2: -2}),
                      (Fraction(2, 3), {3: Fraction(3, 2)})])
    assert [(j, c, type(c)) for j, c in got.items()] == [
        (0, 1, int), (1, Fraction(1, 2), Fraction), (3, 1, int)]
    assert sparse_sum([(1, {0: 1}), (-1, {0: 1})]) == {}

import doctest

import pytest
from hypothesis import given, strategies as st

import g3lr.groups as groups
from _ref_connections import product_many
from g3lr.groups import GroupSpec


def test_doctests():
    failures, _ = doctest.testmod(groups)
    assert failures == 0


def test_moduli_validation():
    GroupSpec(())
    GroupSpec((2, 0, 5))
    with pytest.raises(ValueError):
        GroupSpec((1,))
    with pytest.raises(ValueError):
        GroupSpec((-2,))


def test_normalization_and_equality():
    G = GroupSpec((4, 0))
    assert G.elem((5, -3)).coords == (1, -3)
    assert G.elem((5, -3)) == G.elem((1, -3))
    assert hash(G.elem((5, 2))) == hash(G.elem((1, 2)))


def test_arity_mismatch():
    G = GroupSpec((2, 2))
    with pytest.raises(ValueError):
        G.elem((1,))


def test_cross_group_mul_rejected():
    a = GroupSpec((2,)).elem((1,))
    b = GroupSpec((3,)).elem((1,))
    with pytest.raises(ValueError):
        a.mul(b)


def test_immutability():
    e = GroupSpec((2,)).elem((1,))
    with pytest.raises(AttributeError):
        e.coords = (0,)


def test_product_many_empty_is_identity():
    G = GroupSpec((3, 5))
    assert product_many(G, []) == G.identity()
    assert product_many(G, [G.elem((1, 2)), G.elem((2, 3))]) == G.elem((0, 0))


_moduli = st.lists(st.sampled_from([0, 2, 3, 4, 5, 6]),
                   min_size=1, max_size=3).map(tuple)


@st.composite
def _spec_and_elems(draw, count=3):
    spec = GroupSpec(draw(_moduli))
    elems = [spec.elem(tuple(
        draw(st.integers(min_value=-20, max_value=20))
        for _ in spec.moduli)) for _ in range(count)]
    return spec, elems


@given(_spec_and_elems())
def test_group_laws(spec_elems):
    spec, (a, b, c) = spec_elems
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(a.inv()).is_identity()
    assert a.mul(spec.identity()) == a
    assert a.mul(b) == b.mul(a)


@given(_spec_and_elems(count=1))
def test_normal_form_range(spec_elems):
    spec, (a,) = spec_elems
    for c, m in zip(a.coords, spec.moduli):
        if m:
            assert 0 <= c < m


@given(_spec_and_elems())
def test_interned_elements_and_memoised_products(spec_elems):
    spec, (a, b, c) = spec_elems
    # equal normal forms give the same object, whichever way they are made
    shifted = [x + 3 * m for x, m in zip(a.coords, spec.moduli)]
    assert spec.elem(shifted) is spec.elem(a.coords) is a
    assert a.mul(b) is a.mul(b) is b.mul(a)
    assert a.mul(a.inv()) is spec.identity()
    assert a.mul(b).mul(c) is a.mul(b.mul(c))
    # elements of a distinct but equal spec are equal, not the same
    twin = GroupSpec(spec.moduli)
    a2 = twin.elem(a.coords)
    assert a2 is not a and a2 == a and hash(a2) == hash(a)
    assert a2.mul(b) == a.mul(b) and b.mul(a2) == b.mul(a)
    with pytest.raises(ValueError, match="does not match group arity"):
        spec.elem(a.coords + (0,))
    for name in ("spec", "coords", "_hash", "_products"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert sorted((a, b, c)) == sorted((a, b, c), key=lambda e: e.coords)


def test_repr_mentions_coords():
    assert "1" in repr(GroupSpec((2,)).elem((1,)))


def test_equal_specs_hash_equal_and_repr_their_moduli():
    a, b = GroupSpec((2, 0, 5)), GroupSpec(["2", 0, 5])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, GroupSpec((2, 5, 0))}) == 2
    assert repr(a) == "GroupSpec((2, 0, 5))"
    assert repr(GroupSpec(())) == "GroupSpec(())"

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qord.groups import (
    INF,
    TRIVIAL_GROUP,
    Z_GROUP,
    GammaDecomposition,
    ValueGroup,
    format_value,
    lex_product,
    mod2_decompose,
    value_add,
    value_cmp,
    value_scale,
)

Z2 = ValueGroup(2)


def resubstitute(group, dec):
    total = group.zero()
    for i in sorted(dec.index_set):
        total = value_add(total, group.basis[i])
    return value_add(total, value_scale(dec.delta, 2))


def test_value_cmp_examples():
    assert value_cmp((3,), INF) == -1
    assert value_cmp((1, -5), (1, 2)) == -1
    assert value_cmp((0,), (0,)) == 0
    assert value_cmp(INF, INF) == 0
    assert value_cmp(INF, (100,)) == 1


def test_value_add_examples():
    assert value_add((2,), (3,)) == (5,)
    assert value_add((7,), INF) is INF
    assert value_add((1, 0), (0, -2)) == (1, -2)
    assert value_add(INF, INF) is INF


def test_mod2_examples():
    # odd scalar: index set {0}, delta verified by re-substitution
    d = mod2_decompose(Z_GROUP, (5,))
    assert d.index_set == frozenset({0}) and d.delta == (2,)
    assert resubstitute(Z_GROUP, d) == (5,)
    d = mod2_decompose(Z_GROUP, (4,))
    assert d.index_set == frozenset() and d.delta == (2,)
    d = mod2_decompose(Z2, (3, -1))
    assert d.index_set == frozenset({0, 1}) and d.delta == (1, -1)
    assert resubstitute(Z2, d) == (3, -1)


def test_mod2_signed_basis():
    G = ValueGroup(1, (-1,))
    d = mod2_decompose(G, (5,))
    assert d.index_set == frozenset({0}) and d.delta == (3,)
    assert resubstitute(G, d) == (5,)
    d = mod2_decompose(G, (1,))
    assert d.delta == (1,)


def test_decomposition_invariant_enforced():
    with pytest.raises(ValueError):
        GammaDecomposition(Z_GROUP, (5,), frozenset(), (2,))


def test_group_shapes():
    assert lex_product(Z_GROUP, Z_GROUP).rank == 2
    assert Z2.basis == ((1, 0), (0, 1))
    assert TRIVIAL_GROUP.basis == ()
    assert format_value(INF) == "inf"
    assert format_value((3,)) == "3"
    assert format_value((1, -2)) == "(1,-2)"


values2 = st.tuples(
    st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50)
)
maybe_inf = st.one_of(values2, st.just(INF))


@settings(max_examples=100, deadline=None)
@given(maybe_inf, maybe_inf, values2)
def test_cmp_total_order_and_translation(a, b, c):
    # totality / antisymmetry of the comparison
    assert value_cmp(a, b) == -value_cmp(b, a)
    # translation by a finite value preserves strict order
    if value_cmp(a, b) == -1:
        assert value_cmp(value_add(a, c), value_add(b, c)) == -1


@settings(max_examples=100, deadline=None)
@given(values2)
def test_mod2_resubstitution_property(g):
    d = mod2_decompose(Z2, g)
    assert resubstitute(Z2, d) == g
    # 2-divisible behavior: even iff empty index set
    assert (d.index_set == frozenset()) == all(x % 2 == 0 for x in g)

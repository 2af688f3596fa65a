"""Property tests over Γ_{≤6}, whose elements are drawn by enumeration
index: the index bijection, the element literals and the index law."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azenum.central_product import CPContext, format_support, parse_support
from azenum.groups import catalog_group, make_kgroup
from oracles import brute_product

LEVEL = 7  # Γ_{≤6}: supports within coordinates 0..6
GROUPS = ["C4", "Q8"]
checked = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module", params=GROUPS)
def ctx(request):
    table, analysis, k = catalog_group(request.param)
    return CPContext(make_kgroup(table, analysis, k))


def draw_element(data, ctx):
    """An index of Γ_{≤6} and its element, rebuilt from the representative
    so that no index is cached on it."""
    i = data.draw(st.integers(min_value=0, max_value=ctx.gamma_n_order(LEVEL) - 1))
    return i, ctx.make(ctx.representative(ctx.element_at(i)))


@checked
@given(data=st.data())
def test_index_round_trip(ctx, data):
    i, x = draw_element(data, ctx)
    assert ctx.index_of(x) == i
    assert ctx.element_at(ctx.index_of(x)) == x


@checked
@given(data=st.data())
def test_literal_round_trip(ctx, data):
    _, x = draw_element(data, ctx)
    assert parse_support(ctx, format_support(ctx, x)) == x


@checked
@given(data=st.data())
def test_index_law_on_drawn_pairs(ctx, data):
    i, x = draw_element(data, ctx)
    j, y = draw_element(data, ctx)
    expected = ctx.make(brute_product(ctx, x, y, width=LEVEL))
    assert ctx.index_law(i, j) == ctx.index_of(expected)

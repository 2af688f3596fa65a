"""Property tests over Γ_{≤6}, whose elements are drawn by enumeration
index: the index bijection, the element literals and the index law; the
index maps of words on indices far above their coordinates; and the JSON
form of words."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azenum.automorphisms import AutWord, BetaStar, Perm, index_map, word_from_json, word_to_json
from azenum.central_product import CPContext, format_support, parse_support
from azenum.groups import catalog_group, catalog_names, make_kgroup
from oracles import brute_product, oracle_apply_word

LEVEL = 7  # Γ_{≤6}: supports within coordinates 0..6
GROUPS = catalog_names()  # C2 (r = 1) and C2xC2 (|K| = 1) are the layout's edge cases
checked = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module", params=GROUPS)
def ctx(request):
    table, analysis, k = catalog_group(request.param)
    return CPContext(make_kgroup(table, analysis, k))


def draw_element(data, ctx):
    """An index of Γ_{≤6} and its element, decoded to the representative
    and encoded afresh by `make`."""
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


WORD_WIDTH = 10  # words act on coordinates 0..9
FAR = 60  # drawn indices have digits up to coordinate 59


def words(window_size, min_size):
    """Words of min_size-4 generators below WORD_WIDTH: ladders on
    window_size coordinates, cycles of 2-4 coordinates and permutations
    moving at least 8 coordinates, as `az.beta_as_word` begins with."""
    window = st.permutations(range(WORD_WIDTH)).map(lambda p: BetaStar(tuple(p[:window_size])))
    cycle = st.lists(st.integers(0, WORD_WIDTH - 1), min_size=2, max_size=4, unique=True)
    wide = st.permutations(range(WORD_WIDTH)).filter(
        lambda p: sum(c != t for c, t in enumerate(p)) >= 8
    )
    gen = st.one_of(
        window,
        cycle.map(lambda c: Perm.from_cycles([c])),
        wide.map(lambda p: Perm.from_mapping(dict(enumerate(p)))),
    )
    return st.lists(gen, min_size=min_size, max_size=4).map(lambda gens: AutWord(tuple(gens)))


def draw_word(data, ctx):
    """1-4 generators below WORD_WIDTH, with ladders of the exponent + 2."""
    return data.draw(words(ctx.exponent + 2, 1))


@checked
@given(data=st.data())
def test_index_map_far_above_the_word(ctx, data):
    # digits above the word's top coordinate pass through, the map agrees
    # with the element oracle, and the inverse word's map undoes it
    w = draw_word(data, ctx)
    i = data.draw(st.integers(min_value=0, max_value=ctx.gamma_n_order(FAR) - 1))
    j = index_map(ctx, w)(i)
    low_size = ctx.gamma_n_order(w.max_coord() + 1)
    assert j // low_size == i // low_size
    assert j == ctx.index_of(oracle_apply_word(ctx, w, ctx.element_at(i)))
    assert index_map(ctx, w.inverse())(j) == i


@checked
@given(w=st.integers(1, WORD_WIDTH).flatmap(lambda size: words(size, 0)))
def test_word_json_round_trip(w):
    assert word_from_json(word_to_json(w)) == w

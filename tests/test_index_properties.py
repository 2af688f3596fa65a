"""Property tests over Γ_{≤6}, whose elements are drawn by enumeration
index: the index bijection, the element literals and the index law; the
index maps of words, one index and a list at a time, and the list map of
β on indices far above their coordinates; and the JSON form of words."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azenum.automorphisms import (
    AutWord,
    BetaStar,
    Perm,
    index_images,
    word_from_json,
    word_to_json,
)
from azenum.az import beta_images, build_beta, normalize_family
from azenum.central_product import CPContext, format_support, parse_support
from azenum.groups import catalog_group, catalog_names, make_kgroup
from oracles import brute_product, oracle_apply_beta, oracle_apply_word
from test_automorphisms import block_shift
from test_az import BETA_FAMILIES, GOLDEN_FAMILIES, golden_family

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
    return i, ctx.make(ctx.representative(i))


@checked
@given(data=st.data())
def test_index_round_trip(ctx, data):
    i, x = draw_element(data, ctx)
    assert x == i


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
    assert ctx.index_law(i, j) == expected


WORD_WIDTH = 10  # words act on coordinates 0..9
FAR = 60  # drawn indices have digits up to coordinate 59


@st.composite
def block_shifts(draw):
    """The rotation of coordinates a..e below WORD_WIDTH by 1 <= δ <= e - a,
    which shifts a block as `az.beta_as_word` shifts (l_i, l']; its weights
    read as two long runs."""
    a = draw(st.integers(0, WORD_WIDTH - 2))
    e = draw(st.integers(a + 1, WORD_WIDTH - 1))
    return block_shift(a, e, draw(st.integers(1, e - a)))


def words(window_size, min_size):
    """Words of min_size-4 generators below WORD_WIDTH: ladders on
    window_size coordinates, cycles of 2-4 coordinates, block shifts and
    permutations moving at least 8 coordinates, as `az.beta_as_word`
    begins with."""
    window = st.permutations(range(WORD_WIDTH)).map(lambda p: BetaStar(tuple(p[:window_size])))
    cycle = st.lists(st.integers(0, WORD_WIDTH - 1), min_size=2, max_size=4, unique=True)
    wide = st.permutations(range(WORD_WIDTH)).filter(
        lambda p: sum(c != t for c, t in enumerate(p)) >= 8
    )
    gen = st.one_of(
        window,
        cycle.map(lambda c: Perm.from_cycles([c])),
        block_shifts(),
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
    [j] = index_images(ctx, w, [i])
    low_size = ctx.gamma_n_order(w.max_coord() + 1)
    assert j // low_size == i // low_size
    assert j == oracle_apply_word(ctx, w, i)
    assert index_images(ctx, w.inverse(), [j]) == [i]


@checked
@given(data=st.data())
def test_index_images_far_above_the_word(ctx, data):
    # a list at a time, the word's map agrees with its map on each index
    # alone and with the element oracle
    w, top = draw_word(data, ctx), ctx.gamma_n_order(FAR) - 1
    xs = data.draw(st.lists(st.integers(min_value=0, max_value=top), max_size=8))
    images = index_images(ctx, w, xs)
    assert images == [index_images(ctx, w, [i])[0] for i in xs]
    assert images == [oracle_apply_word(ctx, w, i) for i in xs]


BETA_MAPS = BETA_FAMILIES + [
    (name, build_beta(normalize_family(golden_family(name)))) for name in GOLDEN_FAMILIES
]


@pytest.mark.parametrize("name, bm", BETA_MAPS, ids=[name for name, _ in BETA_MAPS])
@settings(checked, max_examples=40)
@given(data=st.data())
def test_beta_images_far_above_l_i(name, bm, data):
    # a list of indices with digits up to 40 coordinates past l_i: β's list
    # map agrees with its map on each index alone and with the element oracle
    ctx = bm.ctx
    top = ctx.gamma_n_order(bm.l_i + 40) - 1
    xs = data.draw(st.lists(st.integers(min_value=0, max_value=top), max_size=8))
    images = beta_images(bm, xs)
    assert images == [beta_images(bm, [i])[0] for i in xs]
    assert images == [oracle_apply_beta(bm, i) for i in xs]


@checked
@given(w=st.integers(1, WORD_WIDTH).flatmap(lambda size: words(size, 0)))
def test_word_json_round_trip(w):
    assert word_from_json(word_to_json(w)) == w

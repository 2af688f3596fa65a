import random
import time

import pytest

from azenum.central_product import (
    MAX_COSETS,
    MAX_LITERAL_COORD,
    CPContext,
    format_support,
    parse_support,
)
from azenum.errors import CapacityError, InputError
from azenum.groups import catalog_group, catalog_names, make_kgroup
from oracles import (
    brute_compare,
    brute_cosets,
    brute_minimum,
    brute_product,
    coset_members,
)


def make_ctx(name, k=None):
    table, analysis, default_k = catalog_group(name)
    return CPContext(make_kgroup(table, analysis, default_k if k is None else k))


@pytest.fixture(scope="module")
def c4k():
    return make_ctx("C4")


@pytest.fixture(scope="module")
def q8k():
    return make_ctx("Q8")


def test_k_square_tuple_is_identity(c4k):
    g2 = c4k.group.index_of_name("g2")
    x = c4k.make({0: g2, 1: g2})
    assert x == c4k.identity


def test_embed_is_homomorphism_per_coordinate(c4k):
    g = c4k.group.index_of_name("g")
    g2 = c4k.group.index_of_name("g2")
    prod = c4k.multiply(c4k.make({0: g}), c4k.make({0: g}))
    assert prod == c4k.make({0: g2})


def inverse(ctx, x):
    """x's inverse, the coordinatewise inverse of its representative."""
    inv = ctx.group.inverse
    return ctx.make({c: inv[v] for c, v in ctx.minimal_representative(x)})


def test_inverse_identity(c4k):
    assert inverse(c4k, c4k.identity) == c4k.identity


def test_embed_k_any_coordinate(c4k):
    g2 = c4k.group.index_of_name("g2")
    assert c4k.make({0: g2}) == c4k.make({1: g2})
    assert c4k.make({5: c4k.group.identity_index}) == c4k.identity


def test_distinct_coordinate_images_commute(q8k):
    for a in range(8):
        for b in range(8):
            x = q8k.make({0: a})
            y = q8k.make({1: b})
            assert q8k.multiply(x, y) == q8k.multiply(y, x)


def test_group_axioms_on_random_elements(q8k):
    rng = random.Random(7)
    elems = [
        q8k.make({c: rng.randrange(8) for c in rng.sample(range(5), rng.randint(0, 3))})
        for _ in range(25)
    ]
    for x in elems[:8]:
        assert q8k.multiply(x, inverse(q8k, x)) == q8k.identity
        assert q8k.multiply(q8k.identity, x) == x
    for x, y, z in zip(elems, elems[5:], elems[10:]):
        assert q8k.multiply(q8k.multiply(x, y), z) == q8k.multiply(x, q8k.multiply(y, z))


def test_multiplication_matches_representative_level(q8k):
    rng = random.Random(8)
    g = q8k.group
    for _ in range(50):
        rx = {c: rng.randrange(8) for c in rng.sample(range(4), 2)}
        ry = {c: rng.randrange(8) for c in rng.sample(range(4), 2)}
        prod = {}
        for c in set(rx) | set(ry):
            prod[c] = g.mul[rx.get(c, g.identity_index)][ry.get(c, g.identity_index)]
        assert q8k.multiply(q8k.make(rx), q8k.make(ry)) == q8k.make(prod)


def test_minimal_representative_example(c4k):
    g = c4k.group.index_of_name("g")
    x = c4k.make({0: g, 1: g})
    w = c4k.minimal_representative(x)
    assert dict(w) == {0: g, 1: g}
    members = list(coset_members(c4k, x))
    assert len(members) == 2  # (g,g) and (g3,g3)
    assert dict(w) in members


def test_minimal_representative_identity(c4k):
    assert c4k.minimal_representative(c4k.identity) == ()


def test_minimal_representative_in_coset(q8k):
    rng = random.Random(9)
    for _ in range(20):
        x = q8k.make({c: rng.randrange(8) for c in rng.sample(range(3), 2)})
        w = dict(q8k.minimal_representative(x))
        assert q8k.make(w) == x


@pytest.mark.parametrize("name", ["C4", "Q8", "D4"])
def test_greedy_minimum_equals_brute_force(name):
    ctx = make_ctx(name)
    rng = random.Random(10)
    order = ctx.group.order
    for _ in range(40):
        support = {c: rng.randrange(order) for c in rng.sample(range(3), rng.randint(0, 3))}
        x = ctx.make(support)
        greedy = dict(ctx.minimal_representative(x))
        assert greedy == brute_minimum(ctx, x, width=4)


def test_compare_examples(c4k):
    g = c4k.group.index_of_name("g")
    assert c4k.compare(c4k.identity, c4k.make({0: g})) == -1
    assert c4k.compare(c4k.make({0: g}), c4k.make({1: g})) == -1
    x = c4k.make({1: g})
    assert c4k.compare(x, x) == 0


@pytest.mark.parametrize("name", ["C4", "Q8"])
def test_compare_matches_brute_force_order(name):
    # every ordered pair of level 3, against the reverse-lex comparison
    # of brute-force minimal representatives
    ctx = make_ctx(name)
    cosets = brute_cosets(ctx, 3)
    for x in cosets:
        for y in cosets:
            assert ctx.compare(x, y) == brute_compare(ctx, x, y, width=3)


@pytest.mark.parametrize("name", ["C4", "Q8", "D4", "C2xC2", "C2"])
def test_multiply_matches_brute_force_product(name):
    # every ordered pair of level 3 (for C2, where K = G, all of Γ): the
    # stored product is the brute-force minimum of the componentwise product
    ctx = make_ctx(name)
    cosets = brute_cosets(ctx, 3)
    for x in cosets:
        for y in cosets:
            expected = brute_product(ctx, x, y, width=3)
            assert ctx.minimal_representative(ctx.multiply(x, y)) == tuple(sorted(expected.items()))


# levels whose every ordered pair fits a quick brute-force check: the index
# law reads coordinates 1.. in blocks of 6 for C4 (r = 2) and 3 for Q8, D4
# and C2xC2 (r = 4), so C4 level 5 reads 4 coordinates of one block and the
# others 2 of one; `test_block_products_match_brute_force_product` checks
# every table entry; C2 has K = G and Γ is all of level 1
LAW_LEVELS = {"C4": 5, "Q8": 3, "D4": 3, "C2xC2": 3, "C2": 3}


def block_height(ctx):
    # the index law's block of coordinates: h >= 1 the largest with r^h <= 64
    r = len(ctx.minima)
    return max((h for h in range(1, 7) if r**h <= 64), default=1) if r > 1 else 1


@pytest.mark.parametrize("name", catalog_names())
def test_block_products_match_brute_force_product(name):
    # every entry of the index law's block table: the pair (A, B) of
    # elements with digits A and B on h coordinates and K factor 1 holds
    # the digits and the K factor of the brute-force product A·B
    ctx = make_ctx(name)
    h, nk = block_height(ctx), len(ctx.k_list)
    assert (h, len(ctx.minima)) in {(6, 2), (3, 4), (1, 1)}
    blocks, width = ctx._block_products(h, nk), len(ctx.minima) ** h
    assert len(blocks) == width * width
    for a in range(width):
        for b in range(width):
            p = blocks[a * width + b]
            expected = ctx.make(brute_product(ctx, a * nk, b * nk, width=h))
            assert divmod(p, nk) == divmod(expected, nk), (a, b)


@pytest.mark.parametrize("name", sorted(LAW_LEVELS), ids=lambda name: f"{name}-make_kgroup")
def test_index_law_matches_brute_force_product(name):
    # every ordered pair of the level: the law on indices gives the index
    # of the brute-force minimum of the componentwise product
    ctx = make_ctx(name)
    level = LAW_LEVELS[name]
    cosets = brute_cosets(ctx, level)
    law = ctx.index_law
    for x in cosets:
        for y in cosets:
            expected = ctx.make(brute_product(ctx, x, y, width=level))
            assert law(x, y) == expected
    if name == "C2":
        assert sorted(cosets) == [0, 1]


@pytest.mark.parametrize("name", ["Q8", "D4"])
def test_index_law_folds_across_blocks(name):
    # seeded pairs of level 7: coordinates 1-6 are two blocks of three
    # coordinates each, whose K factors both fold into coordinate 0
    ctx = make_ctx(name)
    rng = random.Random(13)
    size = ctx.gamma_n_order(7)
    for _ in range(400):
        i, j = rng.randrange(size), rng.randrange(size)
        expected = ctx.make(brute_product(ctx, i, j, width=7))
        assert ctx.index_law(i, j) == expected


class IdentityReads:
    """The identity map on indices as the image list of `law_check`,
    recording every index read: per pair (a, b) the check reads a, b and
    its product a·b, so the products it computes show among the reads."""

    def __init__(self):
        self.reads = []

    def __getitem__(self, x):
        self.reads.append(x)
        return x


def law_check_products(monkeypatch, ctx, n, pairs, evaluations):
    """Per pair, sorted, the three indices `law_check` reads on the identity
    map, and whether it built the level tables."""
    images, built, build = IdentityReads(), [], ctx.level_tables
    monkeypatch.setattr(ctx, "level_tables", lambda n: built.append(n) or build(n))
    assert ctx.law_check(n, images, pairs, evaluations) == (len(pairs), None)
    reads = images.reads
    return [sorted(reads[i : i + 3]) for i in range(0, len(reads), 3)], built == [n]


@pytest.mark.parametrize("name", catalog_names())
def test_level_law_matches_index_law_on_small_levels(monkeypatch, name):
    # every ordered pair of every level of at most 2^9 elements, read from
    # the level's tables, which an unbounded budget always builds
    ctx = make_ctx(name)
    for n in range(1, 10):
        size = ctx.gamma_n_order(n)
        if size > 1 << 9:
            break
        pairs = [(x, y) for x in range(size) for y in range(size)]
        products, built = law_check_products(monkeypatch, ctx, n, pairs, 1 << 30)
        assert built
        assert products == [sorted((x, y, ctx.index_law(x, y))) for x, y in pairs], n


def test_level_law_on_drawn_pairs_at_q8_level_7(monkeypatch):
    # the tables `aut verify` reads at the benchmark's level, on seeded pairs
    ctx = make_ctx("Q8")
    size, rng = ctx.gamma_n_order(7), random.Random(28)
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(20_000)]
    products, built = law_check_products(monkeypatch, ctx, 7, pairs, 200_000)
    assert built
    assert products == [sorted((a, b, ctx.index_law(a, b))) for a, b in pairs]


def test_law_check_without_tables_reads_the_index_law(monkeypatch):
    # a budget below the tables' entries keeps the index law: the same
    # products, and no tables built
    ctx = make_ctx("Q8")
    pairs = [(x, y) for x in range(0, 512, 7) for y in range(0, 512, 5)]
    products, built = law_check_products(monkeypatch, ctx, 4, pairs, 0)
    assert not built
    assert products == [sorted((x, y, ctx.index_law(x, y))) for x, y in pairs]


def test_compare_total_order_on_random_triples(q8k):
    rng = random.Random(11)
    elems = [
        q8k.make({c: rng.randrange(8) for c in rng.sample(range(4), rng.randint(0, 3))})
        for _ in range(30)
    ]
    for x in elems:
        for y in elems:
            cxy = q8k.compare(x, y)
            assert cxy == -q8k.compare(y, x)
            assert (cxy == 0) == (x == y)
    for x, y, z in zip(elems, elems[7:], elems[14:]):
        if q8k.compare(x, y) <= 0 and q8k.compare(y, z) <= 0:
            assert q8k.compare(x, z) <= 0


def test_gamma_n_order(c4k, q8k):
    assert c4k.gamma_n_order(2) == 8
    assert c4k.gamma_n_order(1) == 4
    assert q8k.gamma_n_order(6) == 8192
    assert len(c4k.all_cosets(2)) == 8
    assert len(set(brute_cosets(q8k, 2))) == 32


def test_enumerate_c4_gamma2():
    ctx = make_ctx("C4")
    names = ctx.group.element_names
    got = [
        tuple(names[v] for _, v in ctx.minimal_representative(x))
        for x in ctx.enumerate(8)
    ]
    # classes of (1,1),(g2,1),(g,1),(g3,1),(1,g),(g2,g),(g,g),(g3,g): each
    # coset ranks its K multiples as K = {1, g2} does
    assert got == [
        (),
        ("g2",),
        ("g",),
        ("g3",),
        ("g",),  # {1: g}
        ("g2", "g"),
        ("g", "g"),
        ("g3", "g"),
    ]
    assert [tuple(c for c, _ in ctx.minimal_representative(x)) for x in ctx.enumerate(8)][4] == (1,)


def test_enumerate_matches_brute_force_sort():
    for name in ["C4", "Q8"]:
        ctx = make_ctx(name)
        for n in [2, 3] if name == "C4" else [2]:
            size = ctx.gamma_n_order(n)
            got = ctx.enumerate(size)
            brute = brute_cosets(ctx, n)
            import functools

            brute.sort(key=functools.cmp_to_key(ctx.compare))
            assert got == brute


def test_enumerate_first_is_identity(q8k):
    assert q8k.enumerate(1) == [q8k.identity]


def test_enumerate_strictly_increasing(q8k):
    elems = q8k.enumerate(40)
    for a, b in zip(elems, elems[1:]):
        assert q8k.compare(a, b) == -1


def test_enumerate_c2_full_group():
    ctx = make_ctx("C2")
    assert ctx.gamma_n_order(5) == 2
    v0, v1 = ctx.enumerate(2)
    assert v0 == ctx.identity
    assert v1 == ctx.make({0: 1})
    # Γ has two elements, so the enumeration ends after them
    with pytest.raises(InputError, match="2"):
        ctx.enumerate(3)


@pytest.mark.parametrize("name", ["C4", "Q8", "D4", "C2xC2", "C2"])
def test_index_round_trip(name):
    # decode the representative from the index, then encode it afresh
    ctx = make_ctx(name)
    for i in range(ctx.gamma_n_order(3)):
        assert ctx.make(ctx.representative(i)) == i


def test_element_at_rejects_out_of_range(c4k):
    # an index far above every level round-trips through its representative
    far = 10**6
    assert c4k.make(c4k.representative(far)) == far
    c2 = make_ctx("C2")
    assert c2.make({0: 1}) == 1


@pytest.mark.parametrize("name", catalog_names())
def test_pair_codec_round_trip(name):
    # an index is the pair (s, k): s the coset digits of the minimal
    # representative as a base-r number and k the K factor of its
    # coordinate-0 value
    ctx = make_ctx(name)
    r, e = len(ctx.minima), ctx.group.identity_index
    for i in range(ctx.gamma_n_order(4)):
        rep = dict(ctx.minimal_representative(i))
        s, k = sum(ctx.digit_of[v] * r**c for c, v in rep.items()), ctx.k_of[rep.get(0, e)]
        assert ctx.pairs_of([i]) == ([s], [k])
        assert ctx.index_of_pair(s, k) == i


@pytest.mark.parametrize("name", catalog_names())
def test_digit_sums_match_direct_digit_reading(name):
    # per s < r^n, the weighted sum of s's coset digits, read off the
    # minimal representative of the pair (s, 1): zero weights, a ladder's
    # unsorted window (3, 1, 5) weighing its j-th coordinate r^j, a
    # permutation's moves (negative weights), and n above the weights
    ctx = make_ctx(name)
    r, e = len(ctx.minima), ctx.group.identity_index
    ladder = [0] * 6
    for j, c in enumerate((3, 1, 5)):
        ladder[c] = r**j
    moves = {0: 4, 4: 2, 2: 0}
    perm = [r ** moves[c] - r**c if c in moves else 0 for c in range(5)]
    cases = [(1, []), (3, [0]), (5, [0] * 5), (6, [0] * 2), (6, ladder), (7, ladder), (6, perm)]
    for n, weights in cases:
        expected = []
        for s in range(r**n):
            rep = dict(ctx.minimal_representative(ctx.index_of_pair(s, e)))
            expected.append(sum(ctx.digit_of[rep.get(c, e)] * w for c, w in enumerate(weights)))
        assert ctx.digit_sums(n, weights) == expected, (n, weights)


def test_all_cosets_cap(q8k):
    assert q8k.gamma_n_order(8) <= MAX_COSETS < q8k.gamma_n_order(9)
    with pytest.raises(CapacityError):
        q8k.all_cosets(9)


@pytest.mark.parametrize("coord", [MAX_LITERAL_COORD + 1, 10**9], ids=["just-above", "far"])
def test_make_coordinate_above_cap(q8k, coord):
    # make has a digit per coordinate up to the highest: the cap is decided
    # before they are built
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="cap"):
        q8k.make({coord: 1})
    assert time.perf_counter() - start < 1


def test_support_before_next_level(q8k):
    # every coset with support in {0..n-1} appears before any needing n
    elems = q8k.enumerate(q8k.gamma_n_order(2))
    assert all(max((c for c, _ in q8k.minimal_representative(x)), default=0) <= 1 for x in elems)


def test_element_literals(c4k):
    x = parse_support(c4k, "0:g,2:g3")
    # formatted via the minimal representative: coordinate 2 takes its
    # cheapest K-multiple and coordinate 0 absorbs the residual
    assert format_support(c4k, x) == "0:g3,2:g"
    assert parse_support(c4k, format_support(c4k, x)) == x
    y = parse_support(c4k, "0:g,2:g")
    assert format_support(c4k, y) == "0:g,2:g"
    assert parse_support(c4k, "-") == c4k.identity
    with pytest.raises(InputError):
        parse_support(c4k, "0:nope")
    with pytest.raises(InputError):
        parse_support(c4k, "0:g,0:g2")

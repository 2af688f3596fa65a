import random
from types import SimpleNamespace

import pytest

from azenum import automorphisms
from azenum.automorphisms import (
    AutWord,
    BetaStar,
    Perm,
    alpha_word,
    apply_beta_star,
    apply_perm,
    apply_word,
    index_images,
    level_images,
    verify_automorphism,
    word_from_json,
    word_to_json,
)
from azenum.central_product import CPContext
from azenum.errors import InputError
from azenum.groups import (
    catalog_group,
    catalog_names,
    make_kgroup,
)
from oracles import (
    brute_cosets,
    brute_minimum,
    check_coset_welldefined,
    oracle_apply_word,
    oracle_group,
    raw_ladder,
    raw_perm,
)


def make_ctx(name):
    table, analysis, default_k = catalog_group(name)
    return CPContext(make_kgroup(table, analysis, default_k))


@pytest.fixture(scope="module")
def c4k():
    return make_ctx("C4")


@pytest.fixture(scope="module")
def c2k():
    return make_ctx("C2")


@pytest.fixture(scope="module")
def q8k():
    return make_ctx("Q8")


def word(*gens):
    return AutWord(tuple(gens))


# -- permutations -----------------------------------------------------------


def test_transposition_moves_entry(c4k):
    g = c4k.group.index_of_name("g")
    swap = Perm.from_mapping({0: 1, 1: 0})
    assert apply_word(c4k, word(swap), c4k.make({0: g})) == c4k.make({1: g})
    assert apply_word(c4k, word(swap), c4k.make({2: g})) == c4k.make({2: g})


def test_perm_rejects_non_bijection():
    with pytest.raises(InputError):
        Perm.from_mapping({0: 1})
    with pytest.raises(InputError):
        Perm.from_cycles([[0, 1], [1, 2]])


def test_perm_cycles_round_trip():
    p = Perm.from_cycles([[0, 3, 5], [1, 2]])
    assert Perm.from_cycles(p.cycles()) == p
    assert apply_inv_is_identity(p)


def apply_inv_is_identity(p):
    m = dict(p.moves)
    inv = dict(p.inverse().moves)
    return all(inv[t] == s for s, t in m.items())


def test_perm_is_homomorphism_random(q8k):
    rng = random.Random(20)
    p = Perm.from_cycles([[0, 2, 1], [3, 4]])
    w = word(p)
    for _ in range(40):
        x = q8k.make({c: rng.randrange(8) for c in rng.sample(range(5), 2)})
        y = q8k.make({c: rng.randrange(8) for c in rng.sample(range(5), 2)})
        assert apply_word(q8k, w, q8k.multiply(x, y)) == q8k.multiply(
            apply_word(q8k, w, x), apply_word(q8k, w, y)
        )


# -- ladder maps ------------------------------------------------------------


def test_beta_star_pinned_action(c4k):
    # a single entry at the first window slot fans out to all other slots
    g = c4k.group.index_of_name("g")
    bs = BetaStar(tuple(range(6)))  # exponent 4 => window size 6
    img = apply_word(c4k, word(bs), c4k.make({0: g}))
    assert img == c4k.make({c: g for c in range(1, 6)})


def test_beta_star_fixes_embedded_k(c4k):
    bs = BetaStar(tuple(range(6)))
    for k in c4k.k_list:
        assert apply_word(c4k, word(bs), c4k.make({0: k})) == c4k.make({0: k})


def test_beta_star_self_inverse_exhaustive(c4k):
    bs = word(BetaStar(tuple(range(6))))
    assert c4k.gamma_n_order(6) == 128
    for x in brute_cosets(c4k, 6):
        assert apply_word(c4k, bs, apply_word(c4k, bs, x)) == x


def test_beta_star_wrong_arity_rejected(c4k):
    with pytest.raises(InputError):
        apply_word(c4k, word(BetaStar((0, 1, 2))), c4k.identity)
    with pytest.raises(InputError):
        BetaStar((0, 0, 1, 2, 3, 4))


def test_beta_star_is_automorphism(c4k, q8k):
    r = verify_automorphism(c4k, word(BetaStar(tuple(range(6)))), 6)
    assert r.ok and r.exhaustive and r.size == 128
    r = verify_automorphism(q8k, word(BetaStar((0, 2, 3, 1, 5, 4))), 6)
    assert r.ok


@pytest.mark.parametrize(
    "name, level, gens",
    [
        ("C4", 6, [Perm.from_cycles([[0, 5], [1, 3, 2]]), BetaStar(tuple(range(6))),
                   BetaStar((5, 0, 3, 1, 4, 2))]),
        ("Q8", 4, [Perm.from_cycles([[0, 3, 1]]), Perm.from_cycles([[0, 2]]),
                   BetaStar(tuple(range(6))), BetaStar((3, 5, 0, 4, 1, 2))]),
    ],
)
def test_generators_match_brute_force_action(name, level, gens):
    # every element of the level: the image is the brute-force minimum of
    # the raw componentwise action on the minimal representative
    ctx = make_ctx(name)
    for gen in gens:
        for x in brute_cosets(ctx, level):
            if isinstance(gen, Perm):
                image, raw = apply_perm(ctx, gen, x), raw_perm(ctx, gen, x)
            else:
                image, raw = apply_beta_star(ctx, gen, x), raw_ladder(ctx, gen.coords, x)
            expected = tuple(sorted(brute_minimum(ctx, raw, width=6).items()))
            assert ctx.minimal_representative(image) == expected


def _mixed_word(rng, ctx, length, width):
    """`length` generators on coordinates below `width`: ladders, most of
    whose windows hold coordinate 0, and cycles of 2-4 coordinates."""
    m = ctx.exponent + 2
    gens = []
    for _ in range(length):
        if rng.random() < 0.5:
            coords = rng.sample(range(width), m)
            if 0 not in coords and rng.random() < 0.6:
                coords[rng.randrange(m)] = 0
            gens.append(BetaStar(tuple(coords)))
        else:
            gens.append(Perm.from_cycles([rng.sample(range(width), rng.randint(2, 4))]))
    return word(*gens)


INDEX_MAP_LEVELS = [("C2", 4), ("C4", 7), ("C2xC2", 5), ("Q8", 5), ("D4", 5), ("C6", 6)]


@pytest.mark.parametrize(
    "name, level",
    INDEX_MAP_LEVELS,
    ids=[f"{name}-{level}-make_kgroup" for name, level in INDEX_MAP_LEVELS],
)
def test_index_map_matches_element_oracle(name, level):
    # every element of the level, under words of 1-4 generators reaching two
    # coordinates past it: the index map agrees with the raw tuple actions
    # normalised by `make`, and the inverse word's map undoes it
    ctx = CPContext(make_kgroup(*oracle_group(name)))
    rng = random.Random(f"{name}-make_kgroup")
    words = [_mixed_word(rng, ctx, length, level + 2) for length in (1, 2, 3, 4)]
    assert any(0 in g.coords for w in words for g in w.gens if isinstance(g, BetaStar))
    domain = range(ctx.gamma_n_order(level))
    for w in words:
        images = index_images(ctx, w, domain)
        assert images == [oracle_apply_word(ctx, w, i) for i in domain]
        assert index_images(ctx, w.inverse(), images) == list(domain)


def _beta_shaped_word(rng, ctx):
    """A word shaped as `az.beta_as_word`'s: a permutation moving at least
    8 of the coordinates 0..l, then two copy words (`alpha_word`) anchored
    at j0 = l + 1, with 2 and 1 ladder+swap blocks sharing their anchors,
    so the ladders meet their window configurations again. Returns the
    word and j0."""
    m = ctx.exponent
    l = 3 * m + 3
    coords = list(range(l + 1))
    while True:
        targets = rng.sample(coords, len(coords))
        if sum(s != t for s, t in zip(coords, targets)) >= 8:
            break
    gens = [Perm.from_mapping(dict(zip(coords, targets)))]
    picked = rng.sample(coords, 3 * m + 2)
    for i0, I in ((picked[0], picked[2 : 2 + 2 * m]), (picked[1], picked[2 + 2 * m :])):
        gens += alpha_word(ctx, I, i0, l + 1).gens
    return word(*gens), l + 1


@pytest.mark.parametrize("name", catalog_names())
def test_index_map_on_beta_shaped_words(name):
    # every singleton on the word's coordinates and 200 seeded indices with
    # digits up to one coordinate past it: the index map agrees with the
    # raw tuple actions normalised by `make`
    ctx = make_ctx(name)
    rng = random.Random(f"beta-shaped-{name}")
    for _ in range(3):
        w, top = _beta_shaped_word(rng, ctx)
        assert sum(isinstance(g, BetaStar) for g in w.gens) == 3
        xs = [ctx.make({c: v}) for c in range(top + 1) for v in range(ctx.group.order)]
        xs += [rng.randrange(ctx.gamma_n_order(top + 2)) for _ in range(200)]
        for i, image in zip(xs, index_images(ctx, w, xs)):
            assert image == oracle_apply_word(ctx, w, i), i


# -- runs of consecutive digits ----------------------------------------------


def read_runs(runs, s):
    return sum(s // p % m * w for p, m, w in runs)


def per_coordinate_sum(ctx, weights, s):
    r = len(ctx.minima)
    return sum(s // r**c % r * w for c, w in weights.items())


def block_shift(a, e, delta):
    """The rotation of the coordinates a..e by delta: t -> t + delta, the
    top delta coordinates wrapping onto a..a+delta-1."""
    return Perm.from_mapping({t: a + (t - a + delta) % (e - a + 1) for t in range(a, e + 1)})


def run_shape(ctx, gen):
    """The (place, modulus) of each run of the generator's weights."""
    return [(p, m) for p, m, _ in ctx.digit_runs(automorphisms._window_action(ctx, gen)[0])]


@pytest.mark.parametrize("name", catalog_names())
def test_digit_runs_equal_the_per_coordinate_sum(name):
    # seeded weight dicts, whose adjacent coordinates often weigh r times
    # the one below as a run does, and the weights of block shifts, cycles
    # and ladders on adjacent and scattered coordinates: the runs' reads
    # equal the per-coordinate sum on seeded s with digits past every weight
    # (r = 1 on C2, where every s is 0)
    ctx = make_ctx(name)
    r, m = len(ctx.minima), ctx.exponent + 2
    rng = random.Random(f"digit-runs-{name}")
    dicts = []
    for _ in range(60):
        weights, c = {}, rng.randrange(3)
        for _ in range(rng.randint(0, 8)):
            below = weights.get(c - 1)
            grows = below is not None and rng.random() < 0.6
            weights[c] = below * r if grows else rng.randint(-(r**12), r**12)
            c += rng.choice([1, 1, 2, 3])
        dicts.append(weights)
    gens = [block_shift(2, 9, 3), block_shift(0, 11, 1), Perm.from_cycles([[0, 1, 2]])]
    gens += [BetaStar(tuple(range(3, 3 + m))), BetaStar(tuple(rng.sample(range(20), m)))]
    dicts += [automorphisms._window_action(ctx, gen)[0] for gen in gens]
    for weights in dicts:
        runs = ctx.digit_runs(weights)
        for s in [rng.randrange(r**30) for _ in range(30)]:
            assert read_runs(runs, s) == per_coordinate_sum(ctx, weights, s), weights


def test_digit_runs_of_shifts_cycles_and_ladders(q8k, c2k):
    r, m = len(q8k.minima), q8k.exponent + 2
    # a block shift is the shifted block and the wrapped tail, a run each
    assert run_shape(q8k, block_shift(2, 9, 3)) == [(r**2, r**5), (r**7, r**3)]
    # (0 1 2) weighs r - 1, r(r - 1) and 1 - r^2: runs {0, 1} and {2}
    assert run_shape(q8k, Perm.from_cycles([[0, 1, 2]])) == [(1, r**2), (r**2, r)]
    # a ladder on adjacent coordinates in window order is one run; on
    # scattered or descending coordinates, one run per coordinate
    assert run_shape(q8k, BetaStar(tuple(range(3, 3 + m)))) == [(r**3, r**m)]
    scattered = tuple(range(0, 2 * m, 2))
    assert run_shape(q8k, BetaStar(scattered)) == [(r**c, r) for c in scattered]
    assert run_shape(q8k, BetaStar(tuple(reversed(range(m))))) == [(r**c, r) for c in range(m)]
    # r = 1: a permutation weighs 0 everywhere, one run of digits that are all 0
    weights, _ = automorphisms._window_action(c2k, Perm.from_cycles([[0, 1, 2]]))
    assert weights == {0: 0, 1: 0, 2: 0}
    assert c2k.digit_runs(weights) == [(1, 1, 0)]


def merge_adjacent(ctx, weights):
    """A wrong `digit_runs`: it merges adjacent coordinates whatever their
    weights, as if each weighed r times the one below."""
    r, runs = len(ctx.minima), []
    for c, w in sorted(weights.items()):
        if runs and sum(runs[-1][:2]) == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1, w])
    return [(ctx.place(c), r**n, w) for c, n, w in runs]


def test_runs_merged_past_their_weights_fail_the_oracle(q8k, monkeypatch):
    # the transposition (0 1) weighs r - 1 and 1 - r: merged into one run,
    # index_images no longer agrees with the element oracle, while a ladder
    # on adjacent coordinates in window order, one run either way, still does
    xs = list(range(q8k.gamma_n_order(4)))
    swap, ladder = word(Perm.from_cycles([[0, 1]])), word(BetaStar(tuple(range(q8k.exponent + 2))))
    expected = {
        w: [oracle_apply_word(q8k, w, i) for i in xs]
        for w in (swap, ladder)
    }
    assert all(index_images(q8k, w, xs) == images for w, images in expected.items())
    monkeypatch.setattr(CPContext, "digit_runs", merge_adjacent)
    assert index_images(q8k, swap, xs) != expected[swap]
    assert index_images(q8k, ladder, xs) == expected[ladder]


def _level_word(rng, ctx, length, n):
    """`length` generators below level n: ladders on shuffled (unsorted)
    windows at even positions where one fits, else cycles through
    coordinate 0."""
    m = ctx.exponent + 2
    gens = []
    for pos in range(length):
        if m <= n and pos % 2 == 0:
            coords = rng.sample(range(n), m)
            if coords == sorted(coords):
                coords.reverse()
            gens.append(BetaStar(tuple(coords)))
        elif n > 1:
            cycle = [0, *rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))]
            gens.append(Perm.from_cycles([rng.sample(cycle, len(cycle))]))
    return word(*gens)


@pytest.mark.parametrize(
    "name", ["C2", "C4", "C2xC2", "Q8", "D4", "C6"], ids=lambda name: f"{name}-make_kgroup"
)
def test_level_images_match_index_map(name):
    # every level of at most 2^12 elements (C2 is finite: levels 1-11), with
    # words of 0-4 generators up to 2^9 elements and one word above, and a
    # ladder and a cycle on the least level that fits a ladder when that is
    # larger (Q8, D4, C6); only C6's ladders carry a K factor other than 1
    ctx = CPContext(make_kgroup(*oracle_group(name)))
    m = ctx.exponent + 2
    levels = {
        n: range(5) if ctx.gamma_n_order(n) <= 1 << 9 else [1 + n % 4]
        for n in range(1, 12) if ctx.gamma_n_order(n) <= 1 << 12
    }
    levels.setdefault(m, [2])
    rng = random.Random(f"level-images-{name}-make_kgroup")
    kinds = set()
    for n, lengths in levels.items():
        for length in lengths:
            w = _level_word(rng, ctx, length, n)
            kinds.update(type(g) for g in w.gens)
            expected = index_images(ctx, w, range(ctx.level_size(n)))
            assert level_images(ctx, w, n) == expected
    assert kinds == {Perm, BetaStar}


def test_level_images_at_the_benchmark_shape():
    # the aut_verify_q8 benchmark's shape: Q8 level 7 (32 768 cosets) and a
    # word of a ladder and a transposition; the benchmark's digest holds
    # only report fields, so a wrong image list would pass it unseen
    ctx = CPContext(make_kgroup(*oracle_group("Q8")))
    rng = random.Random("level-images-benchmark-shape")
    ladder = BetaStar(tuple(rng.sample(range(7), ctx.exponent + 2)))
    w = word(ladder, Perm.from_cycles([rng.sample(range(7), 2)]))
    assert level_images(ctx, w, 7) == index_images(ctx, w, range(32768))


def test_level_images_keep_the_short_ladder_message(c4k):
    with pytest.raises(InputError, match=r"^ladder needs exponent\+2 = 6 coordinates, got 3$"):
        level_images(c4k, word(BetaStar((0, 1, 2))), 4)


def test_wrong_window_size_is_representative_dependent(c4k, c2k):
    # one slot short of exponent+2: the raw action does not descend
    assert check_coset_welldefined(c4k, tuple(range(5))) is not None
    assert check_coset_welldefined(c2k, tuple(range(3))) is not None
    # the correct arity shows no dependence
    assert check_coset_welldefined(c4k, tuple(range(6))) is None
    assert check_coset_welldefined(c2k, tuple(range(4))) is None


# -- words ------------------------------------------------------------------


def test_empty_word_is_identity(q8k):
    rng = random.Random(21)
    for _ in range(10):
        x = q8k.make({c: rng.randrange(8) for c in rng.sample(range(4), 2)})
        assert apply_word(q8k, word(), x) == x


def test_word_inverse_property(c4k):
    rng = random.Random(22)
    w = word(
        BetaStar((0, 2, 3, 4, 5, 1)),
        Perm.from_cycles([[0, 4, 2]]),
        BetaStar(tuple(range(6))),
    )
    wi = w.inverse()
    for _ in range(30):
        x = c4k.make({c: rng.randrange(4) for c in rng.sample(range(6), 3)})
        assert apply_word(c4k, wi, apply_word(c4k, w, x)) == x
        assert apply_word(c4k, w, apply_word(c4k, wi, x)) == x


def test_word_json_round_trip():
    w = word(Perm.from_cycles([[0, 1], [2, 5, 3]]), BetaStar((4, 0, 1, 6)))
    assert word_from_json(word_to_json(w)) == w
    with pytest.raises(InputError):
        word_from_json([{"nope": []}])


# -- the copy words ---------------------------------------------------------


def test_alpha_word_c2_example(c2k):
    g = 1
    w = alpha_word(c2k, [2, 3], i0=0, j0=1)
    assert apply_word(c2k, w, c2k.make({0: g})) == c2k.make({0: g, 2: g, 3: g})
    # trivial-at-I-and-j0 inputs keep their own entry at i0
    assert apply_word(c2k, w, c2k.identity) == c2k.identity


def test_alpha_word_c4_example(c4k):
    g = c4k.group.index_of_name("g")
    w = alpha_word(c4k, [1, 2, 3, 4], i0=0, j0=5)
    assert apply_word(c4k, w, c4k.make({0: g})) == c4k.make(
        {c: g for c in range(5)}
    )
    g2 = c4k.group.index_of_name("g2")
    assert apply_word(c4k, w, c4k.make({0: g2})) == c4k.make(
        {c: g2 for c in range(5)}
    )
    # I may be any iterable, read once
    assert alpha_word(c4k, iter([1, 2, 3, 4]), i0=0, j0=5) == w


def test_alpha_word_two_blocks(c2k):
    g = 1
    w = alpha_word(c2k, [2, 3, 4, 5], i0=0, j0=1)
    assert apply_word(c2k, w, c2k.make({0: g})) == c2k.make(
        {0: g, 2: g, 3: g, 4: g, 5: g}
    )


def test_alpha_word_is_automorphism(c2k):
    w = alpha_word(c2k, [2, 3], i0=0, j0=1)
    r = verify_automorphism(c2k, w, 4)
    assert r.ok and r.exhaustive


def test_alpha_word_validation(c4k):
    with pytest.raises(InputError):
        alpha_word(c4k, [1, 2, 3], i0=0, j0=5)  # exponent must divide |I|
    with pytest.raises(InputError):
        alpha_word(c4k, [1, 2, 3, 4], i0=1, j0=5)
    with pytest.raises(InputError):
        alpha_word(c4k, [1, 2, 3, 4], i0=0, j0=0)


# -- verification -----------------------------------------------------------


def test_verify_rejects_out_of_range_word(c4k):
    with pytest.raises(InputError):
        verify_automorphism(c4k, word(Perm.from_mapping({0: 6, 6: 0})), 4)


def test_verify_sampled_path(q8k):
    # level 4: 512 elements, 512^2 pairs exceeds the pair budget
    w = word(Perm.from_cycles([[0, 1, 2]]))
    r = verify_automorphism(q8k, w, 4, sample_pairs=500, rng=random.Random(5))
    assert r.ok and not r.exhaustive and r.pairs_checked == 500


@pytest.mark.parametrize(
    "level, budget, exhaustive, checked",
    [
        (7, {}, True, 65536),
        (2, {"sample_pairs": 63}, False, 63),
        (2, {"sample_pairs": 64}, True, 64),
    ],
    ids=["C4-level-7-default", "C4-level-2-below", "C4-level-2-at"],
)
def test_verify_pair_budget(c4k, level, budget, exhaustive, checked):
    # every pair exactly when size^2 <= sample_pairs: C4 level 7 has 256
    # cosets (65 536 pairs <= 100 000), level 2 has 8 (64 pairs)
    r = verify_automorphism(c4k, word(), level, rng=random.Random(3), **budget)
    assert r.ok and (r.exhaustive, r.pairs_checked) == (exhaustive, checked)


def test_double_beta_star_is_identity_word(c4k):
    bs = BetaStar(tuple(range(6)))
    w = word(bs, bs)
    for x in brute_cosets(c4k, 6):
        assert apply_word(c4k, w, x) == x


# -- verification failures ----------------------------------------------------


def _fake_word(monkeypatch, ctx, table):
    """Make verify_automorphism see the map x -> table.get(x, x), as a
    table on enumeration indices."""
    monkeypatch.setattr(
        automorphisms,
        "level_images",
        lambda _ctx, _w, n: [table.get(i, i) for i in range(ctx.level_size(n))],
    )


def _two_non_identity(ctx, level):
    domain = list(range(ctx.gamma_n_order(level)))
    a, b = [x for x in domain if x != ctx.identity][:2]
    return domain, a, b


@pytest.mark.parametrize("name, level, exhaustive", [("C4", 2, True), ("Q8", 4, False)])
def test_verify_reports_non_homomorphism(monkeypatch, name, level, exhaustive):
    # swapping two non-identity elements is a bijection but, in a group of
    # more than four elements, never a homomorphism
    ctx = make_ctx(name)
    domain, a, b = _two_non_identity(ctx, level)
    swap = {a: b, b: a}
    _fake_word(monkeypatch, ctx, swap)
    r = verify_automorphism(ctx, word(), level, sample_pairs=5000, rng=random.Random(12))
    assert not r.ok and r.failure == "homomorphism law fails"
    assert r.exhaustive is exhaustive and r.size == len(domain)
    # the witness is the first failing pair in the order pairs are checked:
    # x-major over the domain in index order, or each index drawn as
    # rng.randrange(size)
    if exhaustive:
        pairs = [(x, y) for x in domain for y in domain]
    else:
        rng, size = random.Random(12), len(domain)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(5000)]
    first = next(
        (i, (x, y)) for i, (x, y) in enumerate(pairs)
        if swap.get(ctx.multiply(x, y), ctx.multiply(x, y))
        != ctx.multiply(swap.get(x, x), swap.get(y, y))
    )
    assert (r.pairs_checked, r.witness) == first
    assert first[0] > 0


def test_verify_sampled_failure_is_pinned(monkeypatch):
    # the Q8 case above, as literal values: the sixth drawn pair fails
    ctx = make_ctx("Q8")
    _, a, b = _two_non_identity(ctx, 4)
    _fake_word(monkeypatch, ctx, {a: b, b: a})
    r = verify_automorphism(ctx, word(), 4, sample_pairs=5000, rng=random.Random(12))
    assert (r.pairs_checked, r.witness) == (5, (233, 1))


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 100, 8192, 32768, 100_003, 131_072])
def test_sampled_pairs_are_the_randrange_draws(monkeypatch, size):
    # the pairs verify_automorphism checks, and the rng's state after them,
    # are those of drawing each index by rng.randrange(size); the budget
    # stays below size^2, so that the pairs are drawn, not enumerated
    def randrange_pairs(count):
        rng = random.Random(size)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]
        return pairs, rng.getstate()

    rng = random.Random(size)
    drawn = list(automorphisms._sampled_pairs(rng, size, 1500))
    assert (drawn, rng.getstate()) == randrange_pairs(1500)
    # identity images and a stand-in law that records its arguments and
    # returns 0, so every pair passes
    monkeypatch.setattr(automorphisms, "level_images", lambda _ctx, _w, _n: list(range(size)))
    calls = []

    def record(a, b):
        calls.append((a, b))
        return 0

    ctx = SimpleNamespace(level_law=lambda _n, _evaluations: record)
    budget, rng = min(1500, size * size - 1), random.Random(size)
    r = verify_automorphism(ctx, word(), 1, sample_pairs=budget, rng=rng)
    assert r.ok and not r.exhaustive and r.pairs_checked == budget
    assert (calls[::2], rng.getstate()) == randrange_pairs(budget)


@pytest.mark.parametrize("level, builds", [(7, True), (8, False)])
def test_verify_builds_level_tables_only_when_they_pay(monkeypatch, level, builds):
    # Q8 level 7's tables have 98 304 entries, fewer than the 200 000
    # evaluations of a 100 000-pair check; level 8's have 589 824, so its
    # check keeps the index law and builds none
    ctx, built = make_ctx("Q8"), []
    build = ctx.level_tables
    monkeypatch.setattr(ctx, "level_tables", lambda n: built.append(n) or build(n))
    r = verify_automorphism(ctx, word(), level, rng=random.Random(0))
    assert r.ok and r.pairs_checked == 100_000 and not r.exhaustive
    assert built == ([level] if builds else [])


def test_verify_reads_the_level_tables(monkeypatch):
    # one wrong entry of C4 level 4's low table, the product of index 2 (g
    # at coordinate 0) with itself, fails the law under a transposition that
    # moves coordinate 0 to 3, above the split: the images' product reads
    # the high table and another low entry
    ctx, swap = make_ctx("C4"), word(Perm.from_cycles([[0, 3]]))
    assert verify_automorphism(ctx, swap, 4).ok
    high, low = ctx.level_tables(4)
    low_size = len(ctx.k_list) * len(ctx.minima) ** 2  # the indices below coordinate 2
    low[(2 * low_size + 2) * len(ctx.k_list)] += 1
    monkeypatch.setattr(ctx, "level_tables", lambda _n: (high, low))
    r = verify_automorphism(ctx, swap, 4)
    assert (r.ok, r.failure, r.witness) == (False, "homomorphism law fails", (2, 2))


@pytest.mark.parametrize("name, level", [("C4", 2), ("Q8", 4)])
def test_verify_reports_non_injective(monkeypatch, name, level):
    ctx = make_ctx(name)
    _, a, b = _two_non_identity(ctx, level)
    _fake_word(monkeypatch, ctx, {a: b})
    r = verify_automorphism(ctx, word(), level, rng=random.Random(12))
    assert (r.ok, r.failure, r.pairs_checked, r.witness) == (False, "not injective", 0, None)


def test_verify_reports_escaping_image(monkeypatch, c4k):
    _, a, _ = _two_non_identity(c4k, 2)
    far = c4k.make({2: c4k.group.index_of_name("g")})
    _fake_word(monkeypatch, c4k, {a: far})
    r = verify_automorphism(c4k, word(), 2)
    assert (r.ok, r.failure, r.witness) == (False, "image escapes level", (a, far))

import json
import random
from pathlib import Path

import pytest

from azenum import az
from azenum.automorphisms import apply_word
from azenum.az import (
    BetaMap,
    TupleFamily,
    apply_beta,
    beta_as_word,
    beta_images,
    beta_level_images,
    build_beta,
    letter_word,
    min_word_levels,
    normalize_family,
    run_az,
)
from azenum.central_product import MAX_COSETS, CPContext, parse_support
from azenum.errors import InputError, InsufficientFamilyError
from azenum.groups import catalog_group, catalog_names, make_kgroup
from oracles import (
    brute_cosets,
    brute_minimum,
    oracle_apply_beta,
    oracle_group,
    random_az_family,
)


def make_ctx(name):
    table, analysis, default_k = catalog_group(name)
    return CPContext(make_kgroup(table, analysis, default_k))


@pytest.fixture(scope="module")
def c4k():
    return make_ctx("C4")


@pytest.fixture(scope="module")
def q8k():
    return make_ctx("Q8")


def c4_example_family(ctx):
    g = ctx.group.index_of_name("g")
    short = (ctx.make({0: g}),)
    long = (ctx.make({c: g for c in range(5)}),)
    return TupleFamily(ctx, 1, [short, long])


# -- letter words and normalization ------------------------------------------


def test_letter_word(c4k):
    g = c4k.group.index_of_name("g")
    member = (c4k.make({0: g, 2: g}), c4k.make({1: g}))
    word = letter_word(c4k, member)
    e = c4k.group.identity_index
    assert word.letters == ((g, e), (e, g), (g, e))
    assert letter_word(c4k, (c4k.identity, c4k.identity)).letters == ()


def test_normalize_c4_example(c4k):
    nf = normalize_family(c4_example_family(c4k))
    assert nf.kept == (0, 1)
    assert len(nf.alphabet) == 1


def test_normalize_rejects_bad_residues(c4k):
    g = c4k.group.index_of_name("g")
    fam = TupleFamily(
        c4k, 1, [(c4k.make({0: g}),), (c4k.make({0: g, 1: g}),)]
    )
    with pytest.raises(InsufficientFamilyError):
        normalize_family(fam)


def test_normalize_identical_members(q8k):
    i = q8k.group.index_of_name("i")
    member = (q8k.make({0: i, 3: i}),)
    nf = normalize_family(TupleFamily(q8k, 1, [member, member]))
    assert nf.kept == (0, 1)


def test_normalize_needs_two_members(q8k):
    with pytest.raises(InsufficientFamilyError):
        normalize_family(TupleFamily(q8k, 1, [(q8k.identity,)]))


# -- the shift-and-copy map --------------------------------------------------


def test_build_beta_c4_example(c4k):
    bm = build_beta(normalize_family(c4_example_family(c4k)))
    assert (bm.i, bm.j) == (0, 1)
    assert bm.f.image == (4,)
    letter = bm.word_i.letters[0]
    assert bm.i_s[letter] == 4
    assert bm.I_s[letter] == (0, 1, 2, 3)
    assert (bm.l_i, bm.l_j) == (0, 4)


def test_build_beta_without_strongly_embedded_pair(c4k):
    # the C4 example in reverse order: both words share a bucket, but the
    # longer one comes first and embeds in no later word
    g = c4k.group.index_of_name("g")
    fam = TupleFamily(c4k, 1, [(c4k.make({c: g for c in range(5)}),), (c4k.make({0: g}),)])
    nf = normalize_family(fam)
    assert nf.kept == (0, 1)
    with pytest.raises(InsufficientFamilyError, match="no strongly embedded pair"):
        build_beta(nf)


def test_build_beta_identical_members(q8k):
    i = q8k.group.index_of_name("i")
    member = (q8k.make({0: i, 2: i}),)
    bm = build_beta(normalize_family(TupleFamily(q8k, 1, [member, member])))
    assert bm.f.image == (0, 1, 2)
    assert all(not off for off in bm.I_s.values())


def test_build_beta_divisibility(q8k):
    rng = random.Random(40)
    for _ in range(15):
        fam = random_az_family(q8k, rng, 2, 10)
        bm = build_beta(normalize_family(fam))
        assert all(len(off) % q8k.exponent == 0 for off in bm.I_s.values())


def test_apply_beta_c4_fanout(c4k):
    bm = build_beta(normalize_family(c4_example_family(c4k)))
    for h in range(c4k.group.order):
        assert apply_beta(bm, c4k.make({0: h})) == c4k.make(
            {c: h for c in range(5)}
        )


def test_apply_beta_tail_shift(c4k):
    bm = build_beta(normalize_family(c4_example_family(c4k)))
    g = c4k.group.index_of_name("g")
    # shift = l_j - l_i = 4
    assert apply_beta(bm, c4k.make({7: g})) == c4k.make({11: g})
    assert apply_beta(bm, c4k.identity) == c4k.identity


def test_apply_beta_maps_member_i_to_member_j(q8k):
    rng = random.Random(41)
    for _ in range(10):
        fam = random_az_family(q8k, rng, 3, 11)
        bm = build_beta(normalize_family(fam))
        for a, b in zip(bm.member_i, bm.member_j):
            assert apply_beta(bm, a) == b


def test_apply_beta_homomorphism_and_injective(q8k):
    rng = random.Random(42)
    fam = random_az_family(q8k, rng, 2, 10)
    bm = build_beta(normalize_family(fam))
    seen = {}
    for _ in range(200):
        x = q8k.make(
            {c: rng.randrange(8) for c in rng.sample(range(8), rng.randint(0, 3))}
        )
        y = q8k.make(
            {c: rng.randrange(8) for c in rng.sample(range(8), rng.randint(0, 3))}
        )
        assert apply_beta(bm, q8k.multiply(x, y)) == q8k.multiply(
            apply_beta(bm, x), apply_beta(bm, y)
        )
        bx = apply_beta(bm, x)
        assert seen.setdefault(bx, x) == x  # no collisions
        seen[bx] = x


def _beta_families():
    """(name, BetaMap) for the C4 example family, seeded Q8 families, and
    C6 over K = {1, g^3}, whose ladders' K factors do not cancel (a missing
    K fold shows there and on no catalog group)."""
    out = [("C4-example", build_beta(normalize_family(c4_example_family(make_ctx("C4")))))]
    ctx = make_ctx("Q8")
    rng = random.Random("Q8-make_kgroup")
    for n in range(3):
        fam = random_az_family(ctx, rng, rng.randint(1, 3), 9)
        out.append((f"Q8-make_kgroup-{n}", build_beta(normalize_family(fam))))
    ctx = CPContext(make_kgroup(*oracle_group("C6")))
    rng = random.Random("C6")
    for n in range(2):
        fam = random_az_family(ctx, rng, 2, 9)
        out.append((f"C6-{n}", build_beta(normalize_family(fam))))
    return out


BETA_FAMILIES = _beta_families()


@pytest.mark.parametrize("name, bm", BETA_FAMILIES, ids=[name for name, _ in BETA_FAMILIES])
def test_beta_index_map_matches_element_oracle(name, bm):
    # every index of Γ_{≤min(l'+1, 5)}, and seeded indices with digits far
    # above l_i: the index map agrees with the element map normalised by make
    ctx = bm.ctx
    level = min(min_word_levels(bm)[1] + 1, 5)
    rng = random.Random(name)
    far = [rng.randrange(ctx.gamma_n_order(bm.l_i + 40)) for _ in range(200)]
    xs = [*range(ctx.gamma_n_order(level + 1)), *far]
    for i, image in zip(xs, beta_images(bm, xs)):
        assert image == oracle_apply_beta(bm, i), i


# -- realization as a word ---------------------------------------------------


def test_beta_as_word_c4_example(c4k):
    bm = build_beta(normalize_family(c4_example_family(c4k)))
    word = beta_as_word(bm, 12, 6)
    for coord in range(7):
        for h in range(c4k.group.order):
            x = c4k.make({coord: h})
            assert apply_word(c4k, word, x) == apply_beta(bm, x)


def test_beta_as_word_scope_bound(c4k):
    # outside the contracted support range the word may disagree
    bm = build_beta(normalize_family(c4_example_family(c4k)))
    word = beta_as_word(bm, 12, 6)
    g = c4k.group.index_of_name("g")
    disagreements = sum(
        1
        for coord in range(7, 13)
        if apply_word(c4k, word, c4k.make({coord: g}))
        != apply_beta(bm, c4k.make({coord: g}))
    )
    assert disagreements > 0


def test_beta_as_word_rejects_small_levels(c4k):
    bm = build_beta(normalize_family(c4_example_family(c4k)))
    l_min, lp_min = min_word_levels(bm)
    with pytest.raises(InputError) as err:
        beta_as_word(bm, 5, 4)
    assert str((l_min, lp_min)) in str(err.value)
    # the advertised minimum is accepted
    beta_as_word(bm, l_min, lp_min)


def test_beta_as_word_identity_case(q8k):
    i = q8k.group.index_of_name("i")
    member = (q8k.make({0: i, 1: i}),)
    bm = build_beta(normalize_family(TupleFamily(q8k, 1, [member, member])))
    word = beta_as_word(bm, *min_word_levels(bm))
    # no off-image positions: a pure permutation suffices
    assert all(not hasattr(gen, "coords") for gen in word.gens)
    for coord in range(3):
        x = q8k.make({coord: i})
        assert apply_word(q8k, word, x) == x


# -- end-to-end ---------------------------------------------------------------


def test_run_az_c4_example(c4k):
    cert = run_az(c4_example_family(c4k), depth=100)
    assert cert.ok
    assert cert.f == (4,)
    assert cert.failures == []
    assert all(r.get("of") is not None for r in cert.reports.values())


def test_run_az_identical_tuples(q8k):
    i = q8k.group.index_of_name("i")
    member = (q8k.make({0: i, 2: i}), q8k.make({1: i}))
    cert = run_az(TupleFamily(q8k, 2, [member, member]), depth=50)
    assert cert.ok


def test_run_az_random_q8_families(q8k):
    rng = random.Random(43)
    for _ in range(5):
        fam = random_az_family(q8k, rng, 4, 12)
        cert = run_az(fam, depth=60, seed=rng.randrange(10**6))
        assert cert.ok, cert.failures


def test_run_az_insufficient_family(c4k):
    g = c4k.group.index_of_name("g")
    fam = TupleFamily(c4k, 1, [(c4k.make({0: g}),), (c4k.make({0: g, 1: g}),)])
    with pytest.raises(InsufficientFamilyError):
        run_az(fam)


def test_run_az_flags_incompatible_element_order():
    # an order that ranks K multiples differently across cosets (C4 as
    # 1, g, g2, g3) breaks the lemma's (ii): {0:g} < {0:g2}, yet g2 is
    # central and fixed while {0:g} fans out to higher support. The element
    # order is coset-major, so C4 and D4 rank t·k by t, then by k in K, and
    # the family that such an order fails on passes here
    for name, expected in [("C4", "1 g2 g g3"), ("D4", "1 r2 r r3 s r2s rs r3s")]:
        kg = make_kgroup(*catalog_group(name))
        assert " ".join(kg.group.element_names[v] for v in kg.element_order) == expected
        mul = kg.group.mul
        assert kg.element_order == tuple(mul[t][k] for t in kg.transversal for k in kg.k_subgroup)
    ctx = make_ctx("C4")
    g = ctx.group.index_of_name("g")
    fam = TupleFamily(
        ctx, 1, [(ctx.make({0: g}),), (ctx.make({c: g for c in range(5)}),)]
    )
    cert = run_az(fam, depth=50)
    assert cert.ok, cert.failures


def test_certificate_json_deterministic(c4k):
    doc1 = run_az(c4_example_family(c4k), depth=50).to_json()
    doc2 = run_az(c4_example_family(c4k), depth=50).to_json()
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert doc1["ok"] is True


# -- the order claim ----------------------------------------------------------


def swap_top_plan_entries(bm):
    """bm with the targets of its two highest witness positions swapped."""
    fields = {f: getattr(bm, f) for f in bm._fields}
    return BetaMap(**{**fields, "plan": bm.plan[:-2] + (bm.plan[-1], bm.plan[-2])})


@pytest.mark.parametrize(
    "name, depth, level", [("C4", 500, 7), ("Q8", 500, 3), ("C4", 32, 3), ("C4", 33, 4)]
)
def test_run_az_order_claim_covers_whole_level(name, depth, level):
    # the prefix rounds up to the whole level Γ_{≤L} holding `depth` elements
    ctx = make_ctx(name)
    member = (ctx.make({0: ctx.minima[1], 1: ctx.minima[1]}),)
    cert = run_az(TupleFamily(ctx, 1, [member, member]), depth=depth)
    assert cert.ok
    report = cert.reports["order_preservation"]
    assert report["level"] == level
    assert report["of"] >= ctx.gamma_n_order(level + 1) - 1 >= depth - 1


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
# the whole level checked per group: Q8 level 5 and C4 level 8 hold 2 048
# and 512 indices
GOLDEN_LEVELS = {"Q8": 5, "C4": 8}
GOLDEN_FAMILIES = [f"az_Q8_{n}" for n in range(1, 5)] + [f"az_C4_{n}" for n in range(1, 4)]


def golden_family(name):
    """The golden tuple file `name`, read as `az run` reads it."""
    ctx = make_ctx(name.split("_")[1])
    lines = (GOLDEN_INPUTS / f"{name}.txt").read_text().split()
    members = [tuple(parse_support(ctx, part) for part in line.split(";")) for line in lines]
    return TupleFamily(ctx, len(members[0]), members)


@pytest.mark.parametrize("name", GOLDEN_FAMILIES)
def test_beta_increases_on_whole_level_of_golden_family(name):
    # β of each golden family strictly increases over a whole level, and
    # every image is the element oracle's
    fam = golden_family(name)
    ctx, bm = fam.ctx, build_beta(normalize_family(fam))
    size = ctx.level_size(GOLDEN_LEVELS[name.split("_")[1]])
    images = beta_images(bm, range(size))
    assert all(a < b for a, b in zip(images, images[1:]))
    assert images == [oracle_apply_beta(bm, i) for i in range(size)]


@pytest.mark.parametrize("name", catalog_names())
def test_beta_level_images_match_beta_index_map(name):
    # the order scan's images on every level of at most 2^11 indices, on
    # levels below l_i + 1 (the plan's weights only) and above it (the
    # shifted weights too)
    ctx = make_ctx(name)
    rng = random.Random(f"beta-level-images-{name}")
    above = set()
    for _ in range(8):
        bm = build_beta(normalize_family(random_az_family(ctx, rng, rng.randint(1, 3), 9)))
        for n in range(1, 12):
            if ctx.gamma_n_order(n) > 1 << 11:
                break
            assert beta_level_images(bm, n) == beta_images(bm, range(ctx.level_size(n)))
            above.add(n > bm.l_i + 1)
    assert above == {False, True}


@pytest.mark.parametrize("name", GOLDEN_FAMILIES)
def test_beta_level_images_of_golden_family(name):
    fam = golden_family(name)
    ctx, bm = fam.ctx, build_beta(normalize_family(fam))
    for n in range(1, GOLDEN_LEVELS[name.split("_")[1]] + 1):
        assert beta_level_images(bm, n) == beta_images(bm, range(ctx.level_size(n)))


def test_level_check_matches_all_pairs_on_c4_level_4():
    # β strictly increasing on the indices of the level-4 subgroup (support
    # below 4) exactly when it preserves the brute-force order on all pairs
    # of it; images reach coordinate 7 at most, within brute_minimum's width
    def key(ctx, x):
        rep, e = brute_minimum(ctx, x, width=8), ctx.group.identity_index
        return tuple(ctx.rank_of[rep.get(c, e)] for c in reversed(range(8)))

    outcomes = set()
    ctx = make_ctx("C4")
    rng = random.Random("C4")
    bms = [build_beta(normalize_family(c4_example_family(ctx)))]
    while len(bms) < 6:
        bm = build_beta(normalize_family(random_az_family(ctx, rng, 2, 6)))
        if bm.l_j <= 7 and 3 + bm.shift <= 7:
            bms.append(bm)
            if bm.l_i >= 1:
                bms.append(swap_top_plan_entries(bm))
    for bm in bms:
        images = beta_images(bm, range(ctx.level_size(4)))
        consecutive = all(a < b for a, b in zip(images, images[1:]))
        domain = brute_cosets(ctx, 4)
        keys = {x: key(ctx, x) for x in domain}
        image_keys = {x: key(ctx, oracle_apply_beta(bm, x)) for x in domain}
        all_pairs = all(
            image_keys[x] < image_keys[y]
            for x in domain
            for y in domain
            if keys[x] < keys[y]
        )
        assert consecutive == all_pairs
        outcomes.add(consecutive)
    assert outcomes == {True, False}


def test_swapped_images_in_the_level_fail_order_preservation(c4k, monkeypatch):
    # the scan reads the level's images from beta_level_images alone
    real = az.beta_level_images

    def swapped(bm, n):
        images = real(bm, n)
        images[5], images[9] = images[9], images[5]
        return images

    assert run_az(c4_example_family(c4k), depth=100).ok
    monkeypatch.setattr(az, "beta_level_images", swapped)
    cert = run_az(c4_example_family(c4k), depth=100)
    assert cert.reports["order_preservation"]["level"] == 5
    assert "order_preservation" in cert.failures


def test_word_wrong_at_one_singleton_fails_word_agreement(c4k, monkeypatch):
    # word agreement checks every singleton within l', K factor included: a
    # word whose index map is off only at g3 = g·g2 on coordinate l' fails it
    fam = c4_example_family(c4k)
    cert = run_az(fam, depth=100)
    assert cert.ok
    bad = c4k.make({cert.levels[1]: c4k.group.index_of_name("g3")})
    real = az.index_images

    def off_at_bad(ctx, word, indices):
        indices = list(indices)
        return [j + (i == bad) for i, j in zip(indices, real(ctx, word, indices))]

    monkeypatch.setattr(az, "index_images", off_at_bad)
    cert = run_az(fam, depth=100)
    report = cert.reports["word_agreement"]
    assert cert.failures == ["word_agreement"]
    assert report["agree"] == report["of"] - 1


@pytest.mark.parametrize("name", ["Q8", "C6"])
def test_word_agreement_draws_are_the_randrange_draws(name, monkeypatch):
    # the last 50 indices word agreement checks are t = randrange(l' + 1)
    # and then randrange(|Γ_{≤t}|), drawn 50 times from random.Random(seed);
    # the certificate holds only counts, so the golden corpus cannot see the
    # stream. C6 over K = {1, g^3} has r = 3, so no level size 2·3^(t+1) is
    # a power of two and the rejection loops redraw
    ctx = CPContext(make_kgroup(*oracle_group(name)))
    fam = random_az_family(ctx, random.Random(f"draws-{name}"), 2, 9)
    real, seen = az.index_images, []

    def record(ctx, word, indices):
        seen.append(list(indices))
        return real(ctx, word, seen[-1])

    monkeypatch.setattr(az, "index_images", record)
    for seed in (1, 2, 3):
        cert = run_az(fam, depth=60, seed=seed)
        assert cert.ok, cert.failures
        rng, top = random.Random(seed), cert.levels[1] + 1
        expected = [rng.randrange(ctx.gamma_n_order(rng.randrange(top) + 1)) for _ in range(50)]
        [xs] = seen
        assert xs[-50:] == expected
        assert len(xs) == top * ctx.group.order + 50
        seen.clear()
    if name == "C6":
        assert all(n & (n - 1) for n in map(ctx.gamma_n_order, range(1, top + 1)))


def test_swapped_witness_positions_fail_order_preservation(q8k, monkeypatch):
    # the level check covers Γ_{≤3} only, so with l_i >= 4 the decision on
    # the plan must catch a β whose two highest witness positions are swapped
    rng = random.Random(44)
    families = []
    while len(families) < 40:
        fam = random_az_family(q8k, rng, 2, 12)
        if build_beta(normalize_family(fam)).l_i >= 4:
            families.append(fam)
    real = az.build_beta
    monkeypatch.setattr(az, "build_beta", lambda nf: swap_top_plan_entries(real(nf)))
    for n, fam in enumerate(families):
        cert = run_az(fam, depth=500, seed=n)
        assert cert.reports["order_preservation"]["level"] == 3
        assert "order_preservation" in cert.failures, n


# -- the exact decision against the range(B) oracle ---------------------------


def order_claim_outcomes(monkeypatch, families):
    """For each family's β, and again with its two highest plan entries
    swapped: run_az at depth 1, whose prefix level is only Γ_{≤0}, flags
    order preservation exactly when the oracle, the whole low block range(B)
    with B = |Γ_{≤l_i}|, finds β not strictly increasing. Returns the
    oracle's outcomes."""
    outcomes = set()
    for fam in families:
        bm = build_beta(normalize_family(fam))
        for variant in [bm, swap_top_plan_entries(bm)] if len(bm.plan) > 1 else [bm]:
            size = fam.ctx.gamma_n_order(variant.l_i + 1)
            assert size <= MAX_COSETS
            images = beta_images(variant, range(size))
            increasing = all(a < b for a, b in zip(images, images[1:]))
            monkeypatch.setattr(az, "build_beta", lambda nf, bm=variant: bm)
            failures = run_az(fam, depth=1).failures
            assert ("order_preservation" in failures) == (not increasing), variant.plan
            outcomes.add(increasing)
    return outcomes


@pytest.mark.parametrize("name", catalog_names(), ids=lambda name: f"{name}-make_kgroup")
def test_order_claim_is_exact_on_seeded_families(name, monkeypatch):
    ctx = make_ctx(name)
    rng = random.Random(f"{name}-make_kgroup")
    families = [random_az_family(ctx, rng, rng.randint(1, 3), 9) for _ in range(20)]
    outcomes = order_claim_outcomes(monkeypatch, families)
    # with K < G some swapped β fails; with K = G every word has at most one
    # letter, so nothing is swapped and β is the identity on Γ = Γ_{≤0}
    assert (False in outcomes) == (len(ctx.minima) > 1)


def test_order_claim_is_exact_on_golden_families(monkeypatch):
    families = [golden_family(name) for name in GOLDEN_FAMILIES]
    assert order_claim_outcomes(monkeypatch, families) == {True, False}

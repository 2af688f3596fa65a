"""End-to-end acceptance gate: seven desk-scale criteria, one summary line
printed per criterion (visible on the live terminal even under capture)."""

import random
import time
from itertools import islice, product

import pytest

from azenum.automorphisms import AutWord, BetaStar, apply_beta_star, apply_word
from azenum.az import TupleFamily, build_beta, normalize_family, run_az
from azenum.central_product import CPContext
from azenum.groups import (
    catalog_group,
    catalog_names,
    is_class_csw,
    make_kgroup,
)
from azenum.quadratic import free_amalgam, group_from_qs, is_nondegenerate, qs_from_group
from azenum.rado import (
    adjacent,
    build_triples,
    check_obstruction,
    is_induced_cycle,
    neighborhood_in_prefix,
)
from azenum.wqo import (
    Word,
    column_word,
    decode_column_embedding,
    find_increasing_pair,
    is_star_embedded,
    is_subword,
)
from oracles import (
    brute_cosets,
    brute_star,
    coset_members,
    find_isomorphism,
    is_injective_morphism,
    oracle_apply_beta,
    random_az_family,
    random_qs_extension,
    star_subwords,
)

from itertools import combinations


def _run(capsys, number, label, limit, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    with capsys.disabled():
        print(
            f"acceptance {number} ({label}): "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
        )
    assert ok, f"runtime {elapsed:.1f}s exceeds the {limit}s budget"


# -- 1: group <-> quadratic structure round trip ------------------------------


def test_criterion_1_round_trip(capsys):
    def body():
        for name in catalog_names():
            table, analysis, _ = catalog_group(name)
            if not is_class_csw(analysis) or table.order > 32:
                continue
            rebuilt, _ = group_from_qs(qs_from_group(table, analysis))
            assert find_isomorphism(table, rebuilt) is not None, name

    _run(capsys, 1, "correspondence round trip", 60, body)


# -- 2: free amalgams ---------------------------------------------------------


def test_criterion_2_free_amalgam(capsys):
    def body():
        rng = random.Random(101)
        for trial in range(100):
            from oracles import random_nondegenerate_qs

            du0 = rng.randint(0, 2)
            qs0 = random_nondegenerate_qs(
                rng, du0, rng.randint(1 if du0 else 0, 2)
            )
            qs1 = random_qs_extension(
                rng, qs0, rng.randint(0, 4 - qs0.dim_u), rng.randint(0, 2)
            )
            qs2 = random_qs_extension(
                rng, qs0, rng.randint(0, 4 - qs0.dim_u), rng.randint(0, 2)
            )
            result = free_amalgam(qs0, qs1, qs2)
            assert is_injective_morphism(qs1, result.qs, result.emb1), trial
            assert is_injective_morphism(qs2, result.qs, result.emb2), trial
            assert is_nondegenerate(result.qs), trial
            assert result.qs.dim_v == (
                qs1.dim_v
                + qs2.dim_v
                - qs0.dim_v
                + (qs1.dim_u - qs0.dim_u) * (qs2.dim_u - qs0.dim_u)
            ), trial

    _run(capsys, 2, "free amalgam restriction + dimension", 60, body)


# -- 3: window ladder properties ----------------------------------------------


def _default_ctx(name):
    table, analysis, k = catalog_group(name)
    return CPContext(make_kgroup(table, analysis, k))


def test_criterion_3_window_ladder(capsys):
    def body():
        window = BetaStar((0, 1, 2, 3, 4, 5))

        ctx = _default_ctx("C4")
        elems = brute_cosets(ctx, 6)
        assert len(elems) == 128
        images = {x: apply_beta_star(ctx, window, x) for x in elems}
        for x in elems:
            assert apply_beta_star(ctx, window, images[x]) == x  # self-inverse
        for k in ctx.k_list:
            assert images[ctx.make({0: k})] == ctx.make({0: k})
        checked = 0
        for x in elems:
            for y in elems:
                prod = ctx.multiply(x, y)
                assert images[prod] == ctx.multiply(images[x], images[y])
                checked += 1
        assert checked == 16384

        ctx = _default_ctx("Q8")
        elems = brute_cosets(ctx, 6)
        assert len(elems) == 8192
        images = {x: apply_beta_star(ctx, window, x) for x in elems}
        for x in elems:
            assert apply_beta_star(ctx, window, images[x]) == x
        for k in ctx.k_list:
            assert images[ctx.make({0: k})] == ctx.make({0: k})
        rng = random.Random(103)
        for _ in range(100_000):
            x = elems[rng.randrange(8192)]
            y = elems[rng.randrange(8192)]
            prod = ctx.multiply(x, y)
            assert images[prod] == ctx.multiply(images[x], images[y])

    _run(capsys, 3, "window ladder exhaustive + sampled", 120, body)


# -- 4: enumeration against brute force ---------------------------------------


def _brute_key(ctx, x, width):
    e = ctx.group.identity_index
    best = None
    for rep in coset_members(ctx, x, width):
        key = tuple(
            ctx.rank_of[rep.get(c, e)] for c in reversed(range(width))
        )
        if best is None or key < best[0]:
            best = (key, rep)
    return best


def test_criterion_4_enumeration(capsys):
    def body():
        ctx = _default_ctx("C4")
        # |level-n subgroup| = |G|^n / |K|^(n-1): 8 at level 2, 16 at level 3
        for n, count in ((2, 8), (3, 16)):
            cosets = brute_cosets(ctx, n)
            assert len(cosets) == count == ctx.gamma_n_order(n)
            brute_sorted = sorted(
                cosets, key=lambda x: _brute_key(ctx, x, n)[0]
            )
            assert ctx.enumerate(count) == brute_sorted
        for x in brute_cosets(ctx, 3):
            greedy = dict(ctx.minimal_representative(x))
            assert greedy == _brute_key(ctx, x, 3)[1]

    _run(capsys, 4, "enumeration + greedy minimum vs brute force", 60, body)


# -- 5: strong embedding decisions --------------------------------------------


def _subsequences(letters):
    """Every distinct subsequence, built from the right: those of the
    suffix, with and without the next letter in front."""
    found = {()}
    for letter in reversed(letters):
        found |= {(letter, *w) for w in found}
    return found


def test_criterion_5_wqo(capsys):
    def body():
        alphabet = ("a", "b", "c")

        # exhaustive: every w2 up to length 8, every distinct subsequence w1
        # (a w1 that is not a subsequence cannot embed in either sense),
        # against w2's strong subwords from one search from the right (itself
        # checked against brute_star up to length 6 in test_wqo)
        for length in range(1, 9):
            for w2_letters in product(alphabet, repeat=length):
                w2 = Word(w2_letters)
                strong = star_subwords(w2)
                for w1_letters in _subsequences(w2_letters):
                    w1 = Word(w1_letters)
                    got = is_star_embedded(w1, w2)
                    assert (got is not None) == (w1_letters in strong), (w1, w2)
                    if got is not None:
                        assert got.is_star_witness(w1, w2)

        # random larger pairs, including non-subsequences
        rng = random.Random(105)
        for _ in range(10_000):
            w2 = Word(
                tuple(rng.choice(alphabet) for _ in range(rng.randint(9, 13)))
            )
            w1 = Word(
                tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            )
            got = is_star_embedded(w1, w2)
            assert (got is None) == (brute_star(w1, w2) is None), (w1, w2)

        # random streams terminate early
        for run_idx in range(100):
            stream_rng = random.Random(1000 + run_idx)

            def stream():
                while True:
                    yield Word(
                        tuple(
                            stream_rng.choice(alphabet)
                            for _ in range(stream_rng.randint(1, 6))
                        )
                    )

            result = find_increasing_pair(islice(stream(), 10_000), mode="star")
            assert result is not None, run_idx
            assert result.j < 1000, (run_idx, result.j)

        # decoded column-coding witnesses re-validate
        rng = random.Random(106)
        decoded = 0
        while decoded < 200:
            base = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            pump = []
            for _ in range(rng.randint(1, 3)):
                pump.extend([rng.choice(base)] * rng.randint(1, 3))
            w1, w2 = Word(base), Word(tuple(pump) + base)
            fprime = is_subword(column_word(w1), column_word(w2))
            if fprime is None:
                continue
            witness = decode_column_embedding(w1, w2, fprime)
            assert witness.is_star_witness(w1, w2)
            decoded += 1

    _run(capsys, 5, "strong embedding vs oracles + streams", 300, body)


# -- 6: end-to-end tuple pipeline ---------------------------------------------


def test_criterion_6_az_pipeline(capsys):
    def body():
        table, analysis, k = catalog_group("Q8")
        ctx = CPContext(make_kgroup(table, analysis, k))
        rng = random.Random(107)
        for trial in range(50):
            fam = random_az_family(ctx, rng, 4, 12)
            cert = run_az(fam, depth=500, seed=rng.randrange(10**6))
            assert cert.ok, (trial, cert.failures)

            # explicit word agreement on elements inside the contracted range
            bm = build_beta(normalize_family(fam))
            word = cert.word
            l, l_prime = cert.levels
            level = min(l_prime + 1, 4)
            for x in brute_cosets(ctx, level):
                assert apply_word(ctx, word, x) == oracle_apply_beta(bm, x), trial
            for _ in range(200):
                coords = rng.sample(
                    range(l_prime + 1), rng.randint(0, min(3, l_prime + 1))
                )
                x = ctx.make({c: rng.randrange(8) for c in coords})
                assert apply_word(ctx, word, x) == oracle_apply_beta(bm, x), trial

    _run(capsys, 6, "tuple pipeline end to end", 600, body)


# -- 7: adversary triples -----------------------------------------------------


def _oracle_n4():
    b = 4
    while True:
        cycles = [
            vs
            for vs in combinations(range(b + 1), 4)
            if b in vs and is_induced_cycle(vs) is not None
        ]
        if cycles:
            break
        b += 1
    c = b + 1
    while True:
        hood = neighborhood_in_prefix(c, b)
        if len(hood) == 4 and is_induced_cycle(sorted(hood)) is not None:
            return b, c
        c += 1


def test_criterion_7_adversary(capsys):
    def body():
        triples = build_triples(8)
        assert [t.n for t in triples] == [4, 5, 6, 7, 8]
        b4, c4 = _oracle_n4()
        assert (triples[0].b, triples[0].c) == (b4, c4) == (5, 39)
        report = check_obstruction(triples)
        assert report.ok
        assert report.violations == []

    _run(capsys, 7, "adversary triples + obstruction", 60, body)

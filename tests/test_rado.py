import random
from itertools import combinations, count, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azenum import rado
from azenum.errors import CapacityError, FalsificationError, InputError
from azenum.rado import (
    MAX_TRIPLES_N,
    Triple,
    _core_forests,
    _first_level,
    _least,
    _levels,
    _masks,
    _path_forests,
    adjacent,
    build_triples,
    check_obstruction,
    first_cycle_bound,
    is_induced_cycle,
    minimal_exact_vertex,
    neighborhood_in_prefix,
    triple_from_json,
)
from oracles import (
    rado_core_forests_scan,
    rado_dfs_levels,
    rado_induced_cycle,
    rado_level_masks,
    rado_obstruction_checks,
    rado_triples,
)


# -- adjacency ---------------------------------------------------------------


def test_adjacent_examples():
    assert adjacent(1, 3)
    assert not adjacent(0, 2)
    assert adjacent(3, 1) == adjacent(1, 3)
    with pytest.raises(InputError):
        adjacent(5, 5)


def test_adjacency_symmetric_random():
    rng = random.Random(50)
    for _ in range(200):
        u, v = rng.randrange(1000), rng.randrange(1000)
        if u != v:
            assert adjacent(u, v) == adjacent(v, u)


def test_extension_property():
    # 2^(p+1) + sum of 2^a is adjacent to all of A and none of B
    rng = random.Random(51)
    for _ in range(50):
        p = rng.randint(2, 20)
        pool = list(range(p + 1))
        rng.shuffle(pool)
        cut = rng.randint(0, p + 1)
        a_set, b_set = pool[:cut], pool[cut:]
        w = (1 << (p + 1)) + sum(1 << a for a in a_set)
        assert all(adjacent(w, a) for a in a_set)
        assert not any(adjacent(w, b) for b in b_set)


# -- cycles ------------------------------------------------------------------


def test_is_induced_cycle():
    assert is_induced_cycle([0, 1, 2, 5]) == (0, 1, 2, 5)
    assert is_induced_cycle([0, 1, 2, 3]) is None  # vertex 1 has degree 3
    assert is_induced_cycle([0, 1]) is None


def test_induced_cycle_matches_definition_random():
    rng = random.Random(52)
    for _ in range(300):
        vs = rng.sample(range(40), rng.randint(3, 6))
        got = is_induced_cycle(vs)
        n = len(vs)
        want = False
        for perm in _cycle_orders(vs):
            if all(
                adjacent(perm[i], perm[j]) == ((abs(i - j) == 1) or ({i, j} == {0, n - 1}))
                for i in range(n)
                for j in range(i + 1, n)
            ):
                want = True
                break
        assert (got is not None) == want


def _shuffled_cycles(rng):
    # induced n-cycles from the levels n - 1 to n + 98, n = 4..8, each
    # shuffled and every third one with a vertex repeated somewhere in the list
    for n in range(4, 9):
        for _, level in _levels_up_to(n, n + 98):
            masks = _masks(level)
            for mask in masks[:: max(1, len(masks) // 30)]:
                vs = [v for v in range(mask.bit_length()) if (mask >> v) & 1]
                rng.shuffle(vs)
                if rng.randrange(3) == 0:
                    vs.insert(rng.randrange(len(vs) + 1), rng.choice(vs))
                yield vs


def test_induced_cycle_matches_reference_copy():
    # the mask test returns the reference's tuple, direction included, on
    # shuffled cycles (with and without a repeat) and on random vertex lists
    rng = random.Random(53)
    cycles = list(_shuffled_cycles(rng))
    assert len(cycles) > 6000
    assert any(len(set(vs)) < len(vs) for vs in cycles)
    for vs in cycles:
        got = is_induced_cycle(vs)
        assert got is not None and got == rado_induced_cycle(vs), vs
    for _ in range(5000):
        vs = [rng.randrange(64) for _ in range(rng.randint(0, 8))]
        assert is_induced_cycle(vs) == rado_induced_cycle(vs), vs


# huge vertices: 2^4097 sees only 4097, and 2^4097 + 5 sees 0, 2 and 4097
HUGE = [1 << 4097, (1 << 4097) + 5, 4097]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_induced_cycle_matches_reference_on_huge_vertices(data):
    # a cycle from a first level, its maximum m maybe moved to m + 2^y for
    # a huge y (still an induced cycle, by the lemma), then maybe with
    # repeats, a chord or other small vertices, or huge ones mixed in, and
    # shuffled: the mask test returns the reference's tuple throughout
    n = data.draw(st.integers(4, 8), label="n")
    first, level = _first_level(n)
    masks = _masks(level)
    mask = masks[data.draw(st.integers(0, len(masks) - 1), label="mask")]
    vs = [v for v in range(mask.bit_length()) if mask >> v & 1]
    if data.draw(st.booleans(), label="move the maximum"):
        vs[-1] += 1 << data.draw(st.integers(first + 1, 4200), label="y")
    cycle = vs
    extra = data.draw(st.lists(st.integers(0, 90) | st.sampled_from(HUGE + cycle), max_size=3),
                      label="extra")
    vs = data.draw(st.permutations(cycle + extra), label="order")
    got = is_induced_cycle(vs)
    assert got == rado_induced_cycle(vs)
    if set(extra) <= set(cycle):  # only repeats: still the cycle
        assert got is not None and set(got) == set(cycle)


def _cycle_orders(vs):
    from itertools import permutations

    first = vs[0]
    for rest in permutations(vs[1:]):
        yield (first,) + rest


def _levels_up_to(n, top):
    """The levels that `_levels(n, n - 1)` yields, up to v = top."""
    return takewhile(lambda item: item[0] <= top, _levels(n, n - 1))


@pytest.mark.parametrize("n", range(4, 9))
def test_level_masks_match_oracle(n):
    # every level up to the first one holding an n-cycle and on to 130, so
    # that vertices with three or more bits (neighbours below) are covered,
    # and with them step candidates that share a key and ones that do not:
    # the levels yielded are exactly the oracle's non-empty ones, with its
    # masks, and every level skipped is empty in the oracle
    first, first_level = _first_level(n)
    assert _masks(first_level) == rado_level_masks(n, first)
    top = max(first, 130)
    oracle = {v: rado_level_masks(n, v) for v in range(n - 1, top + 1)}
    got = {}
    for v, level in _levels_up_to(n, top):
        got[v] = _masks(level)
        assert _least(level) == min(oracle[v])  # the least-mask lemma: each fit's lowest bit
    assert got == {v: masks for v, masks in oracle.items() if masks}
    assert all(not oracle[v] for v in oracle.keys() - got.keys())
    assert min(got) == first


@pytest.mark.parametrize("n", range(4, 9))
def test_levels_held_then_expanded_match_oracle(n):
    # levels n - 1 to L_n + 20 gathered first and expanded only afterwards:
    # a level the caller holds must not pick up the vertices that later
    # levels add to fits
    first, _ = _first_level(n)
    held = list(_levels_up_to(n, first + 20))
    expanded = {v: _masks(level) for v, level in held}
    oracle = {v: rado_level_masks(n, v) for v in range(n - 1, first + 21)}
    assert expanded == {v: masks for v, masks in oracle.items() if masks}


@pytest.mark.parametrize("n", range(4, 11))
def test_levels_match_path_search(n):
    # every level from n - 1 to the first one holding an n-cycle, against
    # the memoised path search over the whole prefix: only the first is
    # yielded, and the search finds every level before it empty
    first, _ = _first_level(n)
    reference = dict(zip(range(n - 1, first + 1), rado_dfs_levels(n, n - 1)))
    assert all(v == ref_v for v, (ref_v, _) in reference.items())
    got = {v: _masks(level) for v, level in _levels_up_to(n, first)}
    assert got == {v: masks for v, (_, masks) in reference.items() if masks}


@pytest.mark.parametrize("n", range(4, 13))
def test_core_forests_match_subset_scan(n):
    # the grown forests against a scan of all 2^core subsets of the core:
    # the same T, each once, with the same rings
    for core in range(11):
        forests = _core_forests(n, core)
        assert len({t for t, _ in forests}) == len(forests)
        assert dict(forests) == rado_core_forests_scan(n, core)


@pytest.mark.parametrize("core", range(1, 12))
def test_path_forests_are_hereditary(core):
    # each forest sits in the bucket of its |T| + k; each forest holding the
    # top vertex is, without it, a forest of the smaller core, and no two
    # share one; the others are exactly its forests, bucket by bucket
    x = core - 1
    forests, smaller = _path_forests(core), _path_forests(x)
    assert all(t.bit_count() + len(ends) == size
               for size, bucket in forests.items() for t, ends in bucket)
    for size, bucket in forests.items():
        assert [(t, ends) for t, ends in bucket if not t >> x & 1] == smaller.get(size, [])
    assert smaller.keys() <= forests.keys()
    below = {t for bucket in smaller.values() for t, _ in bucket}
    grown = [t for bucket in forests.values() for t, _ in bucket if t >> x & 1]
    assert all(t & ~(1 << x) in below for t in grown)
    assert len(set(grown)) == len(grown)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data())
def test_large_vertices_see_only_their_bits(data):
    # the search's lemma: within {0..v}, each u in [B, v] for B = v's bit
    # length has exactly its own bits as neighbours, so no two such u meet
    v = data.draw(st.integers(1, 1 << 12))
    core = v.bit_length()
    u, w = (data.draw(st.integers(core, v)) for _ in range(2))
    hood = {x for x in range(v + 1) if x != u and adjacent(u, x)}
    assert hood == {b for b in range(core) if (u >> b) & 1}
    assert u == w or not adjacent(u, w)


@pytest.mark.parametrize(
    "n, first, size, least",
    [(9, 272, 33024, [1, 3, 4, 5, 6, 8, 48, 96, 272]),
     (10, 144, 8192, [3, 4, 5, 6, 7, 48, 72, 96, 136, 144]),
     (11, 272, 24576, [3, 4, 5, 6, 7, 8, 80, 96, 136, 160, 272]),
     (12, 528, 24576, [3, 4, 5, 6, 7, 8, 9, 96, 144, 192, 288, 528])],
)
def test_first_level_pinned(n, first, size, least):
    # L_n, its mask count and its least cycle, as the path search found them
    level, product_form = _first_level(n)
    masks = _masks(product_form)
    assert (level, len(masks)) == (first, size)
    assert [u for u in range(level + 1) if (masks[0] >> u) & 1] == least


def test_first_level_n8_matches_oracle():
    # the levels themselves are compared in test_level_masks_match_oracle
    first, level = _first_level(8)
    assert _least(level) == rado_level_masks(8, first)[0]
    assert first_cycle_bound(8, 0) == first
    assert first_cycle_bound(8, first + 7) == first + 7


def test_cycle_search_needs_four_vertices():
    with pytest.raises(InputError):
        first_cycle_bound(3, 0)


# -- triples -----------------------------------------------------------------


def test_build_triples_8_matches_oracle():
    got = [(t.n, t.b, t.c, sorted(t.cycle)) for t in build_triples(8)]
    assert got == rado_triples(8)


def test_build_triples_capped():
    with pytest.raises(CapacityError):
        build_triples(MAX_TRIPLES_N + 1)


def test_build_triples_n4_oracle():
    t = build_triples(4)[0]
    assert (t.b, t.c) == (5, 39)
    assert set(t.cycle) == {0, 1, 2, 5}
    assert t.c == (1 << 0) + (1 << 1) + (1 << 2) + (1 << 5)


def test_triples_invariants_to_8():
    triples = build_triples(8)
    assert [t.n for t in triples] == [4, 5, 6, 7, 8]
    prev_c = 0
    for t in triples:
        assert is_induced_cycle(t.cycle) is not None
        assert len(t.cycle) == t.n
        assert max(t.cycle) <= t.b
        assert t.c == sum(1 << v for v in t.cycle)  # c's lower neighbourhood
        assert prev_c < t.b < t.c
        prev_c = t.c


def test_minimal_exact_vertex_is_minimal_n4():
    # independent oracle: scan every candidate below the returned vertex
    c, cycle = minimal_exact_vertex(4, 5)
    for candidate in range(6, c):
        hood = neighborhood_in_prefix(candidate, 5)
        assert not (len(hood) == 4 and is_induced_cycle(sorted(hood)) is not None)


def _least_mask_above(n, b):
    # the least induced n-cycle mask above b among levels up to b
    first = next(v for v in count(n - 1) if rado_level_masks(n, v))
    return next(m for v in range(first, b + 1) for m in rado_level_masks(n, v) if m > b)


@pytest.mark.parametrize(
    "n, bs",
    # L_4 = 5 and L_5 = 12; from b = 2^(L_n+1) - 1 on, every mask at L_n
    # is <= b and the scan's later levels start above L_n + 1
    [(4, [*range(5, 70), 127, 128, 200, 255, 256, 1000]),
     (5, [12, 13, 100, 4095, 4096, 8189, 8190, 8191, 8192, 8200, 16383, 16384, 20000])],
)
def test_minimal_exact_vertex_matches_level_masks(n, bs):
    for b in bs:
        c, cycle = minimal_exact_vertex(n, b)
        assert c == _least_mask_above(n, b), b
        assert sorted(cycle) == [v for v in range(b + 1) if (c >> v) & 1]


@settings(derandomize=True, database=None, deadline=None)
@given(st.data())
def test_minimal_exact_vertex_where_the_first_level_straddles_b(data):
    # b in [2^L, 2^(L+1)) for L = L_n: level L straddles b and is expanded,
    # and when none of its masks exceeds b a later level's least mask answers
    n = data.draw(st.integers(4, 6))
    first, _ = _first_level(n)
    b = data.draw(st.integers(1 << first, (2 << first) - 1))
    c, cycle = minimal_exact_vertex(n, b)
    assert c == next(m for v in count(first) for m in rado_level_masks(n, v) if m > b)
    assert c == sum(1 << u for u in cycle)


@pytest.mark.parametrize("n", range(4, MAX_TRIPLES_N + 1))
def test_second_cycle_level_is_at_most_2_to_the_first(n):
    # the window 2^L <= b < 2^L + L of minimal_exact_vertex's docstring: a
    # level v in (L, 2^L] lies within [b.bit_length(), b] for every such b,
    # so its masks lie in (b, 2^(b+1)) and c exists up to MAX_TRIPLES_N
    first, _ = _first_level(n)
    v, level = next(_levels(n, first + 1))
    assert level
    assert v <= 1 << first
    for b in (1 << first, (1 << first) + first - 1):
        c, cycle = minimal_exact_vertex(n, b)
        assert c > b and c.bit_length() <= b + 1 and c == sum(1 << u for u in cycle)


def test_minimal_exact_vertex_without_a_mask_is_bad_input(monkeypatch):
    # no level after the first holds a cycle, and b is past every mask of
    # the first: no c above b has its lower neighbourhood in {0..b}
    _, level = _first_level(4)
    monkeypatch.setattr(rado, "_levels", lambda n, start: iter([]))
    with pytest.raises(InputError, match="no vertex above"):
        minimal_exact_vertex(4, _masks(level)[-1])


def test_minimal_exact_vertex_rejects_cycle_free_prefix():
    # {0..5} holds no induced 5-cycle: the first one has maximum vertex 12
    with pytest.raises(InputError):
        minimal_exact_vertex(5, 5)
    assert minimal_exact_vertex(5, 12)[0] > 12


def test_obstruction_report_clean_to_8():
    triples = build_triples(8)
    report = check_obstruction(triples)
    assert report.ok
    assert not report.violations
    assert all(p["obstructed"] for p in report.pair_certificates)
    assert len(report.pair_certificates) == 10  # C(5,2) ordered pairs


@pytest.mark.parametrize("max_n", [8, 12])
def test_obstruction_matches_reference_scan(max_n):
    # the pair lemma on emitted triples: no c's whole lower neighbourhood
    # holds a shorter induced cycle, and every pair is obstructed
    triples = build_triples(max_n)
    report = check_obstruction(triples)
    assert report.violations == rado_obstruction_checks(triples) == []
    assert all(p["obstructed"] for p in report.pair_certificates)


def forged_triple(extra):
    """build_triples(5)'s n = 5 triple with `extra` added to c."""
    t = build_triples(5)[1]
    return Triple(t.n, t.b, t.c + extra, t.cycle)


@pytest.mark.parametrize(
    "bit, violation",
    # 4097 = 2^12 + 1 sees the cycle's 0 and 12, which share the neighbour
    # 3: the 4-cycle (0, 4097, 12, 3). 41 = b + 1 sees 0 and 3 (41 = 101001
    # in binary), which see each other. Validation refuses both
    [(4097, {"n": 5, "i": 4, "witness": (0, 3, 12, 4097)}),
     (41, {"n": 5, "i": 3, "witness": (0, 3, 41)})],
    ids=["bit-4097", "bit-b-plus-1"],
)
def test_reference_scan_finds_what_a_forged_c_sees(bit, violation):
    forged = forged_triple(1 << bit)
    assert rado_obstruction_checks([forged]) == [violation]
    with pytest.raises(FalsificationError, match="between the prefix and c"):
        check_obstruction(build_triples(4) + [forged])


def test_neighborhood_in_prefix_needs_c_above_the_prefix():
    assert neighborhood_in_prefix(39, 5) == {0, 1, 2, 5}
    assert neighborhood_in_prefix(39, 4) == {0, 1, 2}
    assert neighborhood_in_prefix((1 << 40) + 39, 10**12) == {0, 1, 2, 5, 40}
    for c, top in [(5, 5), (3, 10**12), (0, 0)]:
        with pytest.raises(InputError):
            neighborhood_in_prefix(c, top)


def test_obstruction_n4_no_triangle():
    t = build_triples(4)[0]
    for sub in combinations(t.cycle, 3):
        assert is_induced_cycle(sub) is None


def test_obstruction_single_triple_empty_pairs():
    report = check_obstruction(build_triples(4))
    assert report.pair_certificates == []
    assert report.ok


def test_triple_json_round_trip():
    t = build_triples(4)[0]
    assert triple_from_json(t.to_json()) == t


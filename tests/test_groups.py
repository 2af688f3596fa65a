import random
import re

import pytest

from azenum.errors import InputError, StructuralError
from azenum.groups import (
    _generating_sequence,
    catalog_group,
    catalog_names,
    group_from_json,
    group_to_json,
    is_class_csw,
    is_subgroup,
    make_kgroup,
    rank,
    subgroup_closure,
    validate_and_analyze,
    validate_k,
)
from azenum.quadratic import group_from_qs
from oracles import (
    alternating4,
    as_factor,
    associativity_failure,
    burnside_rank,
    cyclic,
    direct,
    find_isomorphism,
    heisenberg,
    power,
    random_nondegenerate_qs,
    semidirect,
    table_of,
)


def names(table, indices):
    return {table.element_names[i] for i in indices}


def test_q8_analysis():
    q8, a, _k = catalog_group("Q8")
    assert a.exponent == 4
    assert names(q8, a.center) == {"1", "-1"}
    assert names(q8, a.commutator_subgroup) == {"1", "-1"}
    assert names(q8, a.involutions) == {"-1"}


def test_c2_analysis():
    c2, a, _k = catalog_group("C2")
    assert a.exponent == 2
    assert set(a.center) == {0, 1}
    assert names(c2, a.involutions) == {"g"}


def test_broken_associativity_rejected():
    c4, _, _ = catalog_group("C4")
    mul = [list(row) for row in c4.mul]
    mul[1][1] = 1  # g*g = g breaks the axioms
    with pytest.raises(StructuralError):
        validate_and_analyze(mul)


def light_agrees(mul):
    """Whether `validate_and_analyze` and the n^3 oracle agree on whether
    `mul` is associative. The tables here pass every other check, so a
    rejection must be the associativity error, and it must name a triple
    the oracle confirms fails."""
    want = associativity_failure(mul)
    try:
        validate_and_analyze(mul)
    except StructuralError as exc:
        named = re.fullmatch(r"associativity fails at triple \((\d+), (\d+), (\d+)\)", str(exc))
        assert named, exc
        triple = tuple(map(int, named.groups()))
        return want is not None and associativity_failure(mul, [triple]) == triple
    return want is None


C4_CUBED = table_of(*direct(cyclic(4), cyclic(4), cyclic(4)))

# a loop of order 5 with two-sided inverses that is not associative
# ((1·1)·2 = 2, 1·(1·2) = 4): only the associativity check rejects it
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
# its products with C4 and C2, whose first generators associate with every
# pair, so that only a later generator of Light's test rejects them
LOOP5_PRODUCTS = [table_of(*direct(cyclic(4), as_factor(LOOP5))),
                  table_of(*direct(as_factor(LOOP5), cyclic(2)))]


def test_light_test_matches_full_check_on_groups():
    tables = [[list(row) for row in catalog_group(n)[0].mul] for n in catalog_names()]
    tables += [table_of(*cyclic(6)), C4_CUBED, table_of(*direct(cyclic(2), cyclic(6))),
               table_of(*direct(cyclic(3), cyclic(3))), table_of(*heisenberg(3))]
    for mul in tables:
        assert associativity_failure(mul) is None
        assert light_agrees(mul)


def test_light_test_matches_full_check_on_mutants():
    # C4^3 with two entries of a non-identity row swapped, or one entry
    # changed, away from the identity's row and column and from the entry
    # a·a^-1, so that the identity and the inverses survive; and the loops
    rng = random.Random(17)
    n = len(C4_CUBED)
    inverse = [row.index(0) for row in C4_CUBED]
    mutants = [LOOP5, *LOOP5_PRODUCTS]
    for draw in range(400):
        mul = [list(row) for row in C4_CUBED]
        a = rng.randrange(1, n)
        cols = rng.sample([b for b in range(1, n) if b != inverse[a]], 2)
        if draw % 2:
            mul[a][cols[0]], mul[a][cols[1]] = mul[a][cols[1]], mul[a][cols[0]]
        else:
            mul[a][cols[0]] = rng.choice([v for v in range(n) if v != mul[a][cols[0]]])
        mutants.append(mul)
    for mul in mutants:
        assert associativity_failure(mul) is not None
        assert light_agrees(mul)


def test_missing_identity_rejected():
    with pytest.raises(StructuralError):
        validate_and_analyze([[1, 0], [1, 0]])


def test_class_csw_membership():
    for name, expect in [("Q8", True), ("D4", False), ("C2", True), ("C4", True), ("C2xC2", True)]:
        _, analysis, _ = catalog_group(name)
        assert is_class_csw(analysis) == expect, name


def test_d4_noncentral_involution_witness():
    d4, a, _ = catalog_group("D4")
    s = d4.index_of_name("s")
    r = d4.index_of_name("r")
    assert d4.mul[s][s] == d4.identity_index
    assert d4.mul[s][r] != d4.mul[r][s]


def test_validate_k():
    q8, aq8, kq8 = catalog_group("Q8")
    assert validate_k(q8, aq8, kq8)
    d4, ad4, _ = catalog_group("D4")
    assert not validate_k(d4, ad4, [0])  # G' = {1, r^2} not inside {1}
    c4, ac4, _ = catalog_group("C4")
    assert validate_k(c4, ac4, [0])
    with pytest.raises(InputError):
        validate_k(c4, ac4, [99])


@pytest.mark.parametrize("name", catalog_names())
def test_is_subgroup_matches_definition(name):
    # every subset, against the identity, inverse and product conditions
    table = catalog_group(name)[0]
    for bits in range(1 << table.order):
        s = {a for a in range(table.order) if bits >> a & 1}
        want = (table.identity_index in s and all(table.inverse[a] in s for a in s)
                and all(table.mul[a][b] in s for a in s for b in s))
        assert is_subgroup(table, s) == want, s


def brute_rank(table):
    from itertools import combinations

    if table.order == 1:
        return 0
    for size in range(1, table.order):
        for subset in combinations(range(table.order), size):
            if len(subgroup_closure(table, subset)) == table.order:
                return size
    raise AssertionError


@pytest.mark.parametrize("name,expected", [("C4", 1), ("Q8", 2), ("C2xC2", 2)])
def test_rank_examples(name, expected):
    table, _, _ = catalog_group(name)
    assert rank(table) == expected


def test_rank_matches_brute_force_on_catalog():
    for name in catalog_names():
        table, _, _ = catalog_group(name)
        assert rank(table) == brute_rank(table), name


def abelian_moduli(limit, least=2):
    """Every nondecreasing tuple of moduli of at least `least` whose product
    is at most `limit`."""
    yield ()
    for m in range(least, limit + 1):
        for rest in abelian_moduli(limit // m, m):
            yield (m, *rest)


def test_rank_matches_brute_force_on_nilpotent_groups():
    # every product of cyclic groups up to order 27, and nonabelian
    # nilpotent groups of class 2 and, in D8, of class 3
    q8 = as_factor(catalog_group("Q8")[0].mul)
    d4 = semidirect(4, 2, 3)
    groups = {m: direct(*map(cyclic, m)) for m in abelian_moduli(27)}
    groups.update({
        "D8": semidirect(8, 2, 7), "M16": semidirect(8, 2, 5), "C4:C4": semidirect(4, 4, 3),
        "C9:C3": semidirect(9, 3, 4), "Heis3": heisenberg(3), "D4xC2": direct(d4, cyclic(2)),
        "Q8xC2": direct(q8, cyclic(2)), "D4xC3": direct(d4, cyclic(3)),
        "Q8xC3": direct(q8, cyclic(3)),
    })
    for name, group in groups.items():
        table, _ = validate_and_analyze(table_of(*group))
        assert rank(table) == brute_rank(table), name


@pytest.mark.parametrize("moduli,expected", [((4,) * 4, 4), ((2,) * 8, 8), ((2, 4, 8, 4), 4)])
def test_rank_at_order_256(moduli, expected):
    table, _ = validate_and_analyze(table_of(*direct(*map(cyclic, moduli))))
    assert rank(table) == expected


def qs_group(seed, dim_u, dim_v):
    """A 2-group of order 2^(dim_u + dim_v), built from a random structure."""
    return group_from_qs(random_nondegenerate_qs(random.Random(seed), dim_u, dim_v))[0]


def naive_closure(table, gens):
    span = {table.identity_index, *gens}
    while True:
        grown = span | {table.mul[a][b] for a in span for b in span}
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3)])
def test_rank_matches_burnside_on_random_2_groups(dims):
    for seed in range(1, 4):
        table = qs_group(seed, *dims)
        assert rank(table) == burnside_rank(table), (seed, dims)
    for name in catalog_names():
        table, _, _ = catalog_group(name)
        assert rank(table) == burnside_rank(table), name


def test_subgroup_closure_matches_naive_closure():
    rng = random.Random(5)
    for table in [qs_group(2, 3, 2), *(catalog_group(n)[0] for n in catalog_names())]:
        for size in range(min(4, table.order + 1)):
            gens = rng.sample(range(table.order), size)
            assert subgroup_closure(table, gens) == naive_closure(table, gens)


def test_generating_sequence_lemma():
    # the picks generate G, each lies outside the span of the earlier ones,
    # and by Lagrange there are at most log2 |G| of them
    tables = [catalog_group(n)[0] for n in catalog_names()]
    rules = [cyclic(6), direct(cyclic(4), cyclic(4), cyclic(4)), direct(*[cyclic(2)] * 8),
             semidirect(3, 2, 2), semidirect(8, 2, 7), semidirect(8, 2, 5), semidirect(4, 4, 3),
             semidirect(9, 3, 4), heisenberg(3), alternating4(), direct(cyclic(2), cyclic(6)),
             direct(semidirect(4, 2, 3), cyclic(2)), direct(cyclic(3), cyclic(3))]
    tables += [validate_and_analyze(table_of(*rule))[0] for rule in rules]
    for table in tables:
        picks = _generating_sequence(table)
        for i, g in enumerate(picks):
            assert g not in naive_closure(table, picks[:i]), (table.order, picks)
        assert len(naive_closure(table, picks)) == table.order, (table.order, picks)
        assert 1 << len(picks) <= table.order, (table.order, picks)


def test_make_kgroup_c4():
    c4, a, _ = catalog_group("C4")
    kg = make_kgroup(c4, a, [0, 2])
    assert kg.transversal == (0, 1)  # cosets {1,g2} and {g,g3}
    assert kg.element_order == (0, 2, 1, 3)  # 1, g2, then g, g·g2


def test_make_kgroup_stores_k_identity_first():
    # C4 relabelled so that the identity has index 2: K = {1, g2} is stored
    # identity first, and each coset ranks its K multiples as K does
    c4, a, _ = catalog_group("C4")
    relabel = [2, 0, 3, 1]  # old index -> new index
    mul = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            mul[relabel[x]][relabel[y]] = relabel[c4.mul[x][y]]
    table, analysis = validate_and_analyze(mul)
    kg = make_kgroup(table, analysis, [relabel[0], relabel[2]])
    assert kg.k_subgroup == (2, 3)
    assert kg.transversal == (2, 0)
    assert kg.element_order == (2, 3, 0, 1)  # 1, g2, then g, g·g2


def test_make_kgroup_k_equals_g():
    c2, a, _ = catalog_group("C2")
    kg = make_kgroup(c2, a, [0, 1])
    assert kg.transversal == (0,)
    assert kg.element_order == (0, 1)


def test_make_kgroup_q8_transversal_size():
    q8, a, _ = catalog_group("Q8")
    kg = make_kgroup(q8, a, [0, 1])
    assert len(kg.transversal) == 4


def test_make_kgroup_rejects_bad_k():
    d4, a, _ = catalog_group("D4")
    with pytest.raises(InputError):
        make_kgroup(d4, a, [0])


def test_exponent_by_direct_power():
    for name in catalog_names():
        table, analysis, _ = catalog_group(name)
        m = analysis.exponent
        assert all(power(table, g, m) == table.identity_index for g in range(table.order))
        for n in range(1, m):
            assert any(power(table, g, n) != table.identity_index for g in range(table.order))


def test_json_round_trip():
    q8, _, k = catalog_group("Q8")
    doc = group_to_json(q8, k)
    table, _, k2 = group_from_json(doc)
    assert table.mul == q8.mul
    assert table.element_names == q8.element_names
    assert k2 == sorted(k)


def test_find_isomorphism_positive_and_negative():
    c4, _, _ = catalog_group("C4")
    v4, _, _ = catalog_group("C2xC2")
    # C4 relabelled
    perm = [0, 3, 2, 1]
    mul = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            mul[perm[a]][perm[b]] = perm[c4.mul[a][b]]
    shuffled, _ = validate_and_analyze(mul, name="C4p")
    iso = find_isomorphism(c4, shuffled)
    assert iso is not None
    for a in range(4):
        for b in range(4):
            assert iso[c4.mul[a][b]] == shuffled.mul[iso[a]][iso[b]]
    assert find_isomorphism(c4, v4) is None

import pytest

from azenum.errors import InputError, StructuralError
from azenum.groups import (
    catalog_group,
    catalog_names,
    find_isomorphism,
    group_from_json,
    group_to_json,
    is_class_csw,
    make_kgroup,
    rank,
    subgroup_closure,
    validate_and_analyze,
    validate_k,
)
from oracles import power


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


def test_missing_identity_rejected():
    with pytest.raises(StructuralError):
        validate_and_analyze([[1, 0], [1, 0]])


def test_class_csw_membership():
    for name, expect in [("Q8", True), ("D4", False), ("C2", True), ("C4", True), ("C2xC2", True)]:
        table, analysis, _ = catalog_group(name)
        assert is_class_csw(table, analysis) == expect, name


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


def test_make_kgroup_c4():
    c4, a, _ = catalog_group("C4")
    kg = make_kgroup(c4, a, [0, 2])
    assert kg.transversal == (0, 1)  # cosets {1,g2} and {g,g3}
    assert kg.element_order == (0, 1, 2, 3)


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

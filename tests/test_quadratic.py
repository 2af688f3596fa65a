import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azenum.errors import CapacityError, InputError
from azenum.groups import catalog_group, validate_and_analyze
from azenum.quadratic import (
    EXHAUSTIVE_CAP,
    QuadraticStructure,
    cocycle_basis,
    eval_cocycle,
    format_bitstring,
    free_amalgam,
    group_from_qs,
    is_nondegenerate,
    qs_from_group,
    qs_from_json,
    qs_to_json,
)
from oracles import (
    apply_linear,
    coordinate_inclusion,
    find_isomorphism,
    is_morphism,
    per_pair_extension_table,
    random_nondegenerate_qs,
    random_qs,
    random_qs_extension,
)


def derived(name):
    table, analysis, _ = catalog_group(name)
    return qs_from_group(table, analysis)


def test_qs_from_c4():
    qs = derived("C4")
    assert (qs.dim_u, qs.dim_v) == (1, 1)
    assert qs.eval_q(1) == 1  # squaring hits g^2 != 1


def test_qs_from_q8():
    qs = derived("Q8")
    assert (qs.dim_u, qs.dim_v) == (2, 1)
    for u in range(1, 4):
        assert qs.eval_q(u) == 1
    assert qs.eval_gamma(1, 2) == 1  # polarization: 1+1+1


def test_qs_from_c2():
    qs = derived("C2")
    assert (qs.dim_u, qs.dim_v) == (0, 1)


def test_qs_from_group_rejects_d4():
    d4, a, _ = catalog_group("D4")
    with pytest.raises(InputError):
        qs_from_group(d4, a)


def test_eval_q_zero_and_alternating():
    rng = random.Random(1)
    qs = random_qs(rng, 4, 3)
    assert qs.eval_q(0) == 0
    for _ in range(20):
        u = rng.randrange(16)
        assert qs.eval_gamma(u, u) == 0


def test_polarization_identity_exhaustive():
    rng = random.Random(2)
    for dim_u, dim_v in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 2)]:
        qs = random_qs(rng, dim_u, dim_v)
        for x in range(1 << dim_u):
            for y in range(1 << dim_u):
                assert qs.eval_gamma(x, y) == qs.eval_q(x) ^ qs.eval_q(y) ^ qs.eval_q(x ^ y)


def test_exhaustive_checks_above_cap():
    dim_u = EXHAUSTIVE_CAP + 1
    qs = QuadraticStructure(dim_u, 1, (1,) * dim_u, ((0,) * dim_u,) * dim_u)
    with pytest.raises(CapacityError):
        is_nondegenerate(qs)


def test_is_nondegenerate():
    assert is_nondegenerate(derived("Q8"))
    bad = QuadraticStructure(1, 1, (0,), ((0,),))
    assert not is_nondegenerate(bad)
    empty = QuadraticStructure(0, 1, (), ())
    assert is_nondegenerate(empty)


def test_group_from_qs_squaring_invariant():
    rng = random.Random(3)
    for dim_u, dim_v in [(1, 1), (2, 1), (2, 2), (3, 3)]:
        qs = random_nondegenerate_qs(rng, dim_u, dim_v)
        table, analysis = group_from_qs(qs)
        beta = cocycle_basis(qs)
        for u in range(1 << dim_u):
            assert eval_cocycle(beta, u, u) == qs.eval_q(u)
            x = u << dim_v
            assert divmod(table.mul[x][x], 1 << dim_v) == (0, qs.eval_q(u))


def test_group_from_qs_element_layout():
    # element (u << dimV) | v is named (u|v), each part a little-endian bitstring
    qs = random_nondegenerate_qs(random.Random(7), 3, 2)
    table, _ = group_from_qs(qs)
    assert table.order == 1 << 5
    for u in range(1 << 3):
        for v in range(1 << 2):
            x = (u << 2) | v
            assert table.element_names[x] == f"({format_bitstring(u, 3)}|{format_bitstring(v, 2)})"
            assert (x >> 2, x & 0b11) == (u, v)
    assert table.element_names[0b10110] == "(101|01)"


def test_group_from_qs_matches_per_pair_table():
    # every shape with dimU + dimV <= 8 that has a nondegenerate structure:
    # dimU <= 2 dimV (past it, by Chevalley-Warning, all are degenerate),
    # so dimV = 0 only with dimU = 0
    rng = random.Random(8)
    shapes = [(u, v) for v in range(9) for u in range(min(2 * v, 8 - v) + 1)]
    assert (0, 0) in shapes and (0, 8) in shapes and (5, 3) in shapes
    for dim_u, dim_v in shapes:
        qs = random_nondegenerate_qs(rng, dim_u, dim_v)
        want = tuple(map(tuple, per_pair_extension_table(qs)))
        assert group_from_qs(qs)[0].mul == want, (dim_u, dim_v)


def test_group_from_qs_examples():
    c4_rt, _ = group_from_qs(derived("C4"))
    c4, _, _ = catalog_group("C4")
    assert find_isomorphism(c4_rt, c4) is not None

    q8_rt, a = group_from_qs(derived("Q8"))
    assert q8_rt.order == 8
    assert len(a.involutions) == 1

    c2_rt, _ = group_from_qs(derived("C2"))
    c2, _, _ = catalog_group("C2")
    assert find_isomorphism(c2_rt, c2) is not None


def test_round_trip_catalog_class_groups():
    for name in ["C2", "C4", "C2xC2", "Q8"]:
        table, analysis, _ = catalog_group(name)
        rebuilt, _ = group_from_qs(qs_from_group(table, analysis))
        assert find_isomorphism(rebuilt, table) is not None, name


def test_round_trip_random_structures():
    # the other direction of the catalog round trip: a group built from a
    # random nondegenerate structure, its elements shuffled so that the
    # extracted bases are not the packed coordinates, comes back from its
    # own structure. One structure per shape with dimU <= 2 dimV (past it,
    # by Chevalley-Warning, every structure is degenerate) and dimU + dimV
    # <= 6, then four of order 128, with dimU 1 to 4
    rng = random.Random(6)
    shapes = [(u, v) for v in range(1, 6) for u in range(1, min(2 * v, 6 - v) + 1)]
    for dim_u, dim_v in shapes + [(2, 5), (1, 6), (3, 4), (4, 3)]:
        table, _ = group_from_qs(random_nondegenerate_qs(rng, dim_u, dim_v))
        shuffled, analysis = _shuffled(table, rng)
        rebuilt, _ = group_from_qs(qs_from_group(shuffled, analysis))
        assert find_isomorphism(rebuilt, table) is not None, (dim_u, dim_v)


def _shuffled(table, rng):
    """The same group with its elements relabelled by a random permutation."""
    perm = list(range(table.order))
    rng.shuffle(perm)
    mul = [[0] * table.order for _ in range(table.order)]
    for a in range(table.order):
        for b in range(table.order):
            mul[perm[a]][perm[b]] = perm[table.mul[a][b]]
    return validate_and_analyze(mul)


TRIVIAL = QuadraticStructure(0, 0, (), ())


def test_free_amalgam_c4_copies_over_trivial():
    qs1 = derived("C4")
    res = free_amalgam(TRIVIAL, qs1, qs1)
    assert (res.qs.dim_u, res.qs.dim_v) == (2, 3)
    assert is_nondegenerate(res.qs)
    assert is_morphism(qs1, res.qs, res.emb1)
    assert is_morphism(qs1, res.qs, res.emb2)


def test_free_amalgam_degenerate_case_gives_qs2():
    rng = random.Random(4)
    qs1 = random_nondegenerate_qs(rng, 2, 2)
    qs2 = random_qs_extension(rng, qs1, 1, 1)
    res = free_amalgam(qs1, qs1, qs2)
    assert (res.qs.dim_u, res.qs.dim_v) == (qs2.dim_u, qs2.dim_v)
    assert is_morphism(qs2, res.qs, res.emb2)
    # emb2 is a bijective morphism, so the amalgam is a copy of qs2
    assert sorted(apply_linear(res.emb2.f, u) for u in range(1 << qs2.dim_u)) == list(
        range(1 << qs2.dim_u)
    )


def test_free_amalgam_restrictions_hold_randomized():
    rng = random.Random(5)
    for _ in range(20):
        du0 = rng.randint(0, 2)
        dv0 = rng.randint(1 if du0 else 0, 2)
        qs0 = random_nondegenerate_qs(rng, du0, dv0)
        qs1 = random_qs_extension(rng, qs0, rng.randint(0, 2), rng.randint(0, 1))
        qs2 = random_qs_extension(rng, qs0, rng.randint(0, 2), rng.randint(0, 1))
        res = free_amalgam(qs0, qs1, qs2)
        assert is_morphism(qs1, res.qs, res.emb1)
        assert is_morphism(qs2, res.qs, res.emb2)
        assert is_nondegenerate(res.qs)
        p = qs1.dim_u - qs0.dim_u
        q = qs2.dim_u - qs0.dim_u
        dv0 = qs0.dim_v
        a1, a2 = qs1.dim_v - dv0, qs2.dim_v - dv0
        assert res.qs.dim_v == qs1.dim_v + qs2.dim_v - qs0.dim_v + p * q
        # V = V0 | V1' | V2' | U1' (x) U2': both factors send V0 to the
        # leading bits and their V complements, the unit vectors past V0,
        # to the next blocks
        for emb, dim_v, offset in ((res.emb1, qs1.dim_v, dv0), (res.emb2, qs2.dim_v, dv0 + a1)):
            assert [apply_linear(emb.g, 1 << i) for i in range(dv0)] == [
                1 << i for i in range(dv0)
            ]
            assert [apply_linear(emb.g, 1 << i) for i in range(dv0, dim_v)] == [
                1 << (offset + i) for i in range(dim_v - dv0)
            ]
        # gamma between the two complements, the unit vectors past U0, is
        # the tensor pairing, at tensor bit i * q + j
        for i in range(p):
            for j in range(q):
                u1 = apply_linear(res.emb1.f, 1 << (du0 + i))
                u2 = apply_linear(res.emb2.f, 1 << (du0 + j))
                t = res.qs.eval_gamma(u1, u2)
                assert t == 1 << (dv0 + a1 + a2 + i * q + j)


def test_free_amalgam_rejects_non_morphism():
    c4 = derived("C4")
    # Q = 0 on the common coordinate, where C4's Q is 1: the inclusion is
    # not a morphism
    zero = QuadraticStructure(1, 1, (0,), ((0,),))
    with pytest.raises(InputError):
        free_amalgam(zero, c4, c4)
    # a common structure wider than a factor does not fit
    with pytest.raises(InputError):
        free_amalgam(derived("Q8"), derived("Q8"), c4)
    with pytest.raises(InputError):
        free_amalgam(QuadraticStructure(0, 2, (), ()), c4, c4)


def _flipped(rng, qs, du0):
    """qs with one bit flipped in one of its first du0 Q values, or in both
    entries of a gamma pair between two of its first du0 coordinates."""
    q, gamma = list(qs.q_basis), [list(row) for row in qs.gamma_basis]
    bit = 1 << rng.randrange(qs.dim_v)
    if du0 >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(du0), 2)
        gamma[i][j] ^= bit
        gamma[j][i] ^= bit
    else:
        q[rng.randrange(du0)] ^= bit
    return QuadraticStructure(qs.dim_u, qs.dim_v, tuple(q), tuple(map(tuple, gamma)))


def test_free_amalgam_accepts_exactly_the_morphic_inclusions():
    # free_amalgam checks the inclusion of the common structure on its
    # basis vectors and their pairs; the oracle reads every vector of U0.
    # Every other diagram gets one leading Q value or gamma pair flipped
    # in a factor, which breaks the inclusion.
    rng = random.Random(9)
    outcomes = []
    for trial in range(200):
        du0 = rng.randint(1, 3)
        qs0 = random_nondegenerate_qs(rng, du0, rng.randint(2, 3))
        factors = [
            random_qs_extension(rng, qs0, rng.randint(0, 2), rng.randint(0, 1))
            for _ in range(2)
        ]
        if trial % 2:
            side = rng.randrange(2)
            factors[side] = _flipped(rng, factors[side], du0)
        inclusion = coordinate_inclusion(qs0)
        expected = all(is_morphism(qs0, qs, inclusion) for qs in factors)
        try:
            free_amalgam(qs0, *factors)
            accepted = True
        except InputError:
            accepted = False
        assert accepted == expected, trial
        outcomes.append(accepted)
    assert outcomes == [trial % 2 == 0 for trial in range(200)]


def test_qs_json_round_trip():
    qs = derived("Q8")
    assert qs_from_json(qs_to_json(qs)) == qs


@st.composite
def quadratic_structures(draw):
    """Any quadratic structure with dimU <= 4 and dimV <= 6, degenerate or
    not: Q's basis values and gamma's upper triangle drawn freely."""
    dim_u, dim_v = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    value = st.integers(0, (1 << dim_v) - 1)
    gamma = [[0] * dim_u for _ in range(dim_u)]
    for i in range(dim_u):
        for j in range(i + 1, dim_u):
            gamma[i][j] = gamma[j][i] = draw(value)
    q = tuple(draw(value) for _ in range(dim_u))
    return QuadraticStructure(dim_u, dim_v, q, tuple(map(tuple, gamma)))


@settings(derandomize=True, database=None, deadline=None)
@given(quadratic_structures())
def test_qs_json_round_trip_any_structure(qs):
    assert qs_from_json(json.loads(json.dumps(qs_to_json(qs)))) == qs

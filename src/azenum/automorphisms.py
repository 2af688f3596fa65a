"""Generators of the automorphism group: finitary coordinate permutations
and the self-inverse ladder maps, plus words in them and verification. An
element is its enumeration index (see `central_product`).

A `Perm` stores the "moves" convention: the value at coordinate j is moved
to coordinate perm[j]. Each generator is stated once, as data
(`_window_action`): weights on the coset digits it touches, and for a
ladder the place values of its coordinates. A permutation's weighted digit
sum moves its digits; a ladder's is its window configuration, and a list of
configurations goes to their shifts and K factors through a part that no
coordinate enters (`_ladder_slots`, each slot's digit change and the K
factor, a slot at a time over the list) and the places (`_ladder_act`). A
word acts on lists of enumeration indices (`index_images`) by those sums on
the pairs (s, k), a generator and a run of consecutive digits
(`CPContext.digit_runs`) at a time, building no element; `apply_word` is
its view on one index. `level_images` maps a level's indices range(size)
by the same sums over the whole level, every ladder of the word reading the
slots of one whole window table. `verify_automorphism` checks the law on
the images in one loop (`CPContext.law_check`), which reads tables of the
level's products built for the check.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import islice, product, repeat
from operator import add
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .central_product import CPContext
from .errors import InputError, Record, shown


class Perm(Record):
    __slots__ = ("moves",)  # sorted (source, target) pairs

    @staticmethod
    def from_mapping(mapping: Dict[int, int]) -> "Perm":
        items = {s: t for s, t in mapping.items() if s != t}
        if sorted(items) != sorted(items.values()):
            raise InputError("permutation must map its support onto itself")
        if any(c < 0 for c in items):
            raise InputError("negative coordinate in permutation")
        return Perm(tuple(sorted(items.items())))

    @staticmethod
    def from_cycles(cycles: Sequence[Sequence[int]]) -> "Perm":
        mapping: Dict[int, int] = {}
        for cyc in cycles:
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                if a in mapping:
                    raise InputError(f"coordinate {a} repeated in cycles")
                mapping[a] = b
        return Perm.from_mapping(mapping)

    def cycles(self) -> List[List[int]]:
        mapping, seen, out = dict(self.moves), set(), []
        for start in sorted(mapping):
            if start not in seen:
                cyc = [start]
                while mapping[cyc[-1]] != start:
                    cyc.append(mapping[cyc[-1]])
                seen.update(cyc)
                out.append(cyc)
        return out

    def inverse(self) -> "Perm":
        return Perm(tuple(sorted((t, s) for s, t in self.moves)))

    def max_coord(self) -> int:
        return max((max(s, t) for s, t in self.moves), default=-1)


class BetaStar(Record):
    __slots__ = ("coords",)

    def __init__(self, coords: Tuple[int, ...]):
        if not coords:
            raise InputError("a ladder needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise InputError("ladder coordinates must be distinct")
        if any(c < 0 for c in coords):
            raise InputError("negative ladder coordinate")
        super().__init__(coords)

    def max_coord(self) -> int:
        return max(self.coords)


AutGenerator = Union[Perm, BetaStar]


class AutWord(Record):
    __slots__ = ("gens",)

    def max_coord(self) -> int:
        return max((g.max_coord() for g in self.gens), default=-1)

    def inverse(self) -> "AutWord":
        out = []
        for g in reversed(self.gens):
            out.append(g.inverse() if isinstance(g, Perm) else g)
        return AutWord(tuple(out))

    def __mul__(self, other: "AutWord") -> "AutWord":
        return AutWord(self.gens + other.gens)


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _window_action(ctx: CPContext, gen: AutGenerator) -> Tuple[Dict[int, int], Optional[List[int]]]:
    """The generator as (weights, places) on the pair (s, k): it reads the
    sum v of d_c(s)·weights[c] over the coordinates c it touches. A
    permutation weighs each move (src, tgt) r^tgt - r^src, so s + v has its
    digits moved; its places are None and k stays. A ladder weighs its
    window's j-th coordinate r^j, so v is the window's configuration, and
    places lists its coordinates' place values: on a list of configurations
    `_ladder_act` of their `_ladder_slots` gives the lists (shifts, factors),
    and (s, k) goes to (s + shift, k·factor). InputError for a ladder of
    other than exponent + 2 coordinates.
    """
    r, place = len(ctx.minima), ctx.place
    if isinstance(gen, Perm):
        return {src: place(tgt) - place(src) for src, tgt in gen.moves}, None
    if len(gen.coords) != ctx.exponent + 2:
        m, got = ctx.exponent + 2, len(gen.coords)
        raise InputError(f"ladder needs exponent+2 = {m} coordinates, got {got}")
    return {c: r**j for j, c in enumerate(gen.coords)}, list(map(place, gen.coords))


def _ladder_slots(ctx: CPContext, configurations: Sequence[int]) -> Tuple[List[List[int]], List[int]]:
    """A ladder window's action on a list of configurations, free of its
    coordinates: per slot j, each configuration's digit change at j, and
    each configuration's K factor. Slot j gets u_j = P_j·S_(j+1), the
    ordered product of the coset minima of the slots below it (P_j) and
    above it (S_(j+1)), keeps u_j's digit and folds its K factor into k. A
    slot at a time over the whole list: the prefix products left to right,
    then the suffix products right to left. The held-back k is left out,
    which is right because K is central: k would enter the m+1 other slots
    of a window on coordinate 0, and k^(m+1) = k for the exponent m."""
    mul, minima, digit_of, k_of = ctx.group.mul, ctx.minima, ctx.digit_of, ctx.k_of
    r, e, count = len(minima), ctx.group.identity_index, len(configurations)
    # per slot, each configuration's coset minimum there, and P_j
    vals = [[minima[v // place % r] for v in configurations]
            for place in map(r.__pow__, range(ctx.exponent + 2))]
    prefixes = [[e] * count]
    for m in vals[:-1]:
        prefixes.append([mul[x][y] for x, y in zip(prefixes[-1], m)])
    changes, factors, s = [], [e] * count, [e] * count
    for m, p in zip(reversed(vals), reversed(prefixes)):
        u = [mul[x][y] for x, y in zip(p, s)]
        changes.append([digit_of[z] - digit_of[y] for z, y in zip(u, m)])
        factors = [mul[k][k_of[z]] for k, z in zip(factors, u)]
        s = [mul[x][y] for x, y in zip(m, s)]
    changes.reverse()
    return changes, factors


def _ladder_act(slots: tuple, places: Sequence[int]) -> Tuple[List[int], List[int]]:
    """A ladder's (shifts, factors) on the configurations of `slots`, their
    `_ladder_slots`: each slot's digit change weighed by the place value of
    its coordinate."""
    changes, factors = slots
    shifts = [0] * len(factors)
    for p, change in zip(places, changes):
        shifts = [t + c * p for t, c in zip(shifts, change)]
    return shifts, factors


def index_images(ctx: CPContext, word: AutWord, indices: Iterable[int]) -> List[int]:
    """The word's action on a list of enumeration indices, built without
    elements; CapacityError. On the list's pairs (s, k) a generator at a
    time, its `_window_action` read as runs (`CPContext.digit_runs`): a
    permutation adds the weighted digits to s in the pass that reads them, a
    ladder sums them to v, and s gains the shift `_ladder_act` gives on the
    distinct v, and k its K factor when one is not 1."""
    ctx.place(max(word.max_coord(), 0))
    steps = [(ctx.digit_runs(w), places) for w, places in (_window_action(ctx, g) for g in word.gens)]
    mul, e, (ss, ks) = ctx.group.mul, ctx.group.identity_index, ctx.pairs_of(indices)
    for runs, places in steps:
        vs = ss if places is None else repeat(0)
        for p, m, w in runs:
            vs = [v + s // p % m * w for v, s in zip(vs, ss)]
        if places is not None:
            distinct = list(set(vs))
            shifts, factors = _ladder_act(_ladder_slots(ctx, distinct), places)
            if factors.count(e) < len(factors):
                factor_of = dict(zip(distinct, factors))
                ks = [mul[k][factor_of[v]] for k, v in zip(ks, vs)]
            vs = list(map(add, ss, map(dict(zip(distinct, shifts)).__getitem__, vs)))
        ss = vs
    return ctx.indices_of_pairs(ss, ks)


def level_images(ctx: CPContext, word: AutWord, n: int) -> List[int]:
    """index_images(ctx, word, range(level_size(n))), computed one
    generator at a time on level tables; InputError if n < 1 or the word
    touches a coordinate at or above n.

    A generator (`_window_action`) moves each level-n pair's s by its
    weighted digit sum v (`CPContext.digit_sums` lists v for every s), or
    for a ladder by its shift on the whole window table, the r^|W|
    configurations v of its window W, which lies below n. Every ladder has
    exponent + 2 slots, so the table's `_ladder_slots` are built at the
    word's first ladder and read by the others. The pairs go back to
    indices through `CPContext.join_level`.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    if word.max_coord() >= n:
        raise InputError("word touches coordinates at or above the level")
    ctx.level_size(n)  # CapacityError above MAX_COSETS
    mul, r, e = ctx.group.mul, len(ctx.minima), ctx.group.identity_index
    # kfac stays None, every K factor 1, until a ladder gives another
    state, kfac, slots = array("l", range(r**n)), None, None
    for gen in word.gens:
        weights, places = _window_action(ctx, gen)
        sums = ctx.digit_sums(n, [weights.get(c, 0) for c in range(max(weights, default=-1) + 1)])
        vs = list(map(sums.__getitem__, state))
        if places is not None:
            slots = slots or _ladder_slots(ctx, range(r ** len(places)))
            shift, factor = _ladder_act(slots, places)
            if factor.count(e) < len(factor):
                kfac = [mul[a][factor[v]] for a, v in zip(kfac or repeat(e), vs)]
            vs = map(shift.__getitem__, vs)
        state = array("l", map(add, state, vs))
    return ctx.join_level(state, kfac)


def apply_word(ctx: CPContext, word: AutWord, x: int) -> int:
    return index_images(ctx, word, [x])[0]


def apply_perm(ctx: CPContext, perm: Perm, x: int) -> int:
    return apply_word(ctx, AutWord((perm,)), x)


def apply_beta_star(ctx: CPContext, bs: BetaStar, x: int) -> int:
    return apply_word(ctx, AutWord((bs,)), x)


# ---------------------------------------------------------------------------
# The copy automorphisms alpha_{I, i0, j0}
# ---------------------------------------------------------------------------


def alpha_word(ctx: CPContext, I: Iterable[int], i0: int, j0: int) -> AutWord:
    """A word copying the entry at i0 onto every coordinate of I, for
    elements trivial on I and j0. Built per exponent-sized block: ladder on
    (i0, block..., j0) then the transposition (i0 j0)."""
    coords = list(I)
    block_coords = sorted(set(coords))
    if len(block_coords) != len(coords):
        raise InputError("I must not repeat coordinates")
    m = ctx.exponent
    if i0 in block_coords or j0 in block_coords:
        raise InputError("i0 and j0 must avoid I")
    if i0 == j0:
        raise InputError("i0 and j0 must differ")
    if len(block_coords) % m != 0:
        raise InputError(f"exponent {m} must divide |I| = {len(block_coords)}")
    ctx.place(max(i0, j0, *block_coords))  # CapacityError past the cap a word acts within
    gens: List[AutGenerator] = []
    swap = Perm.from_mapping({i0: j0, j0: i0})
    for start in range(0, len(block_coords), m):
        block = block_coords[start : start + m]
        gens.append(BetaStar((i0, *block, j0)))
        gens.append(swap)
    return AutWord(tuple(gens))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    """`verify_automorphism`'s outcome at one level: ok, or its first failure and witness."""
    ok: bool
    level: int
    size: int
    pairs_checked: int
    exhaustive: bool
    failure: Optional[str] = None
    witness: Optional[tuple] = None


# the pair budget of the homomorphism law check
SAMPLE_PAIRS = 100_000


def verify_automorphism(
    ctx: CPContext, word: AutWord, n: int, rng: Optional[random.Random] = None
) -> VerifyReport:
    """Check that the word acts as an automorphism of the level-n subgroup.

    The level-n elements have the indices 0 .. size-1, so the map is the
    list `level_images` of their images: one window table per generator,
    its window action over the r^|W| configurations, spread over the
    level's digit vectors. An image at or above size escapes the level.
    Bijectivity is exhaustive; the homomorphism law,
    images[law(a, b)] == law(images[a], images[b]), is checked on every
    pair (x-major over range(size)) when size^2 is at most `SAMPLE_PAIRS`,
    and otherwise on `SAMPLE_PAIRS` pairs from `_sampled_pairs`, each
    index rng.getrandbits(size.bit_length()) drawn again until below size,
    as rng.randrange(size) draws it. `CPContext.law_check` checks the
    pairs, given two evaluations per pair: two reads of the level's tables,
    built for this check, when they have no more entries than that, as
    for Q8 level 7, else the index law, as for Q8 level 8. A failing pair
    is returned as indices.
    """
    images = level_images(ctx, word, n)
    size = len(images)
    if max(images) >= size:
        escaped = next(i for i, j in enumerate(images) if j >= size)
        witness = (escaped, images[escaped])
        return VerifyReport(False, n, size, 0, False, "image escapes level", witness)
    if len(set(images)) != size:
        return VerifyReport(False, n, size, 0, False, "not injective", None)

    exhaustive = size * size <= SAMPLE_PAIRS
    if exhaustive:
        count, pairs = size * size, product(range(size), repeat=2)
    else:
        count, pairs = SAMPLE_PAIRS, _sampled_pairs(rng or random.Random(0), size, SAMPLE_PAIRS)
    checked, witness = ctx.law_check(n, images, pairs, 2 * count)
    if witness is not None:
        return VerifyReport(False, n, size, checked, exhaustive, "homomorphism law fails", witness)
    return VerifyReport(True, n, size, checked, exhaustive)


def _draws(getrandbits, n: int) -> Iterator[int]:
    """Indices below n without end, each drawn by the rejection loop of
    random.Random.randrange(n): getrandbits(n.bit_length()) until below n.
    So the draws and the end state are randrange's, without its two Python
    calls per index."""
    bits = n.bit_length()
    while True:
        x = getrandbits(bits)
        if x < n:
            yield x


def _sampled_pairs(rng: random.Random, size: int, count: int) -> Iterator[Tuple[int, int]]:
    """`count` pairs of consecutive `_draws` below size."""
    draws = _draws(rng.getrandbits, size)
    return islice(zip(draws, draws), count)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def word_to_json(word: AutWord) -> list:
    out = []
    for gen in word.gens:
        if isinstance(gen, Perm):
            out.append({"perm": gen.cycles()})
        else:
            out.append({"beta": list(gen.coords)})
    return out


def _int_list(doc) -> bool:
    return isinstance(doc, list) and all(type(x) is int for x in doc)


def word_from_json(doc: list) -> AutWord:
    """The word of a `word_to_json` list; InputError unless each entry is
    {"perm": non-empty integer cycles} or {"beta": integer coordinates}."""
    if not isinstance(doc, list):
        raise InputError(f"word JSON must be a list of generators: {shown(repr(doc))}")
    gens: List[AutGenerator] = []
    for item in doc:
        perm = beta = None
        if isinstance(item, dict) and len(item) == 1:
            perm, beta = item.get("perm"), item.get("beta")
        if isinstance(perm, list) and all(_int_list(c) and c for c in perm):
            gens.append(Perm.from_cycles(perm))
        elif _int_list(beta):
            gens.append(BetaStar(tuple(beta)))
        else:
            raise InputError(f"bad generator entry {shown(repr(item))}")
    return AutWord(tuple(gens))

"""Generators of the automorphism group: finitary coordinate permutations
and the self-inverse ladder maps, plus words in them and verification. An
element is its enumeration index (see `central_product`).

A `Perm` stores the "moves" convention: the value at coordinate j is moved
to coordinate perm[j]. Each generator is stated once (`_window_action`),
as weights on the coset digits it touches: a permutation's weighted digit
sum moves its digits, a ladder's is its window configuration, whose shift
and K factor it computes once. A word acts on lists of enumeration indices
(`index_images`) by those sums on the pairs (s, k), a generator and a run
of consecutive digits (`CPContext.digit_runs`) at a time, building no
element; `apply_word` is its view on one index. `level_images` maps a
level's indices range(size) by the same sums over the whole level;
`verify_automorphism` checks the law on them through tables of the level's
products, built for the check (`CPContext.level_law`).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import product
from operator import add
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .central_product import CPContext
from .errors import InputError


@dataclass(frozen=True)
class Perm:
    moves: Tuple[Tuple[int, int], ...]  # sorted (source, target) pairs

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


@dataclass(frozen=True)
class BetaStar:
    coords: Tuple[int, ...]

    def __post_init__(self):
        if not self.coords:
            raise InputError("a ladder needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise InputError("ladder coordinates must be distinct")
        if any(c < 0 for c in self.coords):
            raise InputError("negative ladder coordinate")

    def max_coord(self) -> int:
        return max(self.coords)


AutGenerator = Union[Perm, BetaStar]


@dataclass(frozen=True)
class AutWord:
    gens: Tuple[AutGenerator, ...]

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


def _window_action(ctx: CPContext, gen: AutGenerator) -> Tuple[Dict[int, int], Optional[Callable]]:
    """The generator as (weights, act) on the pair (s, k): it reads the sum
    v of d_c(s)·weights[c] over the coordinates c it touches. A permutation
    weighs each move (src, tgt) r^tgt - r^src, so s + v has its digits
    moved; its act is None and k stays. A ladder weighs its window's j-th
    coordinate r^j, so v is the window's configuration, and act(v) =
    (shift, K factor) takes (s, k) to (s + shift, k·factor): each slot
    gets the ordered product of the other slots' coset minima, keeps its
    digit and folds its K factor into k, once per configuration, as act
    remembers each result. That ignores the held-back k, which is right
    because K is central: k would enter the m+1 other slots of a window on
    coordinate 0, and k^(m+1) = k for the exponent m. InputError for a
    ladder of other than exponent + 2 coordinates.
    """
    r, place = len(ctx.minima), ctx.place
    if isinstance(gen, Perm):
        return {src: place(tgt) - place(src) for src, tgt in gen.moves}, None
    if len(gen.coords) != ctx.exponent + 2:
        m, got = ctx.exponent + 2, len(gen.coords)
        raise InputError(f"ladder needs exponent+2 = {m} coordinates, got {got}")
    mul, e, minima = ctx.group.mul, ctx.group.identity_index, ctx.minima
    digit_of, k_of, places = ctx.digit_of, ctx.k_of, list(map(place, gen.coords))
    memo: Dict[int, Tuple[int, int]] = {}

    def ladder(v: int) -> Tuple[int, int]:
        if v in memo:
            return memo[v]
        ds = [v // r**j % r for j in range(len(places))]
        vals, prefix, p, s = [minima[d] for d in ds], [], e, e
        for u in vals:
            prefix.append(p)
            p = mul[p][u]
        shift, k = 0, e
        for j in reversed(range(len(vals))):
            u, s = mul[prefix[j]][s], mul[vals[j]][s]
            shift += (digit_of[u] - ds[j]) * places[j]
            k = mul[k][k_of[u]]
        memo[v] = shift, k
        return shift, k

    return {c: r**j for j, c in enumerate(gen.coords)}, ladder


def _word_kernel(ctx: CPContext, word: AutWord) -> Callable[[Iterable[int]], List[int]]:
    """The word on lists of indices, each generator's `_window_action` read as
    runs (`CPContext.digit_runs`): over the pairs (s, k) the reads sum to v, a
    ladder maps v to its shift and K factor, and s gains v; CapacityError."""
    ctx.place(max(word.max_coord(), 0))
    steps = [(ctx.digit_runs(w), act) for w, act in (_window_action(ctx, g) for g in word.gens)]
    mul = ctx.group.mul

    def images(indices: Iterable[int]) -> List[int]:
        ss, ks = ctx.pairs_of(indices)
        for runs, act in steps:
            vs = [0] * len(ss)
            for p, m, w in runs:
                vs = [v + s // p % m * w for v, s in zip(vs, ss)]
            if act is not None:
                acted = list(map(act, vs))
                vs, ks = [v for v, _ in acted], [mul[k][f] for k, (_, f) in zip(ks, acted)]
            ss = list(map(add, ss, vs))
        return ctx.indices_of_pairs(ss, ks)

    return images


def index_images(ctx: CPContext, word: AutWord, indices: Iterable[int]) -> List[int]:
    """The word's action on a list of enumeration indices, a generator at a
    time, built without elements."""
    return _word_kernel(ctx, word)(indices)


def level_images(ctx: CPContext, word: AutWord, n: int) -> List[int]:
    """index_images(ctx, word, range(level_size(n))), computed one
    generator at a time on level tables; InputError if n < 1 or the word
    touches a coordinate at or above n.

    A generator (`_window_action`) moves each level-n pair's s by its
    weighted digit sum v (`CPContext.digit_sums` lists v for every s), or
    for a ladder by the shift of its act tabulated over the r^|W|
    configurations v of its window W, which lies below n. The pairs go
    back to indices through `CPContext.join_level`.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    if word.max_coord() >= n:
        raise InputError("word touches coordinates at or above the level")
    ctx.level_size(n)  # CapacityError above MAX_COSETS
    mul, r, e = ctx.group.mul, len(ctx.minima), ctx.group.identity_index
    state, kfac = array("l", range(r**n)), [e] * r**n
    for gen in word.gens:
        weights, act = _window_action(ctx, gen)
        sums = ctx.digit_sums(n, [weights.get(c, 0) for c in range(max(weights, default=-1) + 1)])
        vs = list(map(sums.__getitem__, state))
        if act is not None:
            shift, factor = zip(*map(act, range(r ** len(weights))))
            kfac = [mul[a][factor[v]] for a, v in zip(kfac, vs)]
            vs = map(shift.__getitem__, vs)
        state = array("l", map(add, state, vs))
    return ctx.join_level(n, state, kfac)


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
    ok: bool
    level: int
    size: int
    pairs_checked: int
    exhaustive: bool
    failure: Optional[str] = None
    witness: Optional[tuple] = None


def verify_automorphism(
    ctx: CPContext,
    word: AutWord,
    n: int,
    sample_pairs: int = 100_000,
    rng: Optional[random.Random] = None,
) -> VerifyReport:
    """Check that the word acts as an automorphism of the level-n subgroup.

    The level-n elements have the indices 0 .. size-1, so the map is the
    list `level_images` of their images: one window table per generator,
    its window action over the r^|W| configurations, spread over the
    level's digit vectors. An image at or above size escapes the level.
    Bijectivity is exhaustive; the homomorphism law,
    images[law(a, b)] == law(images[a], images[b]), is checked on every
    pair (x-major over range(size)) when size^2 is at most `sample_pairs`,
    and otherwise on `sample_pairs` pairs from `_sampled_pairs`, each
    index rng.getrandbits(size.bit_length()) drawn again until below size,
    as rng.randrange(size) draws it. The law is `CPContext.level_law`,
    given the two evaluations per pair: two reads of the level's tables,
    built for this check, when they have no more entries than that, as
    for Q8 level 7, else the index law, as for Q8 level 8. A failing pair
    is returned as indices.
    """
    images = level_images(ctx, word, n)
    size = len(images)
    escaped = next((i for i, j in enumerate(images) if j >= size), None)
    if escaped is not None:
        witness = (escaped, images[escaped])
        return VerifyReport(False, n, size, 0, False, "image escapes level", witness)
    if len(set(images)) != size:
        return VerifyReport(False, n, size, 0, False, "not injective", None)

    exhaustive = size * size <= sample_pairs
    if exhaustive:
        count, pairs = size * size, product(range(size), repeat=2)
    else:
        count, pairs = sample_pairs, _sampled_pairs(rng or random.Random(0), size, sample_pairs)
    law = ctx.level_law(n, 2 * count)
    checked = 0
    for a, b in pairs:
        if images[law(a, b)] != law(images[a], images[b]):
            failure = "homomorphism law fails"
            return VerifyReport(False, n, size, checked, exhaustive, failure, (a, b))
        checked += 1
    return VerifyReport(True, n, size, checked, exhaustive)


def _sampled_pairs(rng: random.Random, size: int, count: int) -> Iterator[Tuple[int, int]]:
    """`count` pairs of indices below size, each drawn by the rejection loop
    of random.Random.randrange(size): getrandbits(size.bit_length()) until
    below size. So the draws and the end state are randrange's, without its
    two Python calls per index."""
    getrandbits, bits = rng.getrandbits, size.bit_length()
    for _ in range(count):
        a = getrandbits(bits)
        while a >= size:
            a = getrandbits(bits)
        b = getrandbits(bits)
        while b >= size:
            b = getrandbits(bits)
        yield a, b


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
        raise InputError(f"word JSON must be a list of generators: {doc!r}")
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
            raise InputError(f"bad generator entry {item!r}")
    return AutWord(tuple(gens))

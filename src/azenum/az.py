"""End-to-end pipeline over the central product: normalize a family of
tuples, find a strongly embedded pair, build the shift-and-copy map from
the witness, realize it as a word in the generator set, and verify that
it maps one tuple to the other while preserving the element ordering;
the map and every check act on enumeration indices only, and an element
is its index (see `central_product`).

Order preservation is decided exactly. With B = gamma_n_order(l_i + 1) and
B′ = gamma_n_order(l_j + 1), β's digit-weight form (`beta_images`)
gives β(h·B + low) = h·B′ + β(low) < (h + 1)·B′ for low < B, so β
preserves the order on Γ iff it strictly increases on range(B). Lemma:
if the targets in `plan` are pairwise distinct (as build_beta's are, in
any order of its entries), that holds iff
(i) |G/K| = 1 or max(plan[p]) strictly increases in p (for build_beta's
plan, the head f(p): each I_s lies below its letter's last occurrence), and
(ii) β strictly increases on Γ_{≤0} = range(|G|). Proof: let a < b differ
last at coordinate p. If p >= 1, under (i) the images differ last at
max(plan[p]) >= 1, in a's and b's digits at p; if max(plan[p']) >
max(plan[p]) for a p' < p, raising a's digit at p' and b's at p reverses
the order. If p = 0, the images differ only at source 0's targets and at
coordinate 0, which holds m·k for the coordinate-0 value c·k (c a coset
minimum, k in K) and the coset minimum m sent to target 0 (c when source 0
sends it; 1 in Γ_{≤0}). Two cosets compare at max(plan[0]) whatever m is,
and c·k, c·k′ compare as m·k, m·k′; so (ii) says that every coset, m's
among them, ranks its K multiples as 1 does. It holds in every context, as
`KGroupSpec.element_order` is coset-major; `run_az` still scans for it, on
a whole level's images, each β's weighted digit sum (`beta_level_images`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import eq, lt
from typing import Dict, Iterable, List, Tuple

from .automorphisms import AutWord, Perm, _draws, alpha_word, index_images, word_to_json
from .automorphisms import apply_word  # noqa: F401 (perfbench traces az.apply_word)
from .central_product import CPContext
from .errors import InputError, InsufficientFamilyError, Record
from .wqo import Word, capped_words, find_increasing_pair, last_appearance_order

MemberTuple = Tuple[int, ...]


@dataclass
class TupleFamily:
    """Members of Γ^arity, each a tuple of `arity` element indices of ctx."""
    ctx: CPContext
    arity: int
    members: List[MemberTuple]

    def __post_init__(self):
        for member in self.members:
            if len(member) != self.arity:
                raise InputError("member arity mismatch")


def letter_word(ctx: CPContext, member: MemberTuple) -> Word:
    """The member as a finite word over n-tuples of group elements: the
    i-th letter collects the i-th entries of the components' canonical
    minimal representatives (a column each), cut at the last nontrivial index."""
    reps = [ctx.minimal_representative(comp) for comp in member]
    length = max((rep[-1][0] + 1 for rep in reps if rep), default=0)
    columns = [[ctx.group.identity_index] * length for _ in reps]
    for column, rep in zip(columns, reps):
        for c, v in rep:
            column[c] = v
    return Word(tuple(zip(*columns)))


class NormalizedFamily(Record):
    __slots__ = (
        "ctx",
        "arity",
        "kept",  # original member indices, ascending
        "words",  # aligned with kept
        "members",
        "alphabet",  # letters by last appearance (shared)
    )


def normalize_family(fam: TupleFamily) -> NormalizedFamily:
    """Pigeonhole filtering: bucket members by letter set, last-appearance
    order, and per-letter multiplicity residues modulo the exponent; keep
    the largest bucket with at least two members."""
    if len(fam.members) < 2:
        raise InsufficientFamilyError("need at least 2 members")
    m = fam.ctx.exponent
    buckets: Dict[object, List[int]] = {}
    words = [letter_word(fam.ctx, member) for member in fam.members]
    for idx, word in enumerate(words):
        order = last_appearance_order(word)
        counts = Counter(word.letters)
        residues = tuple(counts[letter] % m for letter in order)
        buckets.setdefault((order, residues), []).append(idx)
    best = max(buckets.values(), key=len)
    if len(best) < 2:
        raise InsufficientFamilyError(
            "no two members share letter set, last-appearance order and "
            "multiplicity residues; supply more members"
        )
    kept = tuple(best)
    return NormalizedFamily(
        ctx=fam.ctx,
        arity=fam.arity,
        kept=kept,
        words=tuple(words[k] for k in kept),
        members=tuple(fam.members[k] for k in kept),
        alphabet=last_appearance_order(words[kept[0]]),
    )


class BetaMap(Record):
    """β's copy data for the strongly embedded pair (i, j) of a normalized family."""

    __slots__ = (
        "ctx",
        "i",  # original family indices
        "j",
        "word_i",
        "word_j",
        "f",  # the embedding of word_i into word_j (wqo.Embedding)
        "i_s",  # per letter: last occurrence in word_j
        "I_s",  # per letter: target positions off the image
        "member_i",
        "member_j",
        # per source position l <= l_i: the target positions, f(l) and then
        # I_s[letter] when f(l) is the letter's last occurrence in word_j
        "plan",
        "__dict__",  # the cached properties below
    )

    @cached_property
    def l_i(self) -> int:
        return len(self.word_i) - 1

    @cached_property
    def l_j(self) -> int:
        return len(self.word_j) - 1

    @cached_property
    def shift(self) -> int:
        return self.l_j - self.l_i

    @cached_property
    def reads(self) -> Tuple[int, int, List[Tuple[int, int, int]]]:
        """`beta_images`' r^(l_i+1), its new place r^(l_j+1) and the runs up to l_i."""
        *weights, high = digit_weights(self, self.l_i + 2)
        return self.ctx.place(self.l_i + 1), high, self.ctx.digit_runs(dict(enumerate(weights)))


def build_beta(nf: NormalizedFamily) -> BetaMap:
    """Find a strongly embedded pair among the normalized words and read
    off the per-letter copy data from the witness."""
    result = find_increasing_pair(capped_words(nf.words), "star")
    if result is None:
        raise InsufficientFamilyError(
            "no strongly embedded pair in the bucket; supply more members"
        )
    pair_i, pair_j, emb = result.i, result.j, result.embedding
    w_i, w_j = nf.words[pair_i], nf.words[pair_j]
    if not w_i:
        raise InsufficientFamilyError(
            "the strongly embedded pair has empty words; supply non-identity members"
        )
    image = set(emb.image)
    i_s: Dict[tuple, int] = {}
    I_s: Dict[tuple, Tuple[int, ...]] = {}
    m = nf.ctx.exponent
    for letter in nf.alphabet:
        positions = [p for p, x in enumerate(w_j.letters) if x == letter]
        i_s[letter] = positions[-1]
        off = tuple(p for p in positions if p not in image)
        if len(off) % m != 0:
            raise AssertionError(
                f"exponent {m} does not divide |I_s| = {len(off)}"
            )
        I_s[letter] = off
    plan = []
    for t in emb.image:
        letter = w_j.letters[t]
        plan.append((t, *I_s[letter]) if i_s[letter] == t else (t,))
    return BetaMap(
        ctx=nf.ctx,
        i=nf.kept[pair_i],
        j=nf.kept[pair_j],
        word_i=w_i,
        word_j=w_j,
        f=emb,
        i_s=i_s,
        I_s=I_s,
        member_i=nf.members[pair_i],
        member_j=nf.members[pair_j],
        plan=tuple(plan),
    )


def digit_weights(bm: BetaMap, n: int) -> List[int]:
    """β's weight of each coordinate c < n: β(s) = Σ_c d_c(s)·weight[c] on
    the pair (s, k), with Σ_{t ∈ plan[c]} r^t up to l_i, so each position's
    coset digit follows the witness, fanning out over I_s when it lands on
    a letter's last occurrence, and r^(c + l_j - l_i) above l_i."""
    ctx, r = bm.ctx, len(bm.ctx.minima)
    # every target is hit once: f is injective and the I_s lie off its
    # image and apart from each other
    weights = [sum(map(ctx.place, targets)) for targets in bm.plan[:n]]
    high = ctx.place(bm.l_j) * r  # capped at the members' top coordinates
    return weights + [high * r ** (c - bm.l_i - 1) for c in range(bm.l_i + 1, n)]


def beta_images(bm: BetaMap, indices: Iterable[int]) -> List[int]:
    """The shift-and-copy map on a list of enumeration indices, on the pairs
    (s, k): β(s) = ⌊s / r^(l_i+1)⌋·r^(l_j+1) + Σ_p d_p(s)·Σ_{t ∈ plan[p]} r^t
    over the digits d_p of positions p up to l_i (`digit_weights`, read as
    `CPContext.digit_runs`). The K factor k of the coordinate-0 value enters
    each of the 1 + |I_s| targets of position 0, and k^(1+|I_s|) = k as K is
    central and the exponent divides |I_s|, so k passes through as is."""
    ctx, (low, high, runs) = bm.ctx, bm.reads
    ss, ks = ctx.pairs_of(indices)
    out = [s // low * high for s in ss]
    for p, m, w in runs:
        out = [o + s // p % m * w for o, s in zip(out, ss)]
    return ctx.indices_of_pairs(out, ks)


def beta_level_images(bm: BetaMap, n: int) -> List[int]:
    """beta_images(bm, range(level_size(n))), from one
    weighted digit sum per s < r^n (`CPContext.digit_sums`), k passing
    through."""
    ctx = bm.ctx
    sums = ctx.digit_sums(n, digit_weights(bm, n))
    return ctx.join_level(sums)


def apply_beta(bm: BetaMap, x: int) -> int:
    """The shift-and-copy map on one index, read from `beta_images`."""
    return beta_images(bm, [x])[0]


def min_word_levels(bm: BetaMap) -> Tuple[int, int]:
    """The least (l, l') accepted by beta_as_word."""
    l_prime = bm.l_j + 1
    return (l_prime + max(1, bm.shift), l_prime)


def beta_as_word(bm: BetaMap, l: int, l_prime: int) -> AutWord:
    """A word in the generators agreeing with the map on every element
    supported within {0,...,l'}: a permutation of {0,...,l} extending the
    witness and shifting (l_i, l'] by l_j - l_i, followed by one copy word
    per letter with a nonempty off-image set, anchored past l."""
    l_min, lp_min = min_word_levels(bm)
    if l_prime <= bm.l_j or l <= l_prime or l < l_prime + bm.shift:
        raise InputError(
            f"levels too small; minimal feasible (l, l') = ({l_min}, {lp_min})"
        )
    sigma: Dict[int, int] = {}
    for t in range(bm.l_i + 1):
        sigma[t] = bm.f.image[t]
    for t in range(bm.l_i + 1, l_prime + 1):
        sigma[t] = t + bm.shift
    free_targets = sorted(set(range(l + 1)) - set(sigma.values()))
    for t, target in zip(range(l_prime + 1, l + 1), free_targets):
        sigma[t] = target
    word = AutWord((Perm.from_mapping(sigma),))
    for letter in bm.i_s:
        if bm.I_s[letter]:
            word = word * alpha_word(
                bm.ctx, bm.I_s[letter], i0=bm.i_s[letter], j0=l + 1
            )
    return word


# ---------------------------------------------------------------------------
# End-to-end run with verification
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """`run_az`'s outcome: the pair, β's data, the emitted word and one report per claim."""
    ok: bool
    i: int
    j: int
    f: Tuple[int, ...]
    i_s: Dict[tuple, int]
    I_s: Dict[tuple, Tuple[int, ...]]
    levels: Tuple[int, int]
    word: AutWord
    reports: Dict[str, dict]
    seed: int
    depth: int
    failures: List[str]

    def to_json(self) -> dict:
        def letter_key(letter):
            return ",".join(str(v) for v in letter)

        return {
            "ok": self.ok,
            "i": self.i,
            "j": self.j,
            "f": list(self.f),
            "i_s": {letter_key(k): v for k, v in sorted(self.i_s.items())},
            "I_s": {
                letter_key(k): list(v) for k, v in sorted(self.I_s.items())
            },
            "levels": list(self.levels),
            "word": word_to_json(self.word),
            "reports": self.reports,
            "seed": self.seed,
            "depth": self.depth,
            "failures": self.failures,
        }


def run_az(fam: TupleFamily, depth: int = 500, seed: int = 0) -> Certificate:
    """Full pipeline plus verification on indices; the certificate reports
    (a) tuple mapping, (b) order preservation, on the whole level Γ_{≤L}
    holding `depth` elements and decided exactly by the lemma above, (c) the
    block identity of the index law at each coordinate in (l_i, l'], (d)
    agreement of the emitted word's `index_images` with `beta_images` on
    every singleton within l' and on 50 x in Γ_{≤t}, t < l' + 1, t and then x
    drawn as Random(seed).randrange draws them (`automorphisms._draws`)."""
    ctx = fam.ctx
    bm = build_beta(normalize_family(fam))
    size = ctx.gamma_n_order
    failures: List[str] = []
    reports: Dict[str, dict] = {}

    def report(name: str, key: str, count: int, of: int, **extra) -> None:
        reports[name] = {key: count, "of": of, **extra}
        if count != of:
            failures.append(name)

    # (a) the map sends the i-th member to the j-th, componentwise
    mapped = sum(map(eq, beta_images(bm, bm.member_i), bm.member_j))
    report("tuple_mapping", "components_ok", mapped, fam.arity)

    l, l_prime = min_word_levels(bm)
    r = len(ctx.minima)

    # (b) order preservation: every consecutive pair of the prefix level,
    # which holds Γ_{≤0} and so decides the lemma's (ii), and then its (i);
    # a finite Γ (K = G) is one level, scanned whole when depth exceeds it
    level = ctx.prefix_level(depth if r > 1 else min(depth, ctx.group.order))
    images = beta_level_images(bm, level + 1)
    tops = [max(targets) for targets in bm.plan] if r > 1 else []
    lower, upper = images[:-1] + tops[:-1], images[1:] + tops[1:]
    report("order_preservation", "ordered", sum(map(lt, lower, upper)), len(lower), level=level)

    # (c) the block identity, with h·B the top digit at each coordinate in
    # (l_i, l'] and low = B - 1; none when K = G, as no coordinate above 0 moves
    low, top = size(bm.l_i + 1) - 1, r - 1
    coords = range(bm.l_i + 1, l_prime + 1) if r > 1 else range(0)
    beta_low, *shifted = beta_images(bm, [low, *(top * size(c) + low for c in coords)])
    law = [b == top * size(c + bm.shift) + beta_low for c, b in zip(coords, shifted)]
    report("index_law", "ok", sum(law), len(law))

    # (d) the emitted word agrees on everything supported within l'
    word = beta_as_word(bm, l, l_prime)
    places = list(map(ctx.place, range(l_prime + 1)))
    xs = ctx.indices_of_pairs([d * p for p in places for d in ctx.digit_of], ctx.k_of * len(places))
    getrandbits = random.Random(seed).getrandbits
    levels = [_draws(getrandbits, size(t + 1)) for t in range(l_prime + 1)]
    pick = _draws(getrandbits, len(levels))
    xs += [next(levels[next(pick)]) for _ in range(50)]
    agree = sum(map(eq, index_images(ctx, word, xs), beta_images(bm, xs)))
    report("word_agreement", "agree", agree, len(xs))

    return Certificate(
        ok=not failures,
        i=bm.i,
        j=bm.j,
        f=bm.f.image,
        i_s=bm.i_s,
        I_s=bm.I_s,
        levels=(l, l_prime),
        word=word,
        reports=reports,
        seed=seed,
        depth=depth,
        failures=failures,
    )

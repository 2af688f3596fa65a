"""Subword orders on finite words: the classical deletion order, the
strengthened order with the covering condition, and pair-finders over word
streams.

The strong order is decided directly on the rightmost subword witness.
The column coding, which reduces the strong order to the classical one
on words sharing a last-appearance order, is kept as the paper's
reduction; tests check it, and the pair-finder does not use it.

Positions are 0-based throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .errors import CapacityError, InputError

Letter = Hashable


@dataclass(frozen=True)
class Word:
    letters: Tuple[Letter, ...]

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Embedding:
    """Strictly increasing target positions, one per source position."""

    image: Tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.image, self.image[1:])):
            raise InputError("embedding positions must strictly increase")

    def is_subword_witness(self, w1: Word, w2: Word) -> bool:
        return (
            len(self.image) == len(w1)
            and all(0 <= p < len(w2) for p in self.image)
            and all(w1.letters[i] == w2.letters[p] for i, p in enumerate(self.image))
        )

    def is_star_witness(self, w1: Word, w2: Word) -> bool:
        if not self.is_subword_witness(w1, w2):
            return False
        # covering: each letter's last occurrence in w2 is an image position
        last = {letter: p for p, letter in enumerate(w2.letters)}
        return set(last.values()) <= set(self.image)


def is_subword(w1: Word, w2: Word) -> Optional[Embedding]:
    """Greedy left-to-right deletion-order witness: each letter goes to its
    leftmost free position, so the image is the pointwise-least one."""
    target = w2.letters
    n = len(target)
    image = []
    pos = 0
    for letter in w1.letters:
        while pos < n and target[pos] != letter:
            pos += 1
        if pos >= n:
            return None
        image.append(pos)
        pos += 1
    return Embedding(tuple(image))


def rightmost_embedding(w1: Word, w2: Word) -> Optional[Embedding]:
    """The pointwise-maximal subword witness (greedy from the right)."""
    target = w2.letters
    image: List[int] = []
    pos = len(target) - 1
    for letter in reversed(w1.letters):
        while pos >= 0 and target[pos] != letter:
            pos -= 1
        if pos < 0:
            return None
        image.append(pos)
        pos -= 1
    return Embedding(tuple(reversed(image)))


def is_star_embedded(w1: Word, w2: Word) -> Optional[Embedding]:
    """Decide the strong order: a subword witness such that every target
    position is dominated by a same-letter image position.

    The rightmost witness dominates every witness pointwise, and a larger
    image covers at least as much, so the covering condition holds for
    some witness iff it holds for the rightmost one: the decision is one
    greedy pass from the right followed by the covering check of
    `Embedding.is_star_witness`.
    """
    emb = rightmost_embedding(w1, w2)
    if emb is None:
        return None
    return emb if emb.is_star_witness(w1, w2) else None


# ---------------------------------------------------------------------------
# Column coding
# ---------------------------------------------------------------------------


class _Pad:
    __slots__ = ()

    def __repr__(self):
        return "x"


PAD = _Pad()


def last_appearance_order(w: Word) -> Tuple[Letter, ...]:
    """The word's letters, ordered by their last occurrence."""
    last = {letter: i for i, letter in enumerate(w.letters)}
    return tuple(sorted(last, key=last.get))


def block_split(w: Word) -> Tuple[List[Tuple[Letter, ...]], Letter]:
    """Split into k blocks plus the trailing final letter.

    With letters ordered by last appearance, block 0 is the prefix before
    the last occurrence of the first letter and block l starts at the last
    occurrence of letter l-1; the final letter (the last occurrence of the
    last letter) is kept separate.
    """
    if len(w) == 0:
        raise InputError("cannot block-split the empty word")
    cuts = sorted({letter: i for i, letter in enumerate(w.letters)}.values())
    blocks = [w.letters[a:b] for a, b in zip([0] + cuts[:-1], cuts)]
    return blocks, w.letters[cuts[-1]]


def column_word(w: Word) -> Word:
    """The coded word: position t carries the tuple of t-th letters of all
    blocks, padded with the out-of-alphabet sentinel."""
    blocks, _ = block_split(w)
    height = max((len(b) for b in blocks), default=0)
    return Word(
        tuple(
            tuple(b[t] if t < len(b) else PAD for b in blocks)
            for t in range(height)
        )
    )


def decode_column_embedding(w1: Word, w2: Word, fprime: Embedding) -> Embedding:
    """Turn a deletion-order witness between the coded words into a strong
    witness between the originals (blockwise position arithmetic; the
    trailing letters map to each other)."""
    blocks1, _ = block_split(w1)
    blocks2, _ = block_split(w2)
    if len(blocks1) != len(blocks2):
        raise InputError("words have different block counts")
    offsets2 = [0]
    for b in blocks2[:-1]:
        offsets2.append(offsets2[-1] + len(b))
    image = []
    for q, b in enumerate(blocks1):
        for r in range(len(b)):
            image.append(offsets2[q] + fprime.image[r])
    image.append(len(w2) - 1)
    return Embedding(tuple(image))


# ---------------------------------------------------------------------------
# Pair finders over word streams
# ---------------------------------------------------------------------------


# The most words, and letters in all, that `wqo pair` and `az run` pass to
# a pair search; with no pair its cost grows about quadratically in the
# words. 2,000 distinct 16-letter words with equal letter counts and one
# last-appearance order take about 2.4 s in deletion mode and 2.9 s in
# strong mode (Python 3.11, one core of a shared 2-core x86-64 host).
MAX_PAIR_WORDS = 2_000
MAX_PAIR_LETTERS = 32_000


def capped_words(words: Iterable[Word]) -> List[Word]:
    """The words as a list, read no further than one past MAX_PAIR_WORDS;
    CapacityError past either cap, decided before any scan."""
    out = list(islice(words, MAX_PAIR_WORDS + 1))
    if len(out) > MAX_PAIR_WORDS or sum(map(len, out)) > MAX_PAIR_LETTERS:
        raise CapacityError(
            f"a pair search takes at most {MAX_PAIR_WORDS} words and {MAX_PAIR_LETTERS} letters"
        )
    return out


@dataclass(frozen=True)
class PairResult:
    i: int
    j: int
    embedding: Embedding


def find_increasing_pair(words: Iterable[Word], mode: str) -> Optional[PairResult]:
    """First (i, j) with i < j and w_i below w_j in the requested order,
    least in j and then in i.

    One scan serves both modes: each newcomer is decided against earlier
    words by `is_subword` (deletion) or `is_star_embedded` (strong),
    skipping only words that cannot lie below it. Strong mode buckets words
    by last-appearance order: only its own position covers a letter's last
    occurrence in the target, so a strong witness maps each letter's last
    occurrence onto it and both words share that order. Within a bucket,
    words are grouped by letter counts, and groups whose counts the
    newcomer's do not dominate are skipped: either witness maps letters
    injectively onto equal letters. A group keeps ascending i and is
    scanned up to its first hit or the least i hit so far, so the least
    i over all groups is returned.
    """
    if mode not in ("higman", "star"):
        raise InputError(f"unknown mode {mode!r}")
    strong = mode == "star"
    below = is_star_embedded if strong else is_subword
    buckets: Dict[Optional[Tuple[Letter, ...]], Dict[frozenset, List[Tuple[int, Word]]]] = {}
    for j, w in enumerate(words):
        counts = Counter(w.letters)
        groups = buckets.setdefault(last_appearance_order(w) if strong else None, {})
        best: Optional[PairResult] = None
        for group_counts, group in groups.items():
            if any(counts[letter] < n for letter, n in group_counts):
                continue
            for i, earlier in group:
                if best is not None and i >= best.i:
                    break
                emb = below(earlier, w)
                if emb is not None:
                    best = PairResult(i, j, emb)
                    break
        if best is not None:
            return best
        groups.setdefault(frozenset(counts.items()), []).append((j, w))
    return None


# ---------------------------------------------------------------------------
# Text interface ("a,b,c" words; files with one word per line)
# ---------------------------------------------------------------------------


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text:
        return Word(())
    return Word(tuple(item.strip() for item in text.split(",")))


def format_word(w: Word) -> str:
    return ",".join(str(x) for x in w.letters)

"""Subword orders on finite words: the classical deletion order, the
strengthened order with the covering condition, and pair-finders over word
streams.

The pair-finder decides packed groups of earlier words at once by greedy
leftmost matching, which succeeds whenever a witness exists: one shift-and
step per letter of the newcomer advances every word of a group. It skips a
group only when its letter set is not within the newcomer's or, in strong
mode, its last-appearance order differs: a witness maps letters onto equal
letters, and a strong one last occurrences onto last occurrences.

The strong order is decided directly on the rightmost subword witness.
The column coding, which reduces the strong order to the classical one
on words sharing a last-appearance order, is kept as the paper's
reduction; tests check it, and the pair-finder does not use it.

Positions are 0-based throughout.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from .errors import CapacityError, InputError, Record

Letter = Hashable


class Word(Record):
    __slots__ = ("letters",)

    def __len__(self) -> int:
        return len(self.letters)


class Embedding(Record):
    """Strictly increasing target positions, one per source position."""

    __slots__ = ("image",)

    def __init__(self, image: Tuple[int, ...]):
        if any(b <= a for a, b in zip(image, image[1:])):
            raise InputError("embedding positions must strictly increase")
        super().__init__(image)

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
# last-appearance order take about 0.03 s in either mode (Python 3.11, one
# core of a shared 2-core x86-64 host). Packed letter masks hold most of its
# memory: a group's d letters occur in each word and in the newcomer, so
# with P letters packed d + P <= MAX_PAIR_LETTERS, and each mask ends at a
# distinct position of the last packed word, so all masks hold at most about
# d*P - d*d/2 <= MAX_PAIR_LETTERS**2 / 6 bits (20.3 MiB; three permutations).
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


class PairResult(Record):
    __slots__ = ("i", "j", "embedding")


class _Group:
    """Earlier words of one letter set in ascending i, packed once a
    newcomer scans them: word k owns bits start_k to its end bit start_k
    + |w_k|, word k + 1 starts just above, and each letter's mask has a bit
    at each of its positions."""

    __slots__ = ("pending", "masks", "ends", "at_end")

    def __init__(self):
        self.pending, self.masks, self.at_end, self.ends = [], {}, {}, 0

    def hits(self, letters: Tuple[Letter, ...]) -> Iterator[Tuple[int, Word]]:
        """Pack the pending words, then yield the words that are subwords of
        `letters`, in ascending i."""
        masks = self.masks
        for i, word in self.pending:
            start = self.ends.bit_length()
            local: Dict[Letter, int] = {}
            for p, letter in enumerate(word.letters):
                local[letter] = local.get(letter, 0) | 1 << p
            while local:  # popped, so the word's masks and the group's are never both whole
                letter, bits = local.popitem()
                masks[letter] = masks.get(letter, 0) | bits << start
            self.ends |= 1 << start + len(word)
            self.at_end[start + len(word)] = i, word
        self.pending.clear()
        state = self.ends << 1 | 1  # the start bits, and a spare past the last word
        for letter in letters:
            state += state & masks.get(letter, 0)
        done = state & self.ends
        while done:
            low = done & -done
            yield self.at_end[low.bit_length() - 1]
            done ^= low


def find_increasing_pair(words: Iterable[Word], mode: str) -> Optional[PairResult]:
    """First (i, j) with i < j and w_i below w_j in the requested order,
    least in j and then in i.

    Greedy leftmost matching decides the deletion order: every witness
    dominates the greedy image pointwise, so it fails only when none
    exists. A newcomer runs it on all packed words of a group at once
    (shift-and; Baeza-Yates and Gonnet 1992): word k's state bit sits at
    start_k plus the letters matched, and for each letter a, hit = state &
    mask[a]; state ^= hit ^ (hit << 1), which is state += hit, moves up the
    bit of every word whose next letter is a. No mask holds an end bit, so
    no carry leaves a word, and then the bits of state & ends are exactly
    the newcomer's earlier subwords. Deletion mode takes the least i among
    them; strong mode, whose order implies it, tries them with
    `is_star_embedded`, in ascending i below the least i found so far.

    The filters are necessary conditions, so they lose no pair. Either
    witness maps letters onto equal letters, so a group whose letter set is
    not within the newcomer's is skipped. In strong mode only its own
    position covers a letter's last occurrence in the target, so a strong
    witness maps each last occurrence onto one and both words share a
    last-appearance order, which buckets the groups.
    """
    if mode not in ("higman", "star"):
        raise InputError(f"unknown mode {mode!r}")
    strong = mode == "star"
    below = is_star_embedded if strong else is_subword
    buckets: Dict[Optional[Tuple[Letter, ...]], Dict[frozenset, _Group]]
    buckets = defaultdict(lambda: defaultdict(_Group))
    for j, w in enumerate(words):
        letters = frozenset(w.letters)
        groups = buckets[last_appearance_order(w) if strong else None]
        best: Optional[PairResult] = None
        for group_letters, group in groups.items():
            if not group_letters <= letters:
                continue
            for i, earlier in group.hits(w.letters):
                if best is not None and i >= best.i:
                    break
                emb = below(earlier, w)
                if emb is not None:
                    best = PairResult(i, j, emb)
                    break
        if best is not None:
            return best
        groups[letters].pending.append((j, w))
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

"""Seeded input generators for the benchmark workloads.

Each generator draws from a `random.Random` that the caller seeds per
item, so the same (workload, seed, item) always yields the same input.
The generators return plain data (tuples of ints and strings); the
workloads turn that data into azenum objects outside the timed region.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

Letter = Tuple[int, ...]


def item_rng(workload: str, seed: int, item: int) -> random.Random:
    """The RNG for one item; string seeding is stable across interpreters."""
    return random.Random(f"{workload}/{seed}/{item}")


def coset_minima(mul: Sequence[Sequence[int]], k_subgroup: Sequence[int],
                 element_order: Sequence[int]) -> List[int]:
    """The least element of every coset gK under the given element order.

    Tuples built from these values are their own reverse-lex minimal
    representatives, so their letter words can be read off directly."""
    rank = {g: pos for pos, g in enumerate(element_order)}
    minima = {
        min((mul[g][k] for k in k_subgroup), key=rank.__getitem__)
        for g in range(len(mul))
    }
    return sorted(minima, key=rank.__getitem__)


def planted_family(rng: random.Random, values: Sequence[int], identity: int,
                   exponent: int, arity: int = 4, max_support: int = 12
                   ) -> Tuple[List[Letter], List[Letter]]:
    """Letter words of a base member and of one pumped partner.

    The base has `arity` components with random coset-minimal entries on
    coordinates up to `max_support - exponent - 1`. The partner prefixes
    the base word with runs of `exponent` copies of base letters, which
    keeps the letter set, the last-appearance order and every
    multiplicity residue, so (base, partner) is a strongly embedded pair
    with both supports at most `max_support`."""
    while True:
        top = rng.randint(0, max_support - exponent - 1)
        comps = [
            {c: rng.choice(values)
             for c in rng.sample(range(top + 1), rng.randint(1, top + 1))}
            for _ in range(arity)
        ]
        length = 1 + max(
            (c for comp in comps for c, v in comp.items() if v != identity),
            default=-1,
        )
        if length:
            break
    base = [tuple(comp.get(i, identity) for comp in comps) for i in range(length)]
    prefix: List[Letter] = []
    for _ in range(rng.randint(1, (max_support - length) // exponent)):
        prefix.extend([rng.choice(base)] * exponent)
    return base, prefix + base


def member_supports(letters: Sequence[Letter], identity: int) -> List[dict]:
    """Per component, the support {coordinate: value} spelled by a word."""
    return [
        {i: letter[c] for i, letter in enumerate(letters) if letter[c] != identity}
        for c in range(len(letters[0]))
    ]


def automorphism_word(rng: random.Random, item: int, exponent: int,
                      level: int = 7) -> List[Tuple[str, Tuple[int, ...]]]:
    """A word of 1-4 generators acting below `level`, as (kind, coords).

    Each generator is a ladder window of `exponent + 2` distinct
    coordinates ("beta") or a transposition ("swap"); both are
    automorphisms, so every such word is one. The item number fixes how
    many generators of each kind the word has (item k has 1 + k % 4, and
    the ladder count alternates between rounding down and up every four
    items), so every run mixes the same word costs; the seed draws the
    coordinates and the order of the generators."""
    size = 1 + item % 4
    ladders = (size + (item // 4) % 2) // 2
    kinds = ["beta"] * ladders + ["swap"] * (size - ladders)
    rng.shuffle(kinds)
    return [
        (kind, tuple(rng.sample(range(level), exponent + 2 if kind == "beta" else 2)))
        for kind in kinds
    ]


def antichain_stream(rng: random.Random, size: int = 600, length: int = 12,
                     alphabet: Sequence[str] = ("a", "b")
                     ) -> Tuple[List[Tuple[str, ...]], int]:
    """`size` distinct words of one length, then one planted word.

    Distinct words of equal length form an antichain in both the deletion
    order and the strong order. The planted word is a random earlier word
    with a prefix of its own letters pumped in front, so it lies above
    that word in both orders and the first increasing pair ends at index
    `size`. Returns the words and the index of the source word."""
    codes = rng.sample(range(len(alphabet) ** length), size)
    words = []
    for code in codes:
        letters = []
        for _ in range(length):
            code, digit = divmod(code, len(alphabet))
            letters.append(alphabet[digit])
        words.append(tuple(letters))
    source = rng.randrange(size)
    pump = tuple(rng.choice(words[source]) for _ in range(rng.randint(1, 4)))
    words.append(pump + words[source])
    return words, source

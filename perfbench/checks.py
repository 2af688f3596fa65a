"""Result checks that do not rely on azenum's own checker for the
property under test. Each check raises `CheckFailed` with a reason."""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence


class CheckFailed(Exception):
    """A workload result is wrong."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def check_embedding(image: Sequence[int], source: Sequence, target: Sequence,
                    covering: bool) -> None:
    """`image` maps `source` into `target` injectively (strictly increasing
    positions) with equal letters; with `covering`, every target position
    also has a same-letter image position at or after it."""
    require(len(image) == len(source), "witness length differs from the source")
    require(all(0 <= p < len(target) for p in image), "witness leaves the target")
    require(all(a < b for a, b in zip(image, image[1:])), "witness is not injective")
    require(all(source[i] == target[p] for i, p in enumerate(image)),
            "witness maps a letter to a different letter")
    if covering:
        last = {}
        for p in image:
            last[target[p]] = p
        require(all(last.get(letter, -1) >= q for q, letter in enumerate(target)),
                "witness does not cover the target")


def check_certificate(cert, base, partner, seed: int, depth: int, arity: int,
                      group_order: int) -> None:
    """An az certificate for a planted (base, partner) family."""
    require(cert.ok and not cert.failures, f"certificate failures {cert.failures}")
    require((cert.i, cert.j) == (0, 1), f"pair ({cert.i}, {cert.j}) is not the planted (0, 1)")
    require((cert.seed, cert.depth) == (seed, depth), "certificate seed or depth differs")
    check_embedding(cert.f, base, partner, covering=True)
    reports = cert.reports
    require(set(reports) == {"tuple_mapping", "order_preservation", "index_law",
                             "word_agreement"}, f"report set {sorted(reports)}")
    counts = {"tuple_mapping": "components_ok", "order_preservation": "ordered",
              "index_law": "ok", "word_agreement": "agree"}
    for name, key in counts.items():
        require(reports[name][key] == reports[name]["of"], f"{name} count differs from of")
    require(reports["tuple_mapping"]["of"] == arity, "tuple_mapping skipped components")
    require(reports["order_preservation"]["of"] >= depth - 1,
            "order_preservation skipped the enumeration prefix")
    l_prime = cert.levels[1]
    require(reports["word_agreement"]["of"] == (l_prime + 1) * group_order + 50,
            "word_agreement skipped elements")


def check_verify_report(report, size: int, pairs: int) -> None:
    require(report.ok and report.failure is None, f"report failed: {report.failure}")
    require(report.size == size, f"domain size {report.size} != {size}")
    require(report.pairs_checked == pairs, f"pairs_checked {report.pairs_checked} != {pairs}")


def check_pair(result, words: Sequence[Sequence], planted: int, covering: bool) -> None:
    require(result is not None, "no increasing pair found")
    require(result.j == planted, f"pair ends at {result.j}, planted at {planted}")
    require(0 <= result.i < planted, f"pair starts at {result.i}")
    check_embedding(result.embedding.image, words[result.i], words[result.j], covering)


def adjacent(u: int, v: int) -> bool:
    """The bit predicate: for u < v, u ~ v iff bit u of v is set."""
    lo, hi = min(u, v), max(u, v)
    return (hi >> lo) & 1 == 1


def check_triple(n: int, b: int, c: int, cycle: Sequence[int]) -> None:
    """`cycle` is an induced n-cycle inside {0..b}, listed in traversal
    order, and it is exactly c's neighbourhood within {0..b}."""
    require(len(cycle) == n == len(set(cycle)), f"n={n}: cycle {cycle} has wrong length")
    require(max(cycle) <= b < c, f"n={n}: cycle or c outside the prefix order")
    for x, y in combinations(range(n), 2):
        consecutive = y - x == 1 or (x, y) == (0, n - 1)
        require(adjacent(cycle[x], cycle[y]) == consecutive,
                f"n={n}: {cycle} is not an induced cycle")
    # every v <= b is below c, so v ~ c iff bit v of c is set
    hood = {v for v in range(min(b + 1, c.bit_length())) if adjacent(v, c)}
    require(hood == set(cycle), f"n={n}: neighbourhood of c={c} is not the cycle")


def check_triples(triples, report, max_n: int, first_bc: Mapping[int, tuple]) -> None:
    require([t.n for t in triples] == list(range(4, max_n + 1)), "triple n values")
    for t in triples:
        if t.n in first_bc:
            require((t.b, t.c) == first_bc[t.n], f"n={t.n}: (b, c) = ({t.b}, {t.c})")
        check_triple(t.n, t.b, t.c, t.cycle)
    for prev, t in zip(triples, triples[1:]):
        require(t.b > prev.c, f"n={t.n}: b does not follow the previous c")
    require(report.ok and not report.violations, "obstruction report not ok")

"""Adversarial triples against the natural-number enumeration of the
bit-predicate presentation of the random graph: for each n, a vertex b_n
whose prefix contains an induced n-cycle and a minimal vertex c_n whose
whole lower neighbourhood is exactly that cycle.

Lemma (the cycle search rests on it). Let B = v.bit_length(). Within
{0..v}, each u in [B, v] has exactly its own bits as neighbours, all in
the core [0, B): its bits lie below B, and no w <= v has bit u set. So
the vertices of [B, v] are pairwise non-adjacent, and the induced
n-cycles with maximum v are exactly the sets T | X where T within the
core induces k = n - |T| >= 1 disjoint paths and X holds k vertices of
[B, v], v among them, each seeing (x & T) exactly two path ends, so that
together they link the paths into one ring. Heredity: without its top
vertex x, an induced path forest is one, so the core's forests grow a
vertex at a time (`_path_forests`); x joins T when it sees (x & T) at
most two path ends, no two of one path.

Neighbourhood lemma: c's neighbours below c are exactly its bits, and for
c > top those up to top are its neighbours in {0..top}
(`neighborhood_in_prefix`). A valid triple has its cycle within {0..b}
and c in (b, 2^(b+1)), so c's whole lower neighbourhood is its cycle.
A set is one chordless cycle iff the walk from its least vertex covers
it, each vertex seeing exactly two others (`is_induced_cycle`, on masks
by position, so a huge vertex v never becomes a mask 1 << v).

Pair lemma (the paper's condition with a_i = c_small and a_j = c_large):
for valid triples of different n, no automorphism alpha has
alpha(c_small) = c_large and alpha(a) < c_large for every a < c_small, so
the natural enumeration is not nice along (c_n). Such an alpha would map
c_small's lower neighbourhood, an induced n_small-cycle, onto an induced
cycle within c_large's lower neighbourhood, an induced n_large-cycle; a
proper subset of a chordless cycle induces only paths, so the image is
the whole cycle and n_small = n_large (`check_obstruction`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, count, permutations, product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CapacityError, FalsificationError, InputError, Record, shown

# The largest max_n that build_triples accepts; it bounds the core search.
# A cold build_triples(11) takes about 2.5 ms and build_triples(12) about
# 4.6 ms (Python 3.11, one core of a shared 2-core x86-64 host); past the
# cap, the n = 13 step takes about 0.013 s and the n = 14 step about 0.28 s.
MAX_TRIPLES_N = 12

Level = List[Tuple[int, Tuple[int, ...]]]  # (top, fits) per ring, as `_levels` yields it


def adjacent(u: int, v: int) -> bool:
    """Bit predicate, symmetrized: for u < v, u ~ v iff bit u of v is set."""
    if u == v:
        raise InputError("the graph is irreflexive")
    if u > v:
        u, v = v, u
    return (v >> u) & 1 == 1


def neighborhood_in_prefix(c: int, top: int) -> FrozenSet[int]:
    """Neighbours of c among {0..top}, for c > top: the bits of c up to top,
    as every prefix vertex lies below c. InputError when c <= top."""
    if c <= top:
        raise InputError(f"c = {c} lies inside the prefix {{0..{top}}}")
    return frozenset(v for v in _bits(c) if v <= top)


def is_induced_cycle(vertices: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """The single chordless cycle the vertex set induces, in traversal order from the minimum,
    stepping first to its neighbour that comes first in `vertices`; None if there is none."""
    vs = list(dict.fromkeys(vertices))
    if not vs:
        return None
    nbrs = [0] * len(vs)
    for j, w in enumerate(vs):  # each pair once
        for i, v in enumerate(vs[:j]):
            if (v >> w | w >> v) & 1:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    order, seen, step = [], 0, 1 << vs.index(min(vs))
    while step:
        j = step.bit_length() - 1
        if nbrs[j].bit_count() != 2:
            return None
        seen |= step
        order.append(vs[j])
        step = nbrs[j] & ~seen
        step &= -step  # at the start, the lower-positioned of its two neighbours
    return tuple(order) if seen == (1 << len(vs)) - 1 else None


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _levels(n: int, start: int) -> Iterator[Tuple[int, Level]]:
    """(v, level) for each v >= start whose level holds a ring: the induced
    n-cycles with maximum v, in product form. A level without a ring is
    not yielded, and a core without a forest is skipped. By the lemma, the
    levels of one bit length B share the path forests T of the core [0, B)
    and their rings (`_core_forests`). Level v holds (top, fits) for each
    ring of T with a pair v & T: top = T | 1 << v, and fits holds, per
    other pair of the ring, the int of bits 1 << x for the x in [B, v)
    that see that pair, fixed once yielded. The ring's masks are top plus
    one bit of each fit (`_masks`); rings with an empty fit are left out."""
    for core in filter(partial(_core_forests, n), count(start.bit_length())):
        forests = _core_forests(n, core)
        low = max(start, 1 << core >> 1)
        fits = []
        for t, rings in forests:  # the fits below low, one forest at a time
            fit = dict.fromkeys(rings, 0)
            for x in range(core, low):
                if (x & t) in fit:
                    fit[x & t] |= 1 << x
            fits.append(fit)
        for v in range(low, 1 << core):
            level = []
            for (t, rings), fit in zip(forests, fits):
                pair = v & t
                if pair in rings:
                    ring_fits = (tuple(map(fit.get, rest)) for rest in rings[pair])
                    level += [(t | 1 << v, fs) for fs in ring_fits if all(fs)]
                    fit[pair] |= 1 << v
            if level:
                yield v, level


def _least(level: Level) -> int:
    """The least mask: fits of distinct pairs are disjoint, so each gives its lowest bit."""
    return min(top | sum(f & -f for f in fits) for top, fits in level)


def _masks(level: Level) -> List[int]:
    """Every mask of a level, ascending."""
    return sorted(top | sum(1 << x for x in xs) for top, fits in level
                  for xs in product(*map(_bits, fits)))


@lru_cache(maxsize=None)
def _core_forests(n: int, core: int) -> List[Tuple[int, Dict[int, set]]]:
    """(T, rings) for each forest T of `_path_forests(core)` with k = n - |T| paths."""
    return [(t, _rings(ends)) for t, ends in _path_forests(core).get(n, ())]


@lru_cache(maxsize=None)
def _path_forests(core: int) -> Dict[int, List[Tuple[int, Tuple[Tuple[int, int], ...]]]]:
    """(T, ends) for each T within the core [0, core) that induces k
    disjoint paths, bucketed by |T| + k; ends lists each path's (lower
    end, upper end) by lower end, (u, u) for a one-vertex path. By the
    heredity lemma x = core - 1 joins a forest of the smaller core alone
    (adding 2 to |T| + k), at one end (1) or linking two paths (0)."""
    if core == 0:
        return {0: [(0, ())]}
    x = core - 1
    smaller = _path_forests(x)
    forests = {size: smaller.get(size, [])[:] for size in range(max(smaller) + 3)}
    for size, bucket in smaller.items():
        for t, ends in bucket:
            seen = x & t
            if not seen:  # x alone, a one-vertex path
                forests[size + 2].append((t | 1 << x, ends + ((x, x),)))
            elif seen.bit_count() <= 2:
                rest, outer = [], []
                for a, b in ends:  # x takes the place of each end it sees
                    if seen >> a & 1:
                        outer.append(b)
                    elif seen >> b & 1:
                        outer.append(a)
                    else:
                        rest.append((a, b))
                if len(outer) == seen.bit_count():  # each seen vertex an end, of its own path
                    rest.append((min(outer), max(outer)) if outer[1:] else (outer[0], x))
                    forests[size + 2 - len(outer)].append((t | 1 << x, tuple(sorted(rest))))
    return forests


@lru_cache(maxsize=None)
def _rings(ends: Tuple[Tuple[int, int], ...]) -> Dict[int, set]:
    """The rings of the paths with these ends. A ring is k pairs, the
    masks of the two path ends that each of k connectors sees, linking
    the k paths into one cycle; a one-vertex path offers its vertex as
    both ends. Maps each pair to the rest of each ring that holds it."""
    rings: Dict[int, set] = {}
    (low, up), paths = ends[0], ends[1:]
    for order in permutations(paths):
        for turned in product(*[{e, e[::-1]} for e in order]):
            ring, last = [], up  # walk the ring from the first path's upper end
            for a, b in turned:
                ring.append(1 << last | 1 << a)
                last = b
            ring.append(1 << last | 1 << low)
            ring.sort()
            for i, pair in enumerate(ring):
                rings.setdefault(pair, set()).add(tuple(ring[:i] + ring[i + 1 :]))
    return rings


@lru_cache(maxsize=None)
def _first_level(n: int) -> Tuple[int, Level]:
    """(L_n, its level): the first level `_levels` yields, the least holding an induced n-cycle."""
    if n < 4:
        raise InputError("the search covers cycles of at least 4 vertices")
    return next(_levels(n, n - 1))


def first_cycle_bound(n: int, start: int) -> int:
    """The first b >= start whose prefix {0..b} contains an induced n-cycle."""
    return max(start, _first_level(n)[0])


def minimal_exact_vertex(n: int, b: int) -> Tuple[int, Tuple[int, ...]]:
    """The minimal vertex c > b whose whole lower neighbourhood is an
    induced n-cycle within {0..b}, together with that cycle.

    By the neighbourhood lemma these c are the cycle characteristic masks
    in (b, 2^(b+1)). Masks at level v lie in [2^v, 2^(v+1)), so after the
    memoised first level L the scan walks the levels that hold a ring (a
    level without one is not yielded) upward from the first whose masks
    can exceed b, up to b; it reads each one's least mask, and expands
    (`_masks`) only the level straddling b, 2^v <= b < 2^(v+1). Moving a
    cycle's maximum L to L + 2^y (y >= L) keeps it an induced n-cycle, so
    such a mask exists unless 2^L <= b < 2^L + L, where a level in
    (L, 2^L] would give one. InputError when {0..b} holds no induced
    n-cycle, or no mask is found."""
    first, first_level = _first_level(n)
    if first > b:
        raise InputError(f"the prefix {{0..{b}}} holds no induced {n}-cycle")
    start = max(first + 1, (b + 1).bit_length() - 1)
    for v, level in chain([(first, first_level)], _levels(n, start)):
        if v > b:
            break
        masks = _masks(level) if b >> v == 1 else [_least(level)]
        at = bisect_right(masks, b)
        if at < len(masks):
            cycle = is_induced_cycle(list(_bits(masks[at])))
            assert cycle is not None
            return masks[at], cycle
    raise InputError(f"no vertex above {b} sees exactly an induced {n}-cycle below itself")


@dataclass(frozen=True)
class Triple:
    """An induced n-cycle within {0..b}, and the least c > b whose lower neighbourhood it is."""
    n: int
    b: int
    c: int
    cycle: Tuple[int, ...]

    def to_json(self) -> dict:
        return {**asdict(self), "cycle": list(self.cycle)}


def triple_from_json(doc: dict) -> Triple:
    """The triple of a `Triple.to_json` object, other keys ignored; InputError
    unless n, b and c are non-negative integers and cycle is a list of them."""
    if isinstance(doc, dict) and {"n", "b", "c", "cycle"} <= doc.keys():
        n, b, c, cycle = doc["n"], doc["b"], doc["c"], doc["cycle"]
        if isinstance(cycle, list) and all(type(x) is int and x >= 0 for x in (n, b, c, *cycle)):
            return Triple(n, b, c, tuple(cycle))
    raise InputError(f"not a triple (integers n, b, c >= 0 and a cycle list): {shown(repr(doc))}")


def build_triples(max_n: int) -> List[Triple]:
    """Triples for n = 4..max_n; each b_n is the first vertex after the
    previous c whose prefix holds an induced n-cycle, and c_n is the
    minimal vertex whose lower neighbourhood is exactly that cycle."""
    if max_n < 4:
        raise InputError("max_n must be at least 4")
    if max_n > MAX_TRIPLES_N:
        raise CapacityError(f"max_n {max_n} exceeds the cap of {MAX_TRIPLES_N}")
    triples = []
    c_prev = 0  # induction base: scanning starts at n = 4
    for n in range(4, max_n + 1):
        b = first_cycle_bound(n, c_prev + 1)
        c, cycle = minimal_exact_vertex(n, b)
        triple = Triple(n, b, c, cycle)
        _validate_triple(triple)
        triples.append(triple)
        c_prev = c
    return triples


def _validate_triple(t: Triple) -> None:
    """FalsificationError unless the cycle is an induced n-cycle within
    {0..b} and c's whole lower neighbourhood, its bits, is that cycle."""
    if len(t.cycle) != t.n or len(set(t.cycle)) != t.n:
        raise FalsificationError(f"stored cycle has {len(set(t.cycle))} distinct vertices in "
                                 f"{len(t.cycle)} entries, not n = {t.n}", t)
    if is_induced_cycle(t.cycle) is None:
        raise FalsificationError("stored cycle is not an induced cycle", t)
    if max(t.cycle) > t.b:
        raise FalsificationError("cycle exceeds the prefix", t)
    if t.c <= t.b:
        raise FalsificationError("c lies inside the prefix", t)
    if t.c.bit_length() > t.b + 1:
        raise FalsificationError("c sees a vertex between the prefix and c", t)
    if neighborhood_in_prefix(t.c, t.b) != frozenset(t.cycle):
        raise FalsificationError("c's prefix neighborhood is not the cycle", t)


class ObstructionReport(Record):
    __slots__ = ("pair_certificates", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok, "pairs": self.pair_certificates, "violations": self.violations}


def check_obstruction(triples: Sequence[Triple]) -> ObstructionReport:
    """Validate every triple, then certify each pair of them obstructed
    by the pair lemma: `violations` stays empty, as triples the lemma does
    not cover (an invalid one, or two of one n) are falsified first
    (FalsificationError). CapacityError before that, for more than
    MAX_TRIPLES_N - 3 triples or an n above MAX_TRIPLES_N: build_triples
    never emits more, and the caps bound what a triples file may ask for."""
    if len(triples) > MAX_TRIPLES_N - 3:
        raise CapacityError(f"{len(triples)} triples exceed the cap of {MAX_TRIPLES_N - 3}")
    for t in triples:
        if t.n > MAX_TRIPLES_N:
            raise CapacityError(f"triple n = {t.n} exceeds the cap of {MAX_TRIPLES_N}")
    for t in triples:
        _validate_triple(t)
    if len({t.n for t in triples}) < len(triples):
        raise FalsificationError("two triples share an n, so the pair lemma does not apply")
    pairs = [{"from_n": small.n, "to_n": large.n, "obstructed": True}
             for small, large in combinations(triples, 2)]
    return ObstructionReport(pairs, [])


def check_triples_document(doc) -> dict:
    """The report (`to_json`) of a document's triples; FalsificationError if `obstruction` differs."""
    if not isinstance(doc, dict) or not isinstance(doc.get("triples"), list):
        raise InputError("the document has no 'triples' list")
    report = check_obstruction([triple_from_json(d) for d in doc["triples"]]).to_json()
    if doc.get("obstruction", report) != report:
        raise FalsificationError("the obstruction field is not the report of the triples")
    return report

"""The central product of omega copies of G amalgamated over K.

Elements are cosets of the subgroup of K-tuples with trivial coordinate
product. The order is a nice enumeration, and an element is its index in
it, a plain int: the index |K|·s + rank(k) of the pair (s, k), s the
base-r number (r = |G/K|) of the coordinates' coset digits and k in K the
product of their K factors, held at coordinate 0. This module alone knows
that layout: `make` encodes a tuple, `minimal_representative` decodes the
reverse-lex minimal representative, `pair_of` and `index_of_pair` read and
write the pair (`pairs_of`, `indices_of_pairs` for lists), `place` is the
place value of a coordinate's digit in s, `digit_runs` reads weighted
digits a run at a time, and for whole levels `digit_sums` weighs and adds
the digits of every s and `join_level` maps pairs back to indices. The
group law runs on indices (`CPContext.index_law`): above coordinate 0 the
product's digits are read, a block of coordinates at a time, from tables of
block products, whose K factors fold into coordinate 0 as K is central.
`CPContext.level_law` is that law on one level, two table reads per
product from tables of the level's low and high halves, built on each call.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import product
from math import isqrt
from math import lcm as _lcm
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import CapacityError, InputError
from .groups import KGroupSpec

Support = Mapping[int, int]

# The largest level, in cosets, that verify_automorphism and all_cosets take
# (`CPContext.level_size`): Q8 level 8 (131 072 cosets) fits and level 9
# (524 288) does not. `aut verify --group Q8 --word [] --level 8` takes
# 0.15-0.16 s and 28.1 MB peak (Python 3.11, in one process after start-up,
# on one core of a shared 2-core x86-64 host); a two-generator word (a
# ladder and a transposition) 0.18 s and 28.9 MB. Its law check runs on
# `index_law`: level 8's `level_law` tables would have 589 824 entries,
# more than the check's 200 000 evaluations.
MAX_COSETS = 1 << 18

# The largest coordinate whose place value `CPContext.place` gives, hence
# the largest that `make` takes and that a word acting on indices may
# touch. An index has a digit per coordinate up to the highest, and the
# group law's cost grows with its square: `cp mul --group Q8` at 10 000
# takes 0.08 s, 30 000 0.5 s, 100 000 5.5 s (same host).
MAX_LITERAL_COORD = 10_000


class CPContext:
    """Fixed group, central subgroup, transversal and element ordering."""

    def __init__(self, kg: KGroupSpec):
        g = kg.group
        self.kg = kg
        self.group = g
        self.k_list = list(kg.k_subgroup)
        # the coset minima in increasing rank: digit d stands for minima[d]
        self.minima = list(kg.transversal)
        # per element v = minima[d]·k of the coset-major order: its rank, the
        # digit d of its coset and k_of[v] = k in K, which coordinate 0 absorbs
        self.rank_of, self.digit_of, self.k_of = [0] * g.order, [0] * g.order, [0] * g.order
        for pos, (d, k) in enumerate(product(range(len(self.minima)), self.k_list)):
            v = g.mul[self.minima[d]][k]
            self.rank_of[v], self.digit_of[v], self.k_of[v] = pos, d, k
        self.exponent = _lcm(*(g.element_order(a) for a in range(g.order)))
        self.identity = 0

    # -- construction -----------------------------------------------------

    def make(self, support: Support) -> int:
        """The index of a finite-support tuple: the pair (s, k) with each
        coordinate's coset digit in s and the product of the K factors in
        k. A coordinate above MAX_LITERAL_COORD is refused before any digit
        is read."""
        g, digit_of, k_of, place = self.group, self.digit_of, self.k_of, self.place
        place(max(support, default=0))
        s, k = 0, g.identity_index
        for coord, val in sorted(support.items()):
            if coord < 0:
                raise InputError(f"negative coordinate {coord}")
            if not 0 <= val < g.order:
                raise InputError(f"unknown element index {val}")
            s += digit_of[val] * place(coord)
            k = g.mul[k][k_of[val]]
        return self.index_of_pair(s, k)

    # -- group operations -------------------------------------------------

    def representative(self, x: int) -> Dict[int, int]:
        """The minimal representative as a coordinate -> value dict."""
        return dict(self.minimal_representative(x))

    def multiply(self, x: int, y: int) -> int:
        return self.index_law(x, y)

    @cached_property
    def index_law(self) -> Callable[[int, int], int]:
        """The group law on enumeration indices: index_law(x, y) is x·y.
        Above coordinate 0 the digits are read in blocks of h coordinates,
        h >= 1 the largest with r^h <= 64 (r = len(minima)); two flat
        tables indexed by a block pair, of max(r, 64)^2 entries at most,
        hold the block's product digits and its K factor, which folds into
        the coordinate-0 value (K is central). Built on first use from
        `_block_products`."""
        r, nk, k_list = len(self.minima), len(self.k_list), self.k_list
        mul, order = self.group.mul, self.group.order
        h = 1
        while 1 < r and r ** (h + 1) <= 64:
            h += 1
        blocks, width = self._block_products(h, nk), r**h
        digits, k_factor = [p // nk for p in blocks], [k_list[p % nk] for p in blocks]
        ranked = self.kg.element_order
        low = [mul[p][q] for p in ranked for q in ranked]
        rank_of = self.rank_of

        def law(a: int, b: int) -> int:
            v = low[a % order * order + b % order]
            a //= order
            b //= order
            out, place = 0, order
            while a or b:
                t = a % width * width + b % width
                out += digits[t] * place
                v = mul[v][k_factor[t]]
                place *= width
                a //= width
                b //= width
            return out + rank_of[v]

        return law

    def level_law(self, n: int, evaluations: int) -> Callable[[int, int], int]:
        """`index_law` on the level-n indices, for a caller that evaluates it
        `evaluations` times: two reads of the tables `level_tables(n)`
        builds, or `index_law` itself when the tables have more entries,
        R² + L²·|K|, than `evaluations`. Both arguments of the returned law
        must be below the level size; a larger one gives a wrong product
        without an error.

        With m = n // 2, L = |K|·r^m and R = r^(n-m), a level-n index is
        H·L + l with H < R and l < L. Three facts make the split exact:
        elements of disjoint support commute, so a·b = (Ha·L)(Hb·L)·(la·lb)
        with la·lb supported below coordinate m; an index H·L, with no
        digit below m, carries the K factor 1, so H·L times an element of
        index q < L has the index H·L + q; and K is central, so the high
        product's K factor, the element j < |K| in H·L + j, joins the low
        part. Hence law(a, b) = p + low[(la·L + lb)·|K| + p % L] for
        p = high[Ha·R + Hb], the index of (Ha·L)(Hb·L), where low holds the
        index of la·lb·j less j.

        A table entry costs about half what a read saves against
        `index_law` (Q8 levels 6-8, Python 3.11: 85-105 ns against
        175-255 ns), so with no more entries than evaluations the tables
        pay for themselves within the call that builds them, and they hold
        at most 4 bytes per evaluation: Q8 level 7, 98 304 entries against
        the 200 000 evaluations of a 100 000-pair check, reads them, and
        Q8 level 8, 589 824 entries, keeps `index_law`."""
        nk, r, m = len(self.k_list), len(self.minima), n // 2
        nl, nh = nk * r**m, r ** (n - m)  # L and R
        if nh * nh + nl * nl * nk > evaluations:
            return self.index_law
        high, low = self.level_tables(n)

        def level(a: int, b: int) -> int:
            p = high[a // nl * nh + b // nl]
            return p + low[(a % nl * nl + b % nl) * nk + p % nl]

        return level

    def level_tables(self, n: int) -> Tuple[array, array]:
        """The tables (high, low) of `level_law(n, ...)`, built anew on each
        call from `_block_products`: high[Ha·R + Hb] is the index of
        (Ha·L)(Hb·L), and low[(la·L + lb)·|K| + j] that of la·lb·j less j."""
        k_list, nk, m = self.k_list, len(self.k_list), n // 2
        mul, rank_of = self.group.mul, self.rank_of
        high = self._block_products(n - m, nk * len(self.minima) ** m)
        # K's products are the block products of no digits; times_j[j][i]
        # takes the index of an element with K factor k_i to that of its
        # product with k_j, less j
        kr = [rank_of[mul[x][y]] for x in k_list for y in k_list]
        times_j = [[kr[i * nk + j] - i - j for i in range(nk)] for j in range(nk)]
        low = array("i", (p + add[p % nk] for p in self._block_products(m, 1, kr) for add in times_j))
        return high, low

    def _block_products(self, j: int, unit: int, table: Sequence[int] = (0,)) -> Sequence[int]:
        """The products of pairs of elements on a block of coordinates, as
        indices: `table` holds those of a base of w elements, the pair
        (A, B) at A·w + B (by default the identity alone), and j times a
        coordinate goes on top, whose digit has the place value w·unit, w
        the number of elements below it. With t_a·t_b = minima[d]·k for the
        top digits' minima, the product of (t_a, A) and (t_b, B) is that of
        A and B with d on top and k folded into its K factor. Every place
        value must be a multiple of |K|, so that an index modulo |K| is the
        rank of its K factor."""
        minima, k_list, nk, r = self.minima, self.k_list, len(self.k_list), len(self.minima)
        mul, rank_of, width = self.group.mul, self.rank_of, isqrt(len(table))
        for _ in range(j):
            # per top pair (t_a, t_b), per rank i of A·B's K factor: the index's change
            adds = []
            for ta, tb in product(minima, repeat=2):
                v = mul[ta][tb]
                top, kv = self.digit_of[v] * width * unit, self.k_of[v]
                adds.append([top + rank_of[mul[kv][k]] - i for i, k in enumerate(k_list)])
            rows = [table[a * width : (a + 1) * width] for a in range(width)]
            table = array("i", (p + add[p % nk] for da in range(r) for row in rows
                                for add in adds[da * r : (da + 1) * r] for p in row))
            width *= r
        return table

    # -- order: the enumeration index -------------------------------------

    def minimal_representative(self, x: int) -> Tuple[Tuple[int, int], ...]:
        """The reverse-lex minimum over the coset, as coordinate-sorted
        (coord, value) pairs without identity entries, decoded from the
        index: the coordinate-0 digit is the value's rank, each digit above
        it a position among the coset minima."""
        high, d0 = divmod(x, self.group.order)
        rep = [(0, self.kg.element_order[d0])] if d0 else []
        radix, coord = len(self.minima), 1
        while high:
            high, d = divmod(high, radix)
            if d:
                rep.append((coord, self.minima[d]))
            coord += 1
        return tuple(rep)

    # -- the layout: an index is the pair (s, k) ---------------------------
    #
    # s = sum of d_c r^c over the coordinates c, d_c = digit_of[v] for the
    # value v at c, and k the product of their K factors k_of[v], held at
    # coordinate 0. The index is s·|K| + rank(k): as the order is coset-major,
    # that is the mixed-radix number whose coordinate-0 digit is the rank of
    # minima[d_0]·k and whose digit at c >= 1 is d_c. The level-n elements
    # are the pairs with s < r^n.

    def place(self, c: int) -> int:
        """r^c, the place value of coordinate c's digit in s; CapacityError
        for c above MAX_LITERAL_COORD."""
        if c > MAX_LITERAL_COORD:
            raise CapacityError(f"coordinate {c} is above the cap of {MAX_LITERAL_COORD}")
        return len(self.minima) ** c

    def pair_of(self, i: int) -> Tuple[int, int]:
        """The pair (s, k) of the element with index i."""
        s, k = divmod(i, len(self.k_list))
        return s, self.k_list[k]

    def index_of_pair(self, s: int, k: int) -> int:
        """The index of the pair (s, k) (inverse of `pair_of`)."""
        return s * len(self.k_list) + self.rank_of[k]

    def pairs_of(self, indices: Iterable[int]) -> Tuple[List[int], List[int]]:
        """`pair_of` of each index, as the list of the s and that of the k."""
        nk, k_list, indices = len(self.k_list), self.k_list, list(indices)
        return [i // nk for i in indices], [k_list[i % nk] for i in indices]

    def indices_of_pairs(self, ss: Sequence[int], ks: Sequence[int]) -> List[int]:
        """`index_of_pair` of each pair (ss[j], ks[j])."""
        nk, rank_of = len(self.k_list), self.rank_of
        return [s * nk + rank_of[k] for s, k in zip(ss, ks)]

    def digit_runs(self, weights: Mapping[int, int]) -> List[Tuple[int, int, int]]:
        """Reads (p, m, w) with sum_c d_c(s)·weights[c] = sum s // p % m · w: a
        maximal run of coordinates c+j, j < n, weighing w·r^j reads w·(s // r^c % r^n)."""
        r, runs = len(self.minima), []
        for c, w in sorted(weights.items()):
            if runs and sum(runs[-1][:2]) == c and runs[-1][2] * r ** runs[-1][1] == w:
                runs[-1][1] += 1
            else:
                runs.append([c, 1, w])
        return [(self.place(c), r**n, w) for c, n, w in runs]

    def digit_sums(self, n: int, weights: Sequence[int]) -> List[int]:
        """Per digit vector s < r^n, in order: sum_c d_c(s)·weights[c], each
        coordinate at or above len(weights) <= n weighing 0. The vectors
        below r^(c+1) are d·r^c + s' for each digit d, each in turn over
        every s' < r^c, and the coordinates past the weights repeat the list."""
        r, sums = len(self.minima), [0]
        for w in weights:
            sums = [d * w + t for d in range(r) for t in sums]
        return sums * r ** (n - len(weights))

    def join_level(self, n: int, state: Sequence[int], kfac: Sequence[int]) -> List[int]:
        """Per level-n index, in order, with (s, k) its pair: the index of
        the pair (state[s], k·kfac[s]); index s·|K| + j has k = k_list[j]."""
        nk, mul, rank_of = len(self.k_list), self.group.mul, self.rank_of
        images = [0] * (nk * len(state))
        for j, k in enumerate(self.k_list):
            images[j::nk] = [nk * t + rank_of[mul[k][f]] for t, f in zip(state, kfac)]
        return images

    def compare(self, x: int, y: int) -> int:
        """Reverse lexicographic comparison of minimal representatives
        (highest differing coordinate wins), read off the indices."""
        return (x > y) - (x < y)

    # -- enumeration ------------------------------------------------------

    def enumerate(self, count: int) -> List[int]:
        """The elements 0 .. count-1 (see `prefix_level`)."""
        self.prefix_level(count)
        return list(range(count))

    def prefix_level(self, count: int) -> int:
        """The least L whose level Γ_{≤L} holds the first `count` elements:
        InputError unless 1 <= count <= |Γ| (Γ is finite when K = G, and
        then every level is all of Γ), CapacityError from `level_size`."""
        if count < 1:
            raise InputError("count must be >= 1")
        if len(self.minima) == 1 and count > self.group.order:
            raise InputError(f"count {count} exceeds |Γ| = {self.group.order}")
        level = 0
        while self.level_size(level + 1) < count:
            level += 1
        return level

    def gamma_n_order(self, n: int) -> int:
        """|G|^n / |K|^(n-1) = |K| |G/K|^n, the order of the level-n subgroup."""
        if n < 1:
            raise InputError("n must be >= 1")
        return len(self.k_list) * len(self.minima) ** n

    def level_size(self, n: int) -> int:
        """gamma_n_order(n), or CapacityError above MAX_COSETS. The cap is
        decided before the count is built: past MAX_COSETS.bit_length()
        coordinates a level has more than MAX_COSETS cosets unless K = G,
        and then its coordinates are capped instead."""
        top = min(n, MAX_COSETS.bit_length())
        if n > MAX_COSETS or self.gamma_n_order(top) > MAX_COSETS:
            raise CapacityError(f"level {n} is above the cap of {MAX_COSETS} cosets")
        return self.gamma_n_order(n)

    def all_cosets(self, n: int) -> List[int]:
        """Every coset with support below n, in enumeration order."""
        return list(range(self.level_size(n)))


# ---------------------------------------------------------------------------
# Element literals ("i:NAME,j:NAME")
# ---------------------------------------------------------------------------


def parse_support(ctx: CPContext, text: str) -> int:
    text = text.strip()
    if text in ("", "-", "1"):
        return ctx.identity
    support: Dict[int, int] = {}
    for item in text.split(","):
        try:
            coord_s, name = item.split(":", 1)
            coord = int(coord_s)
        except ValueError:
            raise InputError(f"bad element literal item {item!r}")
        if coord in support:
            raise InputError(f"duplicate coordinate {coord}")
        support[coord] = ctx.group.index_of_name(name.strip())
    return ctx.make(support)


def format_support(ctx: CPContext, x: int) -> str:
    rep = ctx.minimal_representative(x)
    if not rep:
        return "-"
    names = ctx.group.element_names
    return ",".join(f"{c}:{names[v]}" for c, v in rep)

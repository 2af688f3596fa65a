"""The central product of omega copies of G amalgamated over K.

Elements are cosets of the subgroup of K-tuples with trivial coordinate
product. The order is a nice enumeration, and an element is stored only as
its position in it, a mixed-radix number: `CPContext.make` encodes a tuple
through `join`, `minimal_representative` decodes the reverse-lex minimal
representative, and `index_codec` splits an index into digits; for whole
levels, `pair_of` reads an index as its K-free digit vector and K factor
and `join_level` maps such pairs back. This module alone knows the digit
layout. The group law runs on these indices (`CPContext.index_law`): above
coordinate 0 the product's digits are read, a block of coordinates at a
time, from tables of block products, whose K factors fold into the
coordinate-0 value because K is central.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import product
from math import lcm as _lcm
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .errors import CapacityError, InputError
from .groups import KGroupSpec

Support = Mapping[int, int]

# The largest level, in cosets, that verify_automorphism and all_cosets take
# (`CPContext.level_size`): Q8 level 8 (131 072 cosets) fits and level 9
# (524 288) does not. `aut verify --group Q8 --word [] --level 8` takes
# 0.35-0.47 s and 28.4 MB peak (Python 3.11, in one process after start-up,
# on one core of a shared 2-core x86-64 host); a two-generator word (a
# ladder and a transposition) 0.45-0.6 s and 28.6 MB.
MAX_COSETS = 1 << 18

# The largest coordinate that `make` and `index_codec` take, hence that a
# word acting on indices may touch. `make` builds a digit per coordinate up
# to the highest, and the group law's cost grows with its square: `cp mul
# --group Q8` at 10 000 takes 0.08 s, 30 000 0.5 s, 100 000 5.5 s (same host).
MAX_LITERAL_COORD = 10_000


class CPContext:
    """Fixed group, central subgroup, transversal and element ordering."""

    def __init__(self, kg: KGroupSpec):
        g = kg.group
        self.kg = kg
        self.group = g
        self.k_list = list(kg.k_subgroup)
        # the digits above coordinate 0: the coset minima in increasing rank
        self.minima = list(kg.transversal)
        self.digit_of = {m: d for d, m in enumerate(self.minima)}
        # per element v = t·k of the coset-major order: its rank, its coset
        # minimum min_of[v] = t and k_of[v] = k in K, which coordinate 0 absorbs
        self.rank_of, self.min_of, self.k_of = [0] * g.order, [0] * g.order, [0] * g.order
        for pos, (t, k) in enumerate(product(self.minima, self.k_list)):
            v = g.mul[t][k]
            self.rank_of[v], self.min_of[v], self.k_of[v] = pos, t, k
        self.exponent = _lcm(*(g.element_order(a) for a in range(g.order)))
        self.identity = CPElement(self, 0)

    # -- construction -----------------------------------------------------

    def make(self, support: Support) -> "CPElement":
        """The element of a finite-support tuple: each coordinate takes its
        coset minimum, and coordinate 0 absorbs the K factors. Coordinates
        above MAX_LITERAL_COORD are refused before the digits are built."""
        g, min_of, k_of = self.group, self.min_of, self.k_of
        top = max(support, default=0)
        if top > MAX_LITERAL_COORD:
            raise CapacityError(f"coordinate {top} is above the cap of {MAX_LITERAL_COORD}")
        vals, k = [g.identity_index] * (top + 1), g.identity_index
        for coord, val in sorted(support.items()):
            if coord < 0:
                raise InputError(f"negative coordinate {coord}")
            if not 0 <= val < g.order:
                raise InputError(f"unknown element index {val}")
            vals[coord] = min_of[val]
            k = g.mul[k][k_of[val]]
        return CPElement(self, self.join(0, vals, k))

    def embed(self, elem: int, coord: int) -> "CPElement":
        return self.make({coord: elem})

    def embed_k(self, k: int) -> "CPElement":
        if k not in self.k_list:
            raise InputError(f"element {k} is not in K")
        return self.make({0: k})

    # -- group operations -------------------------------------------------

    def representative(self, x: "CPElement") -> Dict[int, int]:
        """The minimal representative as a coordinate -> value dict."""
        return dict(self.minimal_representative(x))

    def multiply(self, x: "CPElement", y: "CPElement") -> "CPElement":
        self._check(x, y)
        return CPElement(self, self.index_law(x.index, y.index))

    @cached_property
    def index_law(self) -> Callable[[int, int], int]:
        """The group law on enumeration indices: index_law(index_of(x),
        index_of(y)) is index_of(x·y). Above coordinate 0 the digits are
        read in blocks of h coordinates, h >= 1 the largest with r^h <= 64
        (r = len(minima)); two flat tables indexed by a block pair, of
        max(r, 64)^2 entries at most, hold the block's product digits and
        its K factor, which folds into the coordinate-0 value (K is
        central). Built on first use."""
        g, r, minima = self.group, len(self.minima), self.minima
        mul, order, e = g.mul, g.order, g.identity_index
        h = 1
        while 1 < r and r ** (h + 1) <= 64:
            h += 1
        width = r**h
        digits, k_factor = [], []
        for block_a, block_b in product(range(width), repeat=2):
            d, k, place = 0, e, 1
            for _ in range(h):
                block_a, a = divmod(block_a, r)
                block_b, b = divmod(block_b, r)
                v = mul[minima[a]][minima[b]]
                d += self.digit_of[self.min_of[v]] * place
                k = mul[k][self.k_of[v]]
                place *= r
            digits.append(d)
            k_factor.append(k)
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

    def inverse(self, x: "CPElement") -> "CPElement":
        self._check(x)
        inv = self.group.inverse
        return self.make({c: inv[v] for c, v in self.minimal_representative(x)})

    # -- order: the enumeration index -------------------------------------

    def minimal_representative(self, x: "CPElement") -> Tuple[Tuple[int, int], ...]:
        """The reverse-lex minimum over the coset, as coordinate-sorted
        (coord, value) pairs without identity entries, decoded from the
        index: the coordinate-0 digit is the value's rank, each digit above
        it a position among the coset minima."""
        self._check(x)
        high, d0 = divmod(x.index, self.group.order)
        rep = [(0, self.kg.element_order[d0])] if d0 else []
        radix, coord = len(self.minima), 1
        while high:
            high, d = divmod(high, radix)
            if d:
                rep.append((coord, self.minima[d]))
            coord += 1
        return tuple(rep)

    def index_of(self, x: "CPElement") -> int:
        """x's position in the enumeration, a mixed-radix number: the
        coordinate-0 digit is the value's rank (radix |G|); the digit at
        coordinate c >= 1 is the value's position among the coset minima
        sorted by rank (radix |G/K|). The highest coordinate is the most
        significant, so indices order elements reverse-lexicographically."""
        self._check(x)
        return x.index

    def element_at(self, i: int) -> "CPElement":
        """The element with enumeration index i (inverse of `index_of`)."""
        if i < 0 or (i >= self.group.order and len(self.minima) == 1):
            raise InputError(f"no element at index {i}")
        return CPElement(self, i)

    def index_codec(self, top: int) -> Tuple[Callable, Callable]:
        """The digit format of an index, as (split, join); CapacityError for
        top above MAX_LITERAL_COORD, InputError below 0. split(i) is (high,
        vals, k): the digits above coordinate top as one number, the coset
        minima at 0..top, and the K factor of the coordinate-0 value; `join`
        inverts it."""
        if top > MAX_LITERAL_COORD:
            raise CapacityError(f"coordinate {top} is above the cap of {MAX_LITERAL_COORD}")
        if top < 0:
            raise InputError(f"no coordinate {top}")
        minima, r, min_of, k_of = self.minima, len(self.minima), self.min_of, self.k_of
        order, ranked = self.group.order, self.kg.element_order
        low_size = r**top * order

        def split(i: int) -> Tuple[int, List[int], int]:
            high, low = divmod(i, low_size)
            low, d0 = divmod(low, order)
            v = ranked[d0]
            vals = [min_of[v]]
            for _ in range(top):
                low, d = divmod(low, r)
                vals.append(minima[d])
            return high, vals, k_of[v]

        return split, self.join

    def join(self, high: int, vals: List[int], k: int) -> int:
        """The index of coset minima vals at coordinates 0..len(vals)-1,
        with the digits high above them and the K factor k at coordinate 0."""
        r, digit_of = len(self.minima), self.digit_of
        for v in vals[:0:-1]:
            high = high * r + digit_of[v]
        return high * self.group.order + self.rank_of[self.group.mul[vals[0]][k]]

    # -- the pair layout: an index as (digit vector, K factor) -------------
    #
    # An element is also the pair (s, k): s = sum of d_c r^c over its
    # coordinates c, d_c the digit of coordinate c's coset minimum (d_0
    # too), and k the K factor of its coordinate-0 value. The level-n
    # elements are the pairs with s < r^n, and the index is s·|K| + rank(k).

    def pair_of(self, i: int) -> Tuple[int, int]:
        """The pair (s, k) of the element with index i."""
        s, k = divmod(i, len(self.k_list))
        return s, self.k_list[k]

    def index_of_pair(self, s: int, k: int) -> int:
        """The index of the pair (s, k) (inverse of `pair_of`)."""
        return s * len(self.k_list) + self.rank_of[k]

    def window_configs(self, n: int, window: Sequence[int]) -> "array[int]":
        """Per digit vector s < r^n, in order: sum_j d_{window[j]} r^j, the
        window's digits as one number; the window lies below n. The vectors
        below r^(c+1) are d·r^c + s' for each digit d, each in turn over
        every s' < r^c, and the digits above the window repeat the list."""
        r, configs, width = len(self.minima), array("l", [0]), max(window, default=-1) + 1
        for c in range(width):
            step = r ** window.index(c) if c in window else 0
            below, configs = configs, array("l")
            for d in range(r):
                configs.extend(map((d * step).__add__, below))
        return configs * r ** (n - width)

    def join_level(self, n: int, state: Sequence[int], kfac: Sequence[int]) -> List[int]:
        """Per level-n index, in order, with (s, k) its pair: the index of
        the pair (state[s], k·kfac[s]); index s·|K| + j has k = k_list[j]."""
        nk, mul, rank_of = len(self.k_list), self.group.mul, self.rank_of
        images = [0] * (nk * len(state))
        for j, k in enumerate(self.k_list):
            images[j::nk] = [nk * t + rank_of[mul[k][f]] for t, f in zip(state, kfac)]
        return images

    def compare(self, x: "CPElement", y: "CPElement") -> int:
        """Reverse lexicographic comparison of minimal representatives
        (highest differing coordinate wins), read off the indices."""
        ix, iy = self.index_of(x), self.index_of(y)
        return (ix > iy) - (ix < iy)

    # -- enumeration ------------------------------------------------------

    def enumerate(self, count: int) -> List["CPElement"]:
        """The elements at indices 0 .. count-1 (see `prefix_level`)."""
        self.prefix_level(count)
        return list(map(self.element_at, range(count)))

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

    def all_cosets(self, n: int) -> List["CPElement"]:
        """Every coset with support below n, in enumeration order."""
        return [self.element_at(i) for i in range(self.level_size(n))]

    def _check(self, *elems: "CPElement") -> None:
        for e in elems:
            if e.ctx is not self:
                raise InputError("element belongs to a different context")


class CPElement:
    """A coset; immutable and hashable.

    `index`, its position in the enumeration, identifies the element and is
    its only stored form; `rep` decodes the minimal representative from it.
    """

    __slots__ = ("ctx", "index")

    def __init__(self, ctx: CPContext, index: int):
        self.ctx = ctx
        self.index = index

    @property
    def rep(self) -> Tuple[Tuple[int, int], ...]:
        return self.ctx.minimal_representative(self)

    def __eq__(self, other):
        return isinstance(other, CPElement) and self.ctx is other.ctx and self.index == other.index

    def __hash__(self):
        return hash(self.index)

    def __repr__(self):
        return f"CPElement({self.rep})"


# ---------------------------------------------------------------------------
# Element literals ("i:NAME,j:NAME")
# ---------------------------------------------------------------------------


def parse_support(ctx: CPContext, text: str) -> CPElement:
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


def format_support(ctx: CPContext, x: CPElement) -> str:
    rep = ctx.minimal_representative(x)
    if not rep:
        return "-"
    names = ctx.group.element_names
    return ",".join(f"{c}:{names[v]}" for c, v in rep)

"""The central product of omega copies of G amalgamated over K.

Elements are cosets of the subgroup of K-tuples with trivial coordinate
product. An element is stored only as its reverse-lex minimal
representative, which hashing and formatting read. The order is a nice
enumeration: each element's position in it is a mixed-radix number
(`CPContext.index_of`, inverted by `element_at`; `index_codec` splits it
into digits), the one order key. The group law runs on these indices
(`CPContext.index_law`): above coordinate 0 the product's digits are read,
a block of coordinates at a time, from tables of block products, whose K
factors fold into the coordinate-0 value because K is central.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count, product
from math import lcm as _lcm
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from .errors import CapacityError, InputError
from .groups import KGroupSpec

Support = Mapping[int, int]

# The largest level, in cosets, that verify_automorphism and all_cosets take
# (`CPContext.level_size`): Q8 level 8 (131 072 cosets) fits and level 9
# (524 288) does not. `aut verify --group Q8 --word [] --level 8` takes
# 0.5-0.75 s and 28 MB peak (Python 3.11, in one process after start-up, on
# one core of a shared 2-core x86-64 host); a two-generator word (a ladder
# and a transposition) 1.35-1.5 s and 28 MB.
MAX_COSETS = 1 << 18

# The largest coordinate of an element literal, and of a word acting on
# indices. The group law's cost grows with its square (an index has a digit
# per coordinate): `cp mul --group Q8` at coordinate 10 000 takes 0.08 s,
# 30 000 0.5 s, 100 000 5.5 s (same host).
MAX_LITERAL_COORD = 10_000


class CPContext:
    """Fixed group, central subgroup, transversal and element ordering."""

    def __init__(self, kg: KGroupSpec):
        g = kg.group
        self.kg = kg
        self.group = g
        self.k_list = list(kg.k_subgroup)
        self.k_set = set(kg.k_subgroup)
        self.rank_of = [0] * g.order
        for pos, elem in enumerate(kg.element_order):
            self.rank_of[elem] = pos
        # per coset, in transversal order: the member least in the order
        self.coset_min: List[int] = [
            min((g.mul[t][k] for k in self.k_list), key=self.rank_of.__getitem__)
            for t in kg.transversal
        ]
        # per element v: min_of[v], the least member of v's K-coset, and
        # k_of[v] = min_of[v]^-1 v in K, which coordinate 0 absorbs
        self.min_of = [0] * g.order
        self.k_of = [0] * g.order
        for m, k in product(self.coset_min, self.k_list):
            v = g.mul[m][k]
            self.min_of[v], self.k_of[v] = m, k
        # the digits above coordinate 0: coset minima in increasing rank
        self.minima = sorted(self.coset_min, key=self.rank_of.__getitem__)
        self.digit_of = {m: d for d, m in enumerate(self.minima)}
        self.exponent = _lcm(*(g.element_order(a) for a in range(g.order)))
        self.identity = CPElement(self, ())

    # -- construction -----------------------------------------------------

    def make(self, support: Support) -> "CPElement":
        """The element of a finite-support tuple: coordinates above 0 take
        their coset minimum, and coordinate 0 absorbs the K factors."""
        mul, min_of, k_of = self.group.mul, self.min_of, self.k_of
        e = self.group.identity_index
        v0 = residual = e
        higher = []
        for coord in sorted(support):
            val = support[coord]
            if coord < 0:
                raise InputError(f"negative coordinate {coord}")
            if not 0 <= val < self.group.order:
                raise InputError(f"unknown element index {val}")
            m = min_of[val]
            if coord == 0:
                v0 = m
            elif m != e:
                higher.append((coord, m))
            residual = mul[residual][k_of[val]]
        v0 = mul[v0][residual]
        return CPElement(self, ((0, v0), *higher) if v0 != e else tuple(higher))

    def embed(self, elem: int, coord: int) -> "CPElement":
        return self.make({coord: elem})

    def embed_k(self, k: int) -> "CPElement":
        if k not in self.k_set:
            raise InputError(f"element {k} is not in K")
        return self.make({0: k})

    # -- group operations -------------------------------------------------

    def representative(self, x: "CPElement") -> Dict[int, int]:
        """The minimal representative as a coordinate -> value dict."""
        return dict(x.rep)

    def multiply(self, x: "CPElement", y: "CPElement") -> "CPElement":
        self._check(x, y)
        return self.element_at(self.index_law(self.index_of(x), self.index_of(y)))

    @cached_property
    def index_law(self) -> Callable[[int, int], int]:
        """The group law on enumeration indices: index_law(index_of(x),
        index_of(y)) is index_of(x·y). Above coordinate 0 the digits are
        read in blocks of h coordinates, h >= 1 the largest with r^h <= 16
        (r = len(minima)); two flat tables indexed by a block pair hold the
        block's product digits and its K factor, which folds into the
        coordinate-0 value (K is central). Built on first use."""
        g, r, minima = self.group, len(self.minima), self.minima
        mul, order, e = g.mul, g.order, g.identity_index
        h = 1
        while 1 < r and r ** (h + 1) <= 16:
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
        return self.make({c: inv[v] for c, v in x.rep})

    # -- order: the enumeration index -------------------------------------

    def minimal_representative(self, x: "CPElement") -> Tuple[Tuple[int, int], ...]:
        """The reverse-lex minimum over the coset, as coordinate-sorted
        (coord, value) pairs without identity entries."""
        self._check(x)
        return x.rep

    def index_of(self, x: "CPElement") -> int:
        """x's position in the enumeration, a mixed-radix number: the
        coordinate-0 digit is the value's rank (radix |G|); the digit at
        coordinate c >= 1 is the value's position among the coset minima
        sorted by rank (radix |G/K|). The highest coordinate is the most
        significant, so indices order elements reverse-lexicographically."""
        self._check(x)
        if x._index is None:
            radix = len(self.minima)
            high = d0 = 0
            for coord, val in x.rep:
                if coord == 0:
                    d0 = self.rank_of[val]
                else:
                    high += self.digit_of[val] * radix ** (coord - 1)
            x._index = high * self.group.order + d0
        return x._index

    def element_at(self, i: int) -> "CPElement":
        """The element with enumeration index i (inverse of `index_of`)."""
        order = self.group.order
        if i < 0 or (i >= order and len(self.minima) == 1):
            raise InputError(f"no element at index {i}")
        high, d0 = divmod(i, order)
        rep = [(0, self.kg.element_order[d0])] if d0 else []
        radix = len(self.minima)
        coord = 1
        while high:
            high, d = divmod(high, radix)
            if d:
                rep.append((coord, self.minima[d]))
            coord += 1
        x = CPElement(self, tuple(rep))
        x._index = i
        return x

    def index_codec(self, top: int) -> Tuple[Callable, Callable]:
        """The digit format of an index, as the closures (split, join).
        split(i) is (high, vals, k): the digits above coordinate top as one
        number, the coset minima at coordinates 0..top, and the K factor of
        the coordinate-0 value. join(high, vals, k) inverts it for minima
        vals at coordinates 0..len(vals)-1, with high above them."""
        g, minima, r = self.group, self.minima, len(self.minima)
        mul, order, ranked = g.mul, g.order, self.kg.element_order
        min_of, k_of, rank_of, digit_of = self.min_of, self.k_of, self.rank_of, self.digit_of
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

        def join(high: int, vals: List[int], k: int) -> int:
            for v in reversed(vals[1:]):
                high = high * r + digit_of[v]
            return high * order + rank_of[mul[vals[0]][k]]

        return split, join

    def compare(self, x: "CPElement", y: "CPElement") -> int:
        """Reverse lexicographic comparison of minimal representatives
        (highest differing coordinate wins), read off the indices."""
        ix, iy = self.index_of(x), self.index_of(y)
        return (ix > iy) - (ix < iy)

    # -- enumeration ------------------------------------------------------

    def enumerate_elements(self) -> Iterator["CPElement"]:
        """All cosets in increasing reverse-lex order of minimal reps: the
        elements at index 0, 1, ...; the iterator ends only when Γ is
        finite, that is when K = G and |Γ| = |G|."""
        finite = len(self.minima) == 1
        return map(self.element_at, range(self.group.order) if finite else count())

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

    `rep`, the coordinate-sorted (coord, value) pairs of the minimal
    representative without identity entries, identifies the element and is
    its only stored form. `_index`, its enumeration index and order key,
    is filled by the context on first use.
    """

    __slots__ = ("ctx", "rep", "_hash", "_index")

    def __init__(self, ctx: CPContext, rep: Tuple[Tuple[int, int], ...]):
        self.ctx = ctx
        self.rep = rep
        self._hash = hash(rep)
        self._index = None

    def __eq__(self, other):
        return isinstance(other, CPElement) and self.ctx is other.ctx and self.rep == other.rep

    def __hash__(self):
        return self._hash

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
        if coord > MAX_LITERAL_COORD:
            raise CapacityError(f"coordinate {coord} is above the cap of {MAX_LITERAL_COORD}")
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

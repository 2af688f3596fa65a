"""The central product of omega copies of G amalgamated over K.

Elements are cosets of the subgroup of K-tuples with trivial coordinate
product. An element is stored only as its reverse-lex minimal
representative, which the group law, hashing and formatting read. The
group law is one merge of two representatives by coordinate: where both
hold entries, their product v becomes min_of[v], the least member of its
K-coset, and the K factor k_of[v] folds into coordinate 0. The order is a
nice enumeration: each element's position in it is a mixed-radix number
(`CPContext.index_of`, inverted by `element_at`), which `compare` and
`enumerate_elements` use as the one order key.
"""

from __future__ import annotations

from itertools import count, islice, product
from math import lcm as _lcm
from typing import Dict, Iterator, List, Mapping, Tuple

from .errors import CapacityError, InputError
from .groups import KGroupSpec

Support = Mapping[int, int]

# The largest domain all_cosets builds: Q8 level 8 (131 072 cosets) fits
# and level 9 (524 288) does not. `aut verify --group Q8 --word [] --level 8`
# takes about 2.1 s and 83 MB (Python 3.11, one core of a shared 2-core
# x86-64 host); a two-generator word (a ladder and a transposition) about
# 4.6 s and 144 MB.
MAX_COSETS = 1 << 18


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
        for coord in sorted(support):
            if coord < 0:
                raise InputError(f"negative coordinate {coord}")
            if not 0 <= support[coord] < self.group.order:
                raise InputError(f"unknown element index {support[coord]}")
        return CPElement(self, self._normalise(support))

    def _normalise(self, support: Support) -> Tuple[Tuple[int, int], ...]:
        """The minimal representative of a tuple whose coordinates and
        values are already valid: the body of `make` without its checks."""
        mul, min_of, k_of = self.group.mul, self.min_of, self.k_of
        e = self.group.identity_index
        v0 = residual = e
        higher = []
        for coord in sorted(support):
            val = support[coord]
            m = min_of[val]
            if coord == 0:
                v0 = m
            elif m != e:
                higher.append((coord, m))
            residual = mul[residual][k_of[val]]
        v0 = mul[v0][residual]
        return ((0, v0), *higher) if v0 != e else tuple(higher)

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
        return CPElement(self, self._multiply_reps(x.rep, y.rep))

    def _multiply_reps(self, xr, yr) -> Tuple[Tuple[int, int], ...]:
        """The group law on minimal representatives, one merge by
        coordinate: an entry on one side only is kept as it is; where both
        sides hold a and b, v = ab becomes min_of[v] and k_of[v] folds into
        the K residual, which coordinate 0 absorbs (K is central)."""
        mul, min_of, k_of = self.group.mul, self.min_of, self.k_of
        e = residual = self.group.identity_index
        i = j = 0
        nx, ny = len(xr), len(yr)
        out = []
        while i < nx and j < ny:
            a, b = xr[i], yr[j]
            if a[0] < b[0]:
                out.append(a)
                i += 1
            elif b[0] < a[0]:
                out.append(b)
                j += 1
            else:
                v = mul[a[1]][b[1]]
                if min_of[v] != e:
                    out.append((a[0], min_of[v]))
                residual = mul[residual][k_of[v]]
                i += 1
                j += 1
        out += xr[i:] or yr[j:]
        if out and out[0][0] == 0:
            residual = mul[out.pop(0)[1]][residual]
        return ((0, residual), *out) if residual != e else tuple(out)

    def inverse(self, x: "CPElement") -> "CPElement":
        self._check(x)
        inv = self.group.inverse
        return CPElement(self, self._normalise({c: inv[v] for c, v in x.rep}))

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
        if count < 1:
            raise InputError("count must be >= 1")
        out = list(islice(self.enumerate_elements(), count))
        if len(out) < count:
            raise InputError(f"count {count} exceeds |Γ| = {len(out)}")
        return out

    def gamma_n_order(self, n: int) -> int:
        """|G|^n / |K|^(n-1), the order of the level-n subgroup."""
        if n < 1:
            raise InputError("n must be >= 1")
        return self.group.order ** n // len(self.k_list) ** (n - 1)

    def all_cosets(self, n: int) -> List["CPElement"]:
        """Brute-force list of every coset with support below n (unsorted):
        each tuple of transversal labels, then each K factor at 0."""
        size = self.gamma_n_order(n)
        if size > MAX_COSETS:
            raise CapacityError(f"level {n} has {size} cosets, above the cap of {MAX_COSETS}")
        mul = self.group.mul
        e = self.group.identity_index
        transversal = self.kg.transversal
        k_of_label = [self.k_of[t] for t in transversal]
        out = []
        for t0, *t_high in product(range(len(transversal)), repeat=n):
            v = transversal[t0]
            higher = []
            for c, t in enumerate(t_high, 1):
                if t:
                    higher.append((c, self.coset_min[t]))
                    v = mul[v][k_of_label[t]]
            higher = tuple(higher)
            for k in self.k_list:
                v0 = mul[v][k]
                out.append(CPElement(self, ((0, v0), *higher) if v0 != e else higher))
        return out

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

"""The central product of omega copies of G amalgamated over K.

Elements are cosets of the subgroup of K-tuples with trivial coordinate
product. An element is stored as per-coordinate coset labels plus a single
accumulated K factor, which the group law and hashing use. Its one
canonical form for the order, the reverse-lex minimal representative, is
built on first use and stored on the element together with the order key
that `CPContext.compare` compares.
"""

from __future__ import annotations

from itertools import islice, product
from math import lcm as _lcm
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .errors import InputError
from .groups import KGroupSpec

Support = Mapping[int, int]


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
        # decompose[g] = (transversal index, k) with g = t * k
        self.decompose: List[Tuple[int, int]] = [None] * g.order
        for t_idx, t in enumerate(kg.transversal):
            for k in self.k_list:
                self.decompose[g.mul[t][k]] = (t_idx, k)
        # per coset: the representative minimizing the element ordering
        # and the inverse of its K factor, which coordinate 0 absorbs
        self.coset_min: List[int] = []
        self.coset_min_kinv: List[int] = []
        for t_idx, t in enumerate(kg.transversal):
            best = min((g.mul[t][k] for k in self.k_list), key=lambda x: self.rank_of[x])
            self.coset_min.append(best)
            self.coset_min_kinv.append(g.inverse[self.decompose[best][1]])
        exponent = 1
        for a in range(g.order):
            exponent = _lcm(exponent, g.element_order(a))
        self.exponent = exponent
        self.identity = CPElement(self, (), g.identity_index)

    # -- construction -----------------------------------------------------

    def make(self, support: Support) -> "CPElement":
        g = self.group
        t_items = []
        kappa = g.identity_index
        for coord in sorted(support):
            val = support[coord]
            if coord < 0:
                raise InputError(f"negative coordinate {coord}")
            if not 0 <= val < g.order:
                raise InputError(f"unknown element index {val}")
            t_idx, k = self.decompose[val]
            if t_idx != 0:
                t_items.append((coord, t_idx))
            kappa = g.mul[kappa][k]
        return CPElement(self, tuple(t_items), kappa)

    def embed(self, elem: int, coord: int) -> "CPElement":
        return self.make({coord: elem})

    def embed_k(self, k: int) -> "CPElement":
        if k not in self.k_set:
            raise InputError(f"element {k} is not in K")
        return self.make({0: k})

    # -- group operations -------------------------------------------------

    def representative(self, x: "CPElement") -> Dict[int, int]:
        """A finite-support representative tuple (kappa folded into coord 0)."""
        g = self.group
        rep: Dict[int, int] = {}
        for coord, t_idx in x.t_support:
            rep[coord] = self.kg.transversal[t_idx]
        rep[0] = g.mul[rep.get(0, g.identity_index)][x.kappa]
        if rep[0] == g.identity_index:
            del rep[0]
        return rep

    def multiply(self, x: "CPElement", y: "CPElement") -> "CPElement":
        self._check(x, y)
        g = self.group
        rep = self.representative(x)
        for coord, val in self.representative(y).items():
            rep[coord] = g.mul[rep.get(coord, g.identity_index)][val]
        return self.make(rep)

    def inverse(self, x: "CPElement") -> "CPElement":
        self._check(x)
        g = self.group
        return self.make({c: g.inverse[v] for c, v in self.representative(x).items()})

    # -- ordering ---------------------------------------------------------

    def minimal_representative(self, x: "CPElement") -> Tuple[Tuple[int, int], ...]:
        """The reverse-lex minimum over the coset, as coordinate-sorted
        (coord, value) pairs without identity entries."""
        self._check(x)
        return (x._form or self._canonical_form(x))[0]

    def compare(self, x: "CPElement", y: "CPElement") -> int:
        """Reverse lexicographic comparison (highest differing index wins)."""
        self._check(x, y)
        if x == y:
            return 0
        kx = (x._form or self._canonical_form(x))[1]
        ky = (y._form or self._canonical_form(y))[1]
        return -1 if kx < ky else 1

    def _canonical_form(self, x: "CPElement") -> Tuple[tuple, tuple]:
        """Build and store x's minimal representative and order key.

        Coordinates above 0 take their cheapest K-multiple independently;
        coordinate 0 absorbs the residual K factor. The key is (top, rank
        at top, ..., rank at 0), where top is the highest nontrivial
        coordinate (-1 for the identity): the identity ranks lowest, so a
        plain tuple comparison of keys is the reverse-lex order.
        """
        g = self.group
        mul = g.mul
        residual = x.kappa
        t0 = 0
        higher = []
        for coord, t_idx in x.t_support:
            if coord == 0:
                t0 = t_idx
                continue
            higher.append((coord, self.coset_min[t_idx]))
            residual = mul[residual][self.coset_min_kinv[t_idx]]
        v0 = mul[self.kg.transversal[t0]][residual]
        rep = higher if v0 == g.identity_index else [(0, v0)] + higher
        top = rep[-1][0] if rep else -1
        rank_of = self.rank_of
        ranks = [rank_of[g.identity_index]] * (top + 1)
        for coord, val in rep:
            ranks[top - coord] = rank_of[val]
        form = x._form = (tuple(rep), (top, *ranks))
        return form

    # -- enumeration ------------------------------------------------------

    def enumerate_elements(self) -> Iterator["CPElement"]:
        """All cosets in increasing reverse-lex order of minimal reps;
        the generator ends only when Γ is finite, that is when K = G.

        Minimal representatives are exactly the tuples whose coordinate 0
        is arbitrary and whose higher coordinates are coset-minimal
        entries, so the order is a positional count: coordinate 0 is the
        least significant digit.
        """
        g = self.group
        coord0 = [g for g in self.kg.element_order]
        higher = sorted(
            (m for m in self.coset_min if m != g.identity_index),
            key=lambda m: self.rank_of[m],
        )

        def level(n: int) -> Iterator[Dict[int, int]]:
            if n == 0:
                for v in coord0:
                    yield {} if v == g.identity_index else {0: v}
            else:
                yield from level(n - 1)
                for m in higher:
                    for rep in level(n - 1):
                        out = dict(rep)
                        out[n] = m
                        yield out

        n = 0
        emitted = 0
        while True:
            total = self.gamma_n_order(n + 1)
            if total == emitted:  # K = G: Γ is finite and exhausted
                return
            for rep in _skip(level(n), emitted):
                yield self.make(rep)
            emitted = total
            n += 1

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
        """Brute-force list of every coset with support below n (unsorted)."""
        g = self.group
        out = []
        labels = range(len(self.kg.transversal))
        for t_vec in product(labels, repeat=n):
            for kappa in self.k_list:
                out.append(
                    CPElement(
                        self,
                        tuple((c, t) for c, t in enumerate(t_vec) if t != 0),
                        kappa,
                    )
                )
        assert len(out) == self.gamma_n_order(n)
        return out

    def coset_members(self, x: "CPElement", width: Optional[int] = None) -> Iterator[Dict[int, int]]:
        """All representatives of x supported below `width` (brute force)."""
        g = self.group
        top = max([c for c, _ in x.t_support], default=0)
        width = (top + 1) if width is None else width
        if width <= top:
            raise InputError("width must exceed the canonical support")
        t_of = dict(x.t_support)
        for ks in product(self.k_list, repeat=width - 1):
            prod = g.identity_index
            for k in ks:
                prod = g.mul[prod][k]
            k0 = g.mul[x.kappa][g.inverse[prod]]
            ks_full = (k0,) + ks
            rep = {}
            for c in range(width):
                val = g.mul[self.kg.transversal[t_of.get(c, 0)]][ks_full[c]]
                if val != g.identity_index:
                    rep[c] = val
            yield rep

    def _check(self, *elems: "CPElement") -> None:
        for e in elems:
            if e.ctx is not self:
                raise InputError("element belongs to a different context")


def _skip(it, n):
    for _ in range(n):
        next(it)
    return it


class CPElement:
    """A coset; immutable and hashable.

    `(t_support, kappa)` (coset labels at the nontrivial coordinates and
    the accumulated K factor) identifies the element. `_form` holds its
    one canonical form for the order: the minimal representative and the
    order key, filled by the context on first use, so work that never
    orders elements never pays for it.
    """

    __slots__ = ("ctx", "t_support", "kappa", "_hash", "_form")

    def __init__(self, ctx: CPContext, t_support: Tuple[Tuple[int, int], ...], kappa: int):
        self.ctx = ctx
        self.t_support = t_support
        self.kappa = kappa
        self._hash = hash((t_support, kappa))
        self._form = None

    def __eq__(self, other):
        return (
            isinstance(other, CPElement)
            and self.ctx is other.ctx
            and self.t_support == other.t_support
            and self.kappa == other.kappa
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CPElement(t={self.t_support}, kappa={self.kappa})"

    def support_coords(self) -> Tuple[int, ...]:
        return tuple(c for c, _ in self.t_support)


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

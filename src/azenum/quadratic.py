"""Quadratic structures over F2 and their correspondence with groups.

Vectors are int bitmasks; bit i is the coefficient of basis vector i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from . import gf2
from .errors import CapacityError, InputError
from .groups import (
    MAX_ORDER,
    GroupAnalysis,
    GroupTable,
    is_class_csw,
    subgroup_closure,
    validate_and_analyze,
)

EXHAUSTIVE_CAP = 20

# A document's size bounds dimU (Q holds dimU entries, gamma dimU^2) but not
# dimV. `qs amalgam` output and time grow faster than dimV^2: two dimU-2
# factors of dimV 1024 take 0.5 s and 0.7 MB, of dimV 4096 9.5 s and 10 MB
# (Python 3.11, one core of a shared 2-core x86-64 host).
MAX_DIM_V = 1024


@dataclass(frozen=True)
class QuadraticStructure:
    dim_u: int
    dim_v: int
    q_basis: Tuple[int, ...]
    gamma_basis: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.q_basis) != self.dim_u:
            raise InputError("q_basis must have one value per U basis vector")
        if len(self.gamma_basis) != self.dim_u or any(
            len(row) != self.dim_u for row in self.gamma_basis
        ):
            raise InputError("gamma_basis must be a dim_u x dim_u table")
        vmask = (1 << self.dim_v) - 1
        for i in range(self.dim_u):
            if self.q_basis[i] & ~vmask:
                raise InputError(f"q_basis[{i}] exceeds dim_v")
            if self.gamma_basis[i][i] != 0:
                raise InputError("gamma must have zero diagonal (alternating)")
            for j in range(self.dim_u):
                if self.gamma_basis[i][j] != self.gamma_basis[j][i]:
                    raise InputError("gamma must be symmetric")
                if self.gamma_basis[i][j] & ~vmask:
                    raise InputError("gamma value exceeds dim_v")

    def eval_q(self, u: int) -> int:
        """Extend Q from the basis by polarization."""
        self._check_u(u)
        bits = gf2.bits_of(u)
        out = 0
        for a, i in enumerate(bits):
            out ^= self.q_basis[i]
            for j in bits[a + 1 :]:
                out ^= self.gamma_basis[i][j]
        return out

    def eval_gamma(self, u1: int, u2: int) -> int:
        self._check_u(u1)
        self._check_u(u2)
        return eval_cocycle(self.gamma_basis, u1, u2)

    def _check_u(self, u: int) -> None:
        if u < 0 or u >> self.dim_u:
            raise InputError(f"vector {u:#x} not in F2^{self.dim_u}")


@dataclass(frozen=True)
class QSMorphism:
    """Linear maps (f, g) with g . Q1 = Q2 . f, stored as basis images."""

    f: Tuple[int, ...]
    g: Tuple[int, ...]

    def apply_u(self, u: int) -> int:
        return gf2.apply_linear(self.f, u)

    def apply_v(self, v: int) -> int:
        return gf2.apply_linear(self.g, v)


def is_morphism(src: QuadraticStructure, dst: QuadraticStructure, m: QSMorphism) -> bool:
    if len(m.f) != src.dim_u or len(m.g) != src.dim_v:
        return False
    for u in _every_u(src.dim_u):
        if m.apply_v(src.eval_q(u)) != dst.eval_q(m.apply_u(u)):
            return False
    return True


def is_injective_morphism(src, dst, m) -> bool:
    return (
        is_morphism(src, dst, m)
        and gf2.gf2_rank(m.f) == src.dim_u
        and gf2.gf2_rank(m.g) == src.dim_v
    )


def identity_morphism(qs: QuadraticStructure) -> QSMorphism:
    return QSMorphism(
        tuple(1 << i for i in range(qs.dim_u)),
        tuple(1 << i for i in range(qs.dim_v)),
    )


def is_nondegenerate(qs: QuadraticStructure) -> bool:
    """Exhaustively check Q(u) != 0 for every nonzero u."""
    return all(qs.eval_q(u) != 0 for u in _every_u(qs.dim_u)[1:])


def _every_u(dim_u: int) -> range:
    """Every vector of F2^dim_u, for an exhaustive check up to the cap."""
    if dim_u > EXHAUSTIVE_CAP:
        raise CapacityError(f"dim_u {dim_u} exceeds cap {EXHAUSTIVE_CAP}")
    return range(1 << dim_u)


# ---------------------------------------------------------------------------
# Group -> quadratic structure
# ---------------------------------------------------------------------------


def _greedy_basis(g: GroupTable, base, candidates) -> List[int]:
    """Each candidate outside the subgroup generated by base and the earlier picks."""
    basis: List[int] = []
    span = subgroup_closure(g, base)
    for x in candidates:
        if x not in span:
            basis.append(x)
            span = subgroup_closure(g, list(base) + basis)
    return basis


def _subset_products(g: GroupTable, basis: List[int]) -> List[int]:
    """products[mask]: the basis elements in mask multiplied in ascending bit order."""
    products = [g.identity_index]
    for b in basis:
        products += [g.mul[x][b] for x in products]
    return products


def qs_from_group(table: GroupTable, analysis: GroupAnalysis) -> QuadraticStructure:
    """The structure (G/V, V; squaring) for a class group."""
    if not is_class_csw(table, analysis):
        raise InputError(f"group {table.name} is not exponent-4 with central involutions")
    g = table
    e = g.identity_index
    v_elements = tuple(sorted({x for x in range(g.order) if g.mul[x][x] == e}))
    v_basis = _greedy_basis(g, (), v_elements)
    u_basis = _greedy_basis(g, v_elements, range(g.order))
    v_coords = {x: mask for mask, x in enumerate(_subset_products(g, v_basis))}
    q_basis = tuple(v_coords[g.mul[t][t]] for t in u_basis)
    gamma = tuple(
        tuple(v_coords[g.commutator(a, b)] for b in u_basis) for a in u_basis
    )
    return QuadraticStructure(len(u_basis), len(v_basis), q_basis, gamma)


# ---------------------------------------------------------------------------
# Quadratic structure -> group
# ---------------------------------------------------------------------------


def pack_uv(u: int, v: int, dim_v: int) -> int:
    return (u << dim_v) | v


def unpack_uv(x: int, dim_v: int) -> Tuple[int, int]:
    return x >> dim_v, x & ((1 << dim_v) - 1)


def cocycle_basis(qs: QuadraticStructure) -> List[List[int]]:
    """The basis-ordered central-extension cocycle.

    beta(e_i, e_j) is gamma for i > j, Q(e_i) on the diagonal, 0 for i < j;
    bilinear extension then satisfies beta(u, u) = Q(u).
    """
    beta = [[0] * qs.dim_u for _ in range(qs.dim_u)]
    for i in range(qs.dim_u):
        beta[i][i] = qs.q_basis[i]
        for j in range(i):
            beta[i][j] = qs.gamma_basis[i][j]
    return beta


def eval_cocycle(beta: List[List[int]], u1: int, u2: int) -> int:
    out = 0
    for i in gf2.bits_of(u1):
        row = beta[i]
        for j in gf2.bits_of(u2):
            out ^= row[j]
    return out


def group_from_qs(
    qs: QuadraticStructure, name: str = "G(qs)"
) -> Tuple[GroupTable, GroupAnalysis]:
    """Central extension of U by V along the basis-ordered cocycle.

    Elements are packed as (u << dim_v) | v.
    """
    total = qs.dim_u + qs.dim_v
    if 1 << total > MAX_ORDER:
        raise CapacityError(f"2^{total} elements exceed the desk-scale cap")
    if not is_nondegenerate(qs):
        raise InputError("quadratic structure is degenerate")
    beta = cocycle_basis(qs)
    order = 1 << total
    dv = qs.dim_v
    mul = [[0] * order for _ in range(order)]
    for x in range(order):
        u1, v1 = unpack_uv(x, dv)
        for y in range(order):
            u2, v2 = unpack_uv(y, dv)
            mul[x][y] = pack_uv(u1 ^ u2, v1 ^ v2 ^ eval_cocycle(beta, u1, u2), dv)
    names = [
        "({}|{})".format(
            gf2.format_bitstring(x >> dv, qs.dim_u),
            gf2.format_bitstring(x & ((1 << dv) - 1), dv),
        )
        for x in range(order)
    ]
    return validate_and_analyze(mul, names, name=name)


# ---------------------------------------------------------------------------
# Free amalgams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmalgamResult:
    qs: QuadraticStructure
    emb1: QSMorphism
    emb2: QSMorphism


class _SplitDecomposer:
    """Decompose vectors over [morphism images | greedy complement basis]."""

    def __init__(self, images: List[int], dim: int):
        self.d0 = len(images)
        self.extra = gf2.complete_basis(images, dim)
        self._span = gf2.Gf2Span()
        for v in list(images) + self.extra:
            self._span.add(v)

    def embed(self, v: int, offset: int) -> int:
        """Coords over the images, then those over the complement from bit offset."""
        combo = self._span.solve(v)
        if combo is None:
            raise InputError("vector outside the expected space")
        return (combo & ((1 << self.d0) - 1)) | (combo >> self.d0) << offset


def free_amalgam(
    qs0: QuadraticStructure,
    qs1: QuadraticStructure,
    e1: QSMorphism,
    qs2: QuadraticStructure,
    e2: QSMorphism,
) -> AmalgamResult:
    """Free amalgam of qs1 and qs2 over qs0 along injective morphisms.

    U is the amalgamated sum; V gains the tensor block carrying
    gamma(u1', u2') = u1' (x) u2'.
    """
    for src, dst, m in ((qs0, qs1, e1), (qs0, qs2, e2)):
        if not is_injective_morphism(src, dst, m):
            raise InputError("e1/e2 must be injective quadratic-structure morphisms")

    du0, dv0 = qs0.dim_u, qs0.dim_v
    su1 = _SplitDecomposer(list(e1.f), qs1.dim_u)
    su2 = _SplitDecomposer(list(e2.f), qs2.dim_u)
    sv1 = _SplitDecomposer(list(e1.g), qs1.dim_v)
    sv2 = _SplitDecomposer(list(e2.g), qs2.dim_v)
    p, q = len(su1.extra), len(su2.extra)
    a1, a2 = len(sv1.extra), len(sv2.extra)
    # The layout: U = U0 | U1' | U2' and V = V0 | V1' | V2' | U1' (x) U2'.
    # lift1[k] / lift2[k] is U basis vector k's preimage in factor 1 / 2,
    # None where it has none.
    lift1 = list(e1.f) + su1.extra + [None] * q
    lift2 = list(e2.f) + [None] * p + su2.extra
    dim_u = du0 + p + q
    dim_v = dv0 + a1 + a2 + p * q

    def pair_gamma(k: int, l: int) -> int:
        if lift1[k] is not None and lift1[l] is not None:
            return sv1.embed(qs1.eval_gamma(lift1[k], lift1[l]), dv0)
        if lift2[k] is not None and lift2[l] is not None:
            return sv2.embed(qs2.eval_gamma(lift2[k], lift2[l]), dv0 + a1)
        i, j = sorted((k, l))
        return 1 << (dv0 + a1 + a2 + (i - du0) * q + (j - du0 - p))

    q_basis = tuple(
        sv1.embed(qs1.eval_q(lift1[k]), dv0)
        if lift1[k] is not None
        else sv2.embed(qs2.eval_q(lift2[k]), dv0 + a1)
        for k in range(dim_u)
    )
    gamma = tuple(tuple(pair_gamma(k, l) for l in range(dim_u)) for k in range(dim_u))
    qs = QuadraticStructure(dim_u, dim_v, q_basis, gamma)
    emb1 = QSMorphism(
        tuple(su1.embed(1 << i, du0) for i in range(qs1.dim_u)),
        tuple(sv1.embed(1 << i, dv0) for i in range(qs1.dim_v)),
    )
    emb2 = QSMorphism(
        tuple(su2.embed(1 << i, du0 + p) for i in range(qs2.dim_u)),
        tuple(sv2.embed(1 << i, dv0 + a1) for i in range(qs2.dim_v)),
    )
    return AmalgamResult(qs, emb1, emb2)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def qs_to_json(qs: QuadraticStructure) -> dict:
    return {
        "dimU": qs.dim_u,
        "dimV": qs.dim_v,
        "Q": [gf2.format_bitstring(v, qs.dim_v) for v in qs.q_basis],
        "gamma": [
            [gf2.format_bitstring(v, qs.dim_v) for v in row]
            for row in qs.gamma_basis
        ],
    }


def qs_from_json(doc: dict) -> QuadraticStructure:
    try:
        dim_u = doc["dimU"]
        dim_v = doc["dimV"]
        q = _bitstrings(doc["Q"])
        gamma = tuple(_bitstrings(row) for row in doc["gamma"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad quadratic-structure document: {exc}")
    for key, dim in (("dimU", dim_u), ("dimV", dim_v)):
        if type(dim) is not int or dim < 0:
            raise InputError(f"{key} must be a non-negative integer, not {dim!r}")
    if dim_v > MAX_DIM_V:
        raise CapacityError(f"dimV {dim_v} exceeds cap {MAX_DIM_V}")
    return QuadraticStructure(dim_u, dim_v, q, gamma)


def _bitstrings(items) -> Tuple[int, ...]:
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise TypeError("Q and each gamma row must be lists of bitstrings")
    return tuple(gf2.parse_bitstring(s) for s in items)

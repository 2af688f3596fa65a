"""Quadratic structures over F2 and their correspondence with groups.

Vectors are int bitmasks; bit i is the coefficient of basis vector i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import gf2
from .errors import CapacityError, InputError, parse_json
from .groups import (
    GroupAnalysis,
    GroupTable,
    is_class_csw,
    subgroup_closure,
    validate_and_analyze,
)

NONDEGENERACY_CAP = 20


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
        out = 0
        for i in gf2.bits_of(u1):
            row = self.gamma_basis[i]
            for j in gf2.bits_of(u2):
                out ^= row[j]
        return out

    def _check_u(self, u: int) -> None:
        if u < 0 or u >> self.dim_u:
            raise InputError(f"vector {u:#x} not in F2^{self.dim_u}")


@dataclass(frozen=True)
class QSMorphism:
    """Linear maps (f, g) with g . Q1 = Q2 . f, stored as basis images."""

    f: Tuple[int, ...]
    g: Tuple[int, ...]

    def apply_u(self, u: int) -> int:
        return gf2.apply_linear(list(self.f), u)

    def apply_v(self, v: int) -> int:
        return gf2.apply_linear(list(self.g), v)


def is_morphism(src: QuadraticStructure, dst: QuadraticStructure, m: QSMorphism) -> bool:
    if len(m.f) != src.dim_u or len(m.g) != src.dim_v:
        return False
    for u in range(1 << src.dim_u):
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
    if qs.dim_u > NONDEGENERACY_CAP:
        raise CapacityError(f"dim_u {qs.dim_u} exceeds cap {NONDEGENERACY_CAP}")
    return all(qs.eval_q(u) != 0 for u in range(1, 1 << qs.dim_u))


# ---------------------------------------------------------------------------
# Group -> quadratic structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupQuadraticData:
    """A quadratic structure extracted from a group, with quotient data.

    v_coords maps each square-trivial element to its V-coordinates;
    u_coords maps every group element to the coordinates of its coset;
    section[mask] is the ordered product of the U-basis lifts for mask.
    """

    qs: QuadraticStructure
    group: GroupTable
    v_elements: Tuple[int, ...]
    v_basis: Tuple[int, ...]
    v_coords: Dict[int, int]
    u_basis: Tuple[int, ...]
    u_coords: Tuple[int, ...]
    section: Tuple[int, ...]

    def v_part(self, x: int) -> int:
        """V-coordinates of x relative to the section of its coset."""
        g = self.group
        t = self.section[self.u_coords[x]]
        return self.v_coords[g.mul[g.inverse[t]][x]]


def qs_from_group(table: GroupTable, analysis: GroupAnalysis) -> GroupQuadraticData:
    """The structure (G/V, V; squaring) for a class group."""
    if not is_class_csw(table, analysis):
        raise InputError(f"group {table.name} is not exponent-4 with central involutions")
    g = table
    e = g.identity_index
    v_elements = tuple(sorted({x for x in range(g.order) if g.mul[x][x] == e}))

    v_basis: List[int] = []
    span = {e}
    for x in v_elements:
        if x not in span:
            v_basis.append(x)
            span = set(subgroup_closure(g, v_basis))
    dim_v = len(v_basis)
    v_coords: Dict[int, int] = {}
    for mask in range(1 << dim_v):
        prod = e
        for i in gf2.bits_of(mask):
            prod = g.mul[prod][v_basis[i]]
        v_coords[prod] = mask

    u_basis: List[int] = []
    span = set(v_elements)
    for x in range(g.order):
        if x not in span:
            u_basis.append(x)
            span = set(subgroup_closure(g, list(v_elements) + u_basis))
    dim_u = len(u_basis)

    section: List[int] = []
    u_coords = [None] * g.order
    for mask in range(1 << dim_u):
        prod = e
        for i in gf2.bits_of(mask):
            prod = g.mul[prod][u_basis[i]]
        section.append(prod)
        for v in v_elements:
            u_coords[g.mul[prod][v]] = mask

    q_basis = tuple(v_coords[g.mul[t][t]] for t in u_basis)
    gamma = tuple(
        tuple(v_coords[g.commutator(a, b)] for b in u_basis) for a in u_basis
    )
    qs = QuadraticStructure(dim_u, dim_v, q_basis, gamma)
    return GroupQuadraticData(
        qs=qs,
        group=g,
        v_elements=v_elements,
        v_basis=tuple(v_basis),
        v_coords=v_coords,
        u_basis=tuple(u_basis),
        u_coords=tuple(u_coords),
        section=tuple(section),
    )


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
    if not is_nondegenerate(qs):
        raise InputError("quadratic structure is degenerate")
    total = qs.dim_u + qs.dim_v
    if total > 8:
        raise CapacityError(f"2^{total} elements exceed the desk-scale cap")
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

    def coords(self, v: int) -> Tuple[int, int]:
        """(coords over images, coords over complement basis)."""
        combo = self._span.solve(v)
        if combo is None:
            raise InputError("vector outside the expected space")
        return combo & ((1 << self.d0) - 1), combo >> self.d0


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
    dim_u = du0 + p + q
    dim_v = dv0 + a1 + a2 + p * q

    def emb_v1(v: int) -> int:
        c0, c1 = sv1.coords(v)
        return c0 | (c1 << dv0)

    def emb_v2(v: int) -> int:
        c0, c2 = sv2.coords(v)
        return c0 | (c2 << (dv0 + a1))

    def tensor_bit(i: int, j: int) -> int:
        return 1 << (dv0 + a1 + a2 + i * q + j)

    # Underlying factor vector of each amalgam U basis vector (side, vec).
    def side_vec(k: int):
        if k < du0:
            return ("0", k)
        if k < du0 + p:
            return ("1", su1.extra[k - du0])
        return ("2", su2.extra[k - du0 - p])

    def pair_gamma(k: int, l: int) -> int:
        sk, vk = side_vec(k)
        sl, vl = side_vec(l)
        if "0" in (sk, sl):
            if sk == "0" and sl == "0":
                return emb_v1(qs1.eval_gamma(e1.f[vk], e1.f[vl]))
            s, v0k, other = (sl, vk, vl) if sk == "0" else (sk, vl, vk)
            if s == "1":
                return emb_v1(qs1.eval_gamma(e1.f[v0k], other))
            return emb_v2(qs2.eval_gamma(e2.f[v0k], other))
        if sk == sl == "1":
            return emb_v1(qs1.eval_gamma(vk, vl))
        if sk == sl == "2":
            return emb_v2(qs2.eval_gamma(vk, vl))
        i = (k if sk == "1" else l) - du0
        j = (l if sl == "2" else k) - du0 - p
        return tensor_bit(i, j)

    q_basis = []
    for k in range(dim_u):
        s, v = side_vec(k)
        if s == "0":
            q_basis.append(emb_v1(qs1.eval_q(e1.f[v])))
        elif s == "1":
            q_basis.append(emb_v1(qs1.eval_q(v)))
        else:
            q_basis.append(emb_v2(qs2.eval_q(v)))
    gamma = [
        [0 if k == l else pair_gamma(k, l) for l in range(dim_u)]
        for k in range(dim_u)
    ]
    qs = QuadraticStructure(dim_u, dim_v, tuple(q_basis), tuple(tuple(r) for r in gamma))

    def emb_u1(u: int) -> int:
        c0, c1 = su1.coords(u)
        return c0 | (c1 << du0)

    def emb_u2(u: int) -> int:
        c0, c2 = su2.coords(u)
        return c0 | (c2 << (du0 + p))

    emb1 = QSMorphism(
        tuple(emb_u1(1 << i) for i in range(qs1.dim_u)),
        tuple(emb_v1(1 << i) for i in range(qs1.dim_v)),
    )
    emb2 = QSMorphism(
        tuple(emb_u2(1 << i) for i in range(qs2.dim_u)),
        tuple(emb_v2(1 << i) for i in range(qs2.dim_v)),
    )
    return AmalgamResult(qs, emb1, emb2)


# ---------------------------------------------------------------------------
# Free amalgam of groups
# ---------------------------------------------------------------------------


def morphism_from_group_hom(
    src: GroupQuadraticData, dst: GroupQuadraticData, hom: List[int]
) -> QSMorphism:
    """The quadratic-structure morphism induced by a group homomorphism."""
    g1, g2 = src.group, dst.group
    for a in range(g1.order):
        for b in range(g1.order):
            if hom[g1.mul[a][b]] != g2.mul[hom[a]][hom[b]]:
                raise InputError(f"not a homomorphism at pair ({a}, {b})")
    f = tuple(dst.u_coords[hom[t]] for t in src.u_basis)
    g = tuple(dst.v_coords[hom[v]] for v in src.v_basis)
    return QSMorphism(f, g)


@dataclass(frozen=True)
class GroupAmalgamResult:
    group: GroupTable
    analysis: GroupAnalysis
    qs: QuadraticStructure
    emb1: Tuple[int, ...]
    emb2: Tuple[int, ...]


def _pair_embedding(
    data: GroupQuadraticData,
    emb: QSMorphism,
    amalgam: QuadraticStructure,
    beta_am: List[List[int]],
    dim_v: int,
) -> List[int]:
    """Embed a factor group into the amalgam group (packed pairs).

    Sends x = section(u) * v to (f(u), g(v) + delta(u)) where delta is the
    quadratic refinement of the cocycle discrepancy, making the map a
    homomorphism.
    """
    qs1 = data.qs
    beta1 = cocycle_basis(qs1)
    eps = [
        [
            emb.apply_v(beta1[i][j])
            ^ eval_cocycle(beta_am, emb.f[i], emb.f[j])
            for j in range(qs1.dim_u)
        ]
        for i in range(qs1.dim_u)
    ]

    def delta(u: int) -> int:
        bits = gf2.bits_of(u)
        out = 0
        for a, i in enumerate(bits):
            for j in bits[a + 1 :]:
                out ^= eps[i][j]
        return out

    images = []
    for x in range(data.group.order):
        u = data.u_coords[x]
        v = data.v_part(x)
        images.append(pack_uv(emb.apply_u(u), emb.apply_v(v) ^ delta(u), dim_v))
    return images


def free_amalgam_groups(
    g0: GroupTable,
    a0: GroupAnalysis,
    g1: GroupTable,
    a1: GroupAnalysis,
    hom1: List[int],
    g2: GroupTable,
    a2: GroupAnalysis,
    hom2: List[int],
) -> GroupAmalgamResult:
    """Free amalgam of class groups along injective homomorphisms."""
    for g, hom in ((g1, hom1), (g2, hom2)):
        if len(set(hom)) != g0.order:
            raise InputError("embeddings must be injective")
    d0 = qs_from_group(g0, a0)
    d1 = qs_from_group(g1, a1)
    d2 = qs_from_group(g2, a2)
    e1 = morphism_from_group_hom(d0, d1, hom1)
    e2 = morphism_from_group_hom(d0, d2, hom2)
    am = free_amalgam(d0.qs, d1.qs, e1, d2.qs, e2)
    name = f"Amalgam({g1.name},{g2.name};{g0.name})"
    table, analysis = group_from_qs(am.qs, name=name)
    beta_am = cocycle_basis(am.qs)
    emb1 = _pair_embedding(d1, am.emb1, am.qs, beta_am, am.qs.dim_v)
    emb2 = _pair_embedding(d2, am.emb2, am.qs, beta_am, am.qs.dim_v)

    # Align the two embeddings on g0: correct emb2 by the linear V-part
    # discrepancy, which factors through U0.
    du0 = d0.qs.dim_u
    chi = []
    for i in range(du0):
        t = d0.u_basis[i]
        diff = emb1[hom1[t]] ^ emb2[hom2[t]]
        if diff >> am.qs.dim_v:
            raise InputError("embeddings disagree beyond a central factor")
        chi.append(diff)
    if any(chi):
        corrected = []
        for x in range(g2.order):
            u_am, v_am = unpack_uv(emb2[x], am.qs.dim_v)
            u0_part = u_am & ((1 << du0) - 1)
            v_am ^= gf2.apply_linear(chi, u0_part)
            corrected.append(pack_uv(u_am, v_am, am.qs.dim_v))
        emb2 = corrected
    return GroupAmalgamResult(table, analysis, am.qs, tuple(emb1), tuple(emb2))


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
        q = tuple(gf2.parse_bitstring(s) for s in doc["Q"])
        gamma = tuple(
            tuple(gf2.parse_bitstring(s) for s in row) for row in doc["gamma"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad quadratic-structure document: {exc}")
    return QuadraticStructure(dim_u, dim_v, q, gamma)


def load_qs_file(path) -> QuadraticStructure:
    with open(path) as fh:
        return qs_from_json(parse_json(fh.read(), path))

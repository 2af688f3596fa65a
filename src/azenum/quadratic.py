"""Quadratic structures over F2 and their correspondence with groups.

Vectors are int bitmasks; bit i is the coefficient of basis vector i.

Free amalgams are taken over leading coordinates: the common structure is
each factor's structure on its first dim_u U and dim_v V coordinates. Any
injective morphism becomes this coordinate inclusion after a change of
basis of its target (extend the images of the U and V bases to bases), so
no free amalgam is lost up to isomorphism.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import CapacityError, InputError, Record, shown
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
# dimV. `qs amalgam` output grows as dimV^2, as each embedding lists dimV
# images of up to 2 dimV bits: two dimU-2 factors of dimV 1024 give 0.7 MB
# in 0.07 s, of dimV 2048 2.6 MB in 0.11 s, of dimV 4096 10 MB in 0.3 s
# (wall time with interpreter start; Python 3.11, shared 2-core x86-64 host).
# The cap also holds for the amalgam itself, whose dimV gains dimU1' * dimU2'
# tensor coordinates: free_amalgam refuses more than MAX_DIM_V, as two dimU-40
# factors of dimV 1 would otherwise give dimV 1602 and 10 MB of output.
MAX_DIM_V = 1024


def bits_of(v: int) -> List[int]:
    """Indices of set bits, ascending."""
    out = []
    i = 0
    while v:
        if v & 1:
            out.append(i)
        v >>= 1
        i += 1
    return out


def parse_bitstring(s: str) -> int:
    """Little-endian bitstring: character at index i is bit i."""
    v = 0
    for i, ch in enumerate(s):
        if ch == "1":
            v |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bitstring character {ch!r}")
    return v


def format_bitstring(v: int, width: int) -> str:
    return "".join("1" if (v >> i) & 1 else "0" for i in range(width))


class QuadraticStructure(Record):
    __slots__ = ("dim_u", "dim_v", "q_basis", "gamma_basis")

    def __init__(
        self, dim_u: int, dim_v: int, q_basis: Tuple[int, ...], gamma_basis: Tuple[Tuple[int, ...], ...]
    ):
        if len(q_basis) != dim_u:
            raise InputError("q_basis must have one value per U basis vector")
        if len(gamma_basis) != dim_u or any(len(row) != dim_u for row in gamma_basis):
            raise InputError("gamma_basis must be a dim_u x dim_u table")
        vmask = (1 << dim_v) - 1
        for i in range(dim_u):
            if q_basis[i] & ~vmask:
                raise InputError(f"q_basis[{i}] exceeds dim_v")
            if gamma_basis[i][i] != 0:
                raise InputError("gamma must have zero diagonal (alternating)")
            for j in range(dim_u):
                if gamma_basis[i][j] != gamma_basis[j][i]:
                    raise InputError("gamma must be symmetric")
                if gamma_basis[i][j] & ~vmask:
                    raise InputError("gamma value exceeds dim_v")
        object.__setattr__(self, "dim_u", dim_u)
        object.__setattr__(self, "dim_v", dim_v)
        object.__setattr__(self, "q_basis", q_basis)
        object.__setattr__(self, "gamma_basis", gamma_basis)

    def eval_q(self, u: int) -> int:
        """Extend Q from the basis by polarization."""
        self._check_u(u)
        bits = bits_of(u)
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


class QSMorphism(Record):
    """Linear maps (f, g) with g . Q1 = Q2 . f, stored as basis images."""

    __slots__ = ("f", "g")

    def __init__(self, f: Tuple[int, ...], g: Tuple[int, ...]):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


def is_nondegenerate(qs: QuadraticStructure) -> bool:
    """Exhaustively check Q(u) != 0 for every nonzero u, up to the cap."""
    if qs.dim_u > EXHAUSTIVE_CAP:
        raise CapacityError(f"dim_u {qs.dim_u} exceeds cap {EXHAUSTIVE_CAP}")
    return all(qs.eval_q(u) != 0 for u in range(1, 1 << qs.dim_u))


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
    if not is_class_csw(analysis):
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
    for i in bits_of(u1):
        row = beta[i]
        for j in bits_of(u2):
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
            format_bitstring(x >> dv, qs.dim_u),
            format_bitstring(x & ((1 << dv) - 1), dv),
        )
        for x in range(order)
    ]
    return validate_and_analyze(mul, names, name=name)


# ---------------------------------------------------------------------------
# Free amalgams
# ---------------------------------------------------------------------------


class AmalgamResult(Record):
    __slots__ = ("qs", "emb1", "emb2")

    def __init__(self, qs: QuadraticStructure, emb1: QSMorphism, emb2: QSMorphism):
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "emb1", emb1)
        object.__setattr__(self, "emb2", emb2)


def _has_leading(qs: QuadraticStructure, qs0: QuadraticStructure) -> bool:
    """Whether qs0 is qs on its leading coordinates. By polarization
    (`eval_q`), Q agrees with qs0's on all of U0 exactly when Q and gamma
    do on U0's basis vectors and their pairs."""
    d = qs0.dim_u
    return (
        d <= qs.dim_u
        and qs0.dim_v <= qs.dim_v
        and qs.q_basis[:d] == qs0.q_basis
        and all(qs.gamma_basis[i][:d] == qs0.gamma_basis[i] for i in range(d))
    )


def _place(v: int, d0: int, offset: int) -> int:
    """v's first d0 coordinates kept, the rest moved up to start at offset."""
    return v & ((1 << d0) - 1) | (v >> d0) << offset


def free_amalgam(
    qs0: QuadraticStructure, qs1: QuadraticStructure, qs2: QuadraticStructure
) -> AmalgamResult:
    """Free amalgam of qs1 and qs2 over qs0, their common structure on
    their leading coordinates.

    U = U0 | U1' | U2' and V = V0 | V1' | V2' | U1' (x) U2', where U1', V1'
    are qs1's coordinates past qs0's and U2', V2' qs2's; gamma carries
    gamma(u1', u2') = u1' (x) u2'. Both embeddings are these coordinate maps.
    """
    if not (_has_leading(qs1, qs0) and _has_leading(qs2, qs0)):
        raise InputError(
            "the common structure is not each factor's structure on its leading coordinates"
        )
    du0, dv0 = qs0.dim_u, qs0.dim_v
    p, q = qs1.dim_u - du0, qs2.dim_u - du0
    a1, a2 = qs1.dim_v - dv0, qs2.dim_v - dv0
    dim_u = du0 + p + q
    tensor = dv0 + a1 + a2
    if tensor + p * q > MAX_DIM_V:
        raise CapacityError(f"the amalgam's dimV {tensor + p * q} exceeds cap {MAX_DIM_V}")
    q_basis = [0] * dim_u
    gamma = [[0] * dim_u for _ in range(dim_u)]
    for i in range(p):
        for j in range(q):
            bit = 1 << (tensor + i * q + j)
            gamma[du0 + i][du0 + p + j] = gamma[du0 + p + j][du0 + i] = bit
    embs = []
    for qs, u_off, v_off in ((qs1, du0, dv0), (qs2, du0 + p, dv0 + a1)):
        coords = [i if i < du0 else i - du0 + u_off for i in range(qs.dim_u)]
        for a, k in enumerate(coords):
            q_basis[k] = _place(qs.q_basis[a], dv0, v_off)
            for b, l in enumerate(coords):
                gamma[k][l] = _place(qs.gamma_basis[a][b], dv0, v_off)
        g = tuple(_place(1 << i, dv0, v_off) for i in range(qs.dim_v))
        embs.append(QSMorphism(tuple(1 << k for k in coords), g))
    qs = QuadraticStructure(dim_u, tensor + p * q, tuple(q_basis), tuple(map(tuple, gamma)))
    return AmalgamResult(qs, *embs)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def qs_to_json(qs: QuadraticStructure) -> dict:
    return {
        "dimU": qs.dim_u,
        "dimV": qs.dim_v,
        "Q": [format_bitstring(v, qs.dim_v) for v in qs.q_basis],
        "gamma": [
            [format_bitstring(v, qs.dim_v) for v in row]
            for row in qs.gamma_basis
        ],
    }


def qs_from_json(doc: dict) -> QuadraticStructure:
    """The structure of a `qs_to_json` object. InputError names what is at
    fault: a document that is not an object, a missing key, Q, gamma or a
    gamma row that is not a list of bitstrings, or a dimension that is not
    a non-negative integer; CapacityError for dimV above MAX_DIM_V."""
    if not isinstance(doc, dict):
        raise InputError("a quadratic-structure document must be a JSON object")
    for key in ("dimU", "dimV", "Q", "gamma"):
        if key not in doc:
            raise InputError(f"the quadratic-structure document has no {key!r}")
    q = _bitstrings(doc["Q"], "Q")
    if not isinstance(doc["gamma"], list):
        raise InputError("gamma must be a list of rows")
    gamma = tuple(_bitstrings(row, f"gamma row {i}") for i, row in enumerate(doc["gamma"]))
    for key in ("dimU", "dimV"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise InputError(f"{key} must be a non-negative integer, not {shown(repr(doc[key]))}")
    if doc["dimV"] > MAX_DIM_V:
        raise CapacityError(f"dimV {doc['dimV']} exceeds cap {MAX_DIM_V}")
    return QuadraticStructure(doc["dimU"], doc["dimV"], q, gamma)


def _bitstrings(items, where: str) -> Tuple[int, ...]:
    if not isinstance(items, list):
        raise InputError(f"{where} must be a list of bitstrings")
    for i, s in enumerate(items):
        if not isinstance(s, str):
            raise InputError(f"{where}, entry {i}, is not a bitstring")
    try:
        return tuple(parse_bitstring(s) for s in items)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None

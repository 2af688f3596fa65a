"""Finite groups as multiplication tables, with derived structure.

Elements are indices 0..order-1 into the table; names are cosmetic. A table
is associative if (xg)y = x(gy) for all x, y and each g of a sequence whose
right products from the identity reach every element, as such g are closed
under the product (Light's test; Clifford and Preston, *The Algebraic
Theory of Semigroups* I, §1.2). `subgroup_closure` spans by such right
products alone, so a generating sequence it finds assumes no associativity;
for a group `_generating_sequence` has at most log2 n picks, so the test
reads at most n^2 log2 n products.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd, lcm, log
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import CapacityError, InputError, Record, StructuralError

MAX_ORDER = 256


class GroupTable(Record):
    __slots__ = ("name", "order", "element_names", "mul", "identity_index", "inverse")

    def element_order(self, a: int) -> int:
        x = a
        n = 1
        while x != self.identity_index:
            x = self.mul[x][a]
            n += 1
        return n

    def commutator(self, a: int, b: int) -> int:
        ia, ib = self.inverse[a], self.inverse[b]
        return self.mul[self.mul[ia][ib]][self.mul[a][b]]

    def index_of_name(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise InputError(f"unknown element name {name!r} in group {self.name}")


class GroupAnalysis(Record):
    __slots__ = ("exponent", "center", "commutator_subgroup", "involutions")


class KGroupSpec(Record):
    __slots__ = ("group", "k_subgroup", "transversal", "__dict__")

    @cached_property
    def element_order(self) -> Tuple[int, ...]:
        """The elements ranked coset-major, t·k for each t of the transversal
        and then each k of K: every coset ranks its K multiples as K does."""
        mul = self.group.mul
        return tuple(mul[t][k] for t in self.transversal for k in self.k_subgroup)


def validate_and_analyze(
    mul: Sequence[Sequence[int]],
    element_names: Optional[Sequence[str]] = None,
    name: str = "G",
) -> Tuple[GroupTable, GroupAnalysis]:
    """Validate a raw multiplication table and derive its structure."""
    order = len(mul)
    if order == 0:
        raise StructuralError("empty table")
    if order > MAX_ORDER:
        raise CapacityError(f"order {order} exceeds desk-scale cap {MAX_ORDER}")
    for a, row in enumerate(mul):
        if len(row) != order:
            raise StructuralError(f"row {a} has length {len(row)}, expected {order}")
        for b, v in enumerate(row):
            if type(v) is not int or not 0 <= v < order:
                raise StructuralError(f"entry mul[{a}][{b}] = {v!r} out of range")

    identity = None
    for e in range(order):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise StructuralError("no two-sided identity")

    # once Light's test below passes, a right inverse is two-sided: ab = 1 makes
    # x -> bx injective, so bc = 1 for some c, and a = a(bc) = (ab)c = c
    for a, row in enumerate(mul):
        if identity not in row:
            raise StructuralError(f"element {a} has no two-sided inverse")

    if element_names is None:
        element_names = tuple(f"e{i}" for i in range(order))
    else:
        element_names = tuple(element_names)
        if len(element_names) != order or len(set(element_names)) != order:
            raise StructuralError("element names must be distinct, one per element")

    table = GroupTable(
        name=name,
        order=order,
        element_names=element_names,
        mul=tuple(tuple(row) for row in mul),
        identity_index=identity,
        inverse=tuple(row.index(identity) for row in mul),
    )
    mul = table.mul
    for g in _generating_sequence(table):
        for x, row in enumerate(mul):
            if mul[row[g]] != tuple(row[v] for v in mul[g]):
                y = next(y for y in range(order) if mul[row[g]][y] != row[mul[g][y]])
                raise StructuralError(f"associativity fails at triple ({x}, {g}, {y})")

    exponent = 1
    for a in range(order):
        exponent = lcm(exponent, table.element_order(a))
    center = tuple(
        a
        for a in range(order)
        if all(mul[a][b] == mul[b][a] for b in range(order))
    )
    commutators = {table.commutator(a, b) for a in range(order) for b in range(order)}
    commutator_subgroup = tuple(sorted(subgroup_closure(table, commutators)))
    involutions = tuple(
        a for a in range(order) if a != identity and mul[a][a] == identity
    )
    return table, GroupAnalysis(exponent, center, commutator_subgroup, involutions)


def subgroup_closure(table: GroupTable, generators) -> FrozenSet[int]:
    """The subgroup generated: in a finite group, every product of
    generators, found breadth first from the identity."""
    gens = set(generators)
    seen = {table.identity_index}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for c in {table.mul[a][g] for g in gens} - seen:
                seen.add(c)
                nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def is_subgroup(table: GroupTable, subset) -> bool:
    """Nonempty and closed under the product, which in a finite group
    implies the rest: each a's powers, the identity and a^-1 among them."""
    s = set(subset)
    return bool(s) and all(table.mul[a][b] in s for a in s for b in s)


def is_class_csw(analysis: GroupAnalysis) -> bool:
    """Exponent divides 4 and every involution is central."""
    if 4 % analysis.exponent != 0:
        return False
    center = set(analysis.center)
    return all(v in center for v in analysis.involutions)


def validate_k(table: GroupTable, analysis: GroupAnalysis, k) -> bool:
    ks = set(k)
    for a in ks:
        if not isinstance(a, int) or not 0 <= a < table.order:
            raise InputError(f"K index {a!r} out of range")
    return is_subgroup(table, ks) and set(analysis.commutator_subgroup) <= ks <= set(analysis.center)


def rank(table: GroupTable) -> int:
    """Size of a smallest generating set of a nilpotent G, by the Burnside
    basis theorem (Robinson, *A Course in the Theory of Groups*, ch. 5): the
    largest log_p |P : Φ(P)|, P the Sylow p-subgroup and Φ(P) generated by
    its p-th powers and commutators. InputError unless G is nilpotent, as
    G' <= K <= Z(G) makes it: unless its p-elements number |G|'s p-part."""
    n, mul = table.order, table.mul
    orders = [table.element_order(a) for a in range(n)]
    best = 0
    # by Cauchy's theorem, the prime element orders are the primes dividing n
    for p in {o for o in orders if o > 1 and all(o % q for q in range(2, o))}:
        part = gcd(n, p**n)  # the p-part of n
        sylow = [a for a in range(n) if part % orders[a] == 0]
        if len(sylow) != part:
            raise InputError(f"group {table.name} is not nilpotent, so its rank is not computed")
        powers = sylow
        for _ in range(p - 1):
            powers = [mul[x][a] for x, a in zip(powers, sylow)]
        commutators = {table.commutator(a, b) for a in sylow for b in sylow}
        phi = subgroup_closure(table, commutators.union(powers))
        best = max(best, round(log(part // len(phi), p)))
    return best


def make_kgroup(table: GroupTable, analysis: GroupAnalysis, k) -> KGroupSpec:
    """K stored identity first, then by index, and the transversal: the
    identity, then each other coset's least element index, by index."""
    if not validate_k(table, analysis, k):
        raise InputError("K must be a subgroup with G' <= K <= Z(G)")
    e = table.identity_index
    ks = (e, *sorted(set(k) - {e}))
    seen, transversal = set(ks), [e]
    for g in range(table.order):
        if g not in seen:
            transversal.append(g)
            seen.update(table.mul[g][x] for x in ks)
    return KGroupSpec(table, ks, tuple(transversal))


def make_standard_kgroup(table: GroupTable, analysis: GroupAnalysis, k) -> KGroupSpec:
    """The same spec as `make_kgroup`, under the name some callers use."""
    return make_kgroup(table, analysis, k)


def _generating_sequence(table: GroupTable, base=(), candidates=None) -> List[int]:
    """Each candidate (by default every element, in order) outside the
    subgroup H that `base` and the earlier picks generate. A pick lies
    outside H, so H and the pick generate a subgroup in which H has index
    at least 2 (Lagrange): each pick at least doubles |H|, so there are at
    most log2 |G| of them, and with the default candidates they and `base`
    generate G."""
    picks: List[int] = []
    span = subgroup_closure(table, base)
    for x in range(table.order) if candidates is None else candidates:
        if x not in span:
            picks.append(x)
            span = subgroup_closure(table, [*base, *picks])
    return picks


# ---------------------------------------------------------------------------
# Bundled catalog
# ---------------------------------------------------------------------------


def _table_from_rule(elems, op, names, name):
    index = {e: i for i, e in enumerate(elems)}
    mul = [[index[op(a, b)] for b in elems] for a in elems]
    return validate_and_analyze(mul, names, name=name)


@cache
def _build_catalog():
    cat = {}

    c2, a2 = _table_from_rule(
        [0, 1], lambda a, b: (a + b) % 2, ["1", "g"], "C2"
    )
    cat["C2"] = (c2, a2, [0, 1])  # K = G

    c4, a4 = _table_from_rule(
        [0, 1, 2, 3], lambda a, b: (a + b) % 4, ["1", "g", "g2", "g3"], "C4"
    )
    cat["C4"] = (c4, a4, [0, 2])  # K = {1, g^2}

    v4, av4 = _table_from_rule(
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2),
        ["1", "a", "b", "ab"],
        "C2xC2",
    )
    cat["C2xC2"] = (v4, av4, [0])  # K trivial

    # Quaternion elements as (sign, unit): unit 0=1, 1=i, 2=j, 3=k.
    unit_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 1): (-1, 3),
        (2, 3): (1, 1), (3, 2): (-1, 1),
        (3, 1): (1, 2), (1, 3): (-1, 2),
    }

    def q8_op(a, b):
        s, u = unit_mul[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    q8_elems = [(s, u) for u in range(4) for s in (1, -1)]
    q8_names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    q8, aq8 = _table_from_rule(q8_elems, q8_op, q8_names, "Q8")
    cat["Q8"] = (q8, aq8, [0, 1])  # K = {1, -1}

    d4_elems = [(r, s) for s in (0, 1) for r in range(4)]

    def d4_op(a, b):
        r1, s1 = a
        r2, s2 = b
        r = (r1 + (r2 if s1 == 0 else -r2)) % 4
        return (r, (s1 + s2) % 2)

    d4_names = ["1", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    d4, ad4 = _table_from_rule(d4_elems, d4_op, d4_names, "D4")
    cat["D4"] = (d4, ad4, [0, 2])  # K = {1, r^2} = G' = Z

    return cat


def catalog_names() -> List[str]:
    return list(_build_catalog())


def catalog_group(name: str) -> Tuple[GroupTable, GroupAnalysis, List[int]]:
    """Bundled group with its analysis and default K indices."""
    try:
        return _build_catalog()[name]
    except KeyError:
        raise InputError(f"unknown catalog group {name!r}")


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def group_to_json(table: GroupTable, k=None) -> dict:
    doc = {
        "name": table.name,
        "order": table.order,
        "elements": list(table.element_names),
        "mul": [list(row) for row in table.mul],
    }
    if k is not None:
        doc["K"] = sorted(k)
    return doc


def group_from_json(doc: dict):
    try:
        mul = doc["mul"]
        names = doc.get("elements")
        name = doc.get("name", "G")
        k = doc.get("K")
    except (KeyError, TypeError):
        raise InputError("group document must contain 'mul'")
    if not isinstance(mul, list) or not all(isinstance(row, list) for row in mul):
        raise InputError("group document 'mul' must be a list of rows")
    for key, items, kind in (("elements", names, str), ("K", k, int)):
        if items is not None and not (
            isinstance(items, list) and all(type(x) is kind for x in items)
        ):
            raise InputError(f"group document {key!r} must be a list of {kind.__name__}s")
    if type(name) is not str:
        raise InputError("group document 'name' must be a str")
    table, analysis = validate_and_analyze(mul, names, name=name)
    if "order" in doc and (type(doc["order"]) is not int or doc["order"] != table.order):
        raise InputError("declared order must be an int matching the table size")
    return table, analysis, k

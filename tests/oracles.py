"""Shared brute-force oracles and generators for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, count, permutations, product

from azenum.automorphisms import Perm
from azenum.errors import InputError
from azenum.groups import (
    _generating_sequence,
    catalog_group,
    subgroup_closure,
    validate_and_analyze,
)
from azenum.quadratic import (
    QuadraticStructure,
    QSMorphism,
    bits_of,
    cocycle_basis,
    eval_cocycle,
    is_nondegenerate,
)
from azenum.rado import adjacent
from azenum.wqo import PairResult, is_star_embedded, is_subword, last_appearance_order


def brute_star(w1, w2):
    """Strong-order decision by exhaustive search over all injections that
    carry each letter of w1 to the same letter of w2, with an independent
    covering check. Returns the lexicographically least witness or None."""
    for image in letter_images(w1.letters, w2.letters):
        if brute_covers(image, w2):
            return image
    return None


def letter_images(a, b, start=0):
    """Every strictly increasing tuple of positions of b at or after start
    carrying the letters of a in turn, in lexicographic order: a search
    over all injections, pruned at the first position whose letter differs."""
    if not a:
        yield ()
        return
    for p in range(start, len(b) - len(a) + 1):
        if b[p] == a[0]:
            for rest in letter_images(a[1:], b, p + 1):
                yield (p, *rest)


def dp_star(w1, w2):
    """Strong-order decision by a table over (i, j), i a position in w1 and
    j one in w2; True or False. ok(i, j): w1[:i] embeds in w2[:j] with each
    position q < j covered by a same-letter image at or after q, given that
    w1[i:] goes at or above j, where its images carry exactly the letters
    of w1[i:]. Position j - 1 either takes w1[i-1] (ok(i-1, j-1)) or is
    covered from above when its letter is in w1[i:] (ok(i, j-1)). The table
    is built a column j at a time."""
    a, b = w1.letters, w2.letters
    above = [set(a[i:]) for i in range(len(a) + 1)]
    ok = [True] + [False] * len(a)  # column j = 0
    for letter in b:
        ok = [ok[0] and letter in above[0]] + [
            (a[i - 1] == letter and ok[i - 1]) or (letter in above[i] and ok[i])
            for i in range(1, len(a) + 1)
        ]
    return ok[-1]


def star_subwords(w2):
    """Every w1 that strongly embeds in w2, as letter tuples, by one search
    from the right built on the covering condition itself: a word read off
    an image covering w2[q:] either takes position q (which it then covers)
    or leaves it out, and then q is covered exactly when q's letter is
    among the word's letters, all of which lie at image positions after q."""
    found = {()}
    for letter in reversed(w2.letters):
        found = {(letter, *w) for w in found} | {w for w in found if letter in w}
    return found


def brute_covers(image, w2):
    """The covering condition as defined: every position of w2 has an
    image position at or after it carrying the same letter."""
    b = w2.letters
    return all(any(p >= i and b[p] == b[i] for p in image) for i in range(len(b)))


def oracle_group(name):
    """A catalog group, or C6 over K = {1, g^3}: on the catalog the K
    factors of a ladder's slot products cancel in every window, on C6 not."""
    if name != "C6":
        return catalog_group(name)
    table, analysis = validate_and_analyze([[(a + b) % 6 for b in range(6)] for a in range(6)])
    return table, analysis, [0, 3]


def find_isomorphism(g1, g2):
    """Brute-force isomorphism search by generator images: a full element
    map, or None. Each generator's candidate images, and every element the
    partial map reaches, keep the invariants of `element_invariants`, which
    any isomorphism preserves."""
    if g1.order != g2.order:
        return None
    inv1, inv2 = element_invariants(g1), element_invariants(g2)
    if sorted(inv1) != sorted(inv2):
        return None

    gens = _generating_sequence(g1)

    def extend(assigned):
        mapping = hom_from_generators(g1, g2, assigned)
        if mapping is None or any(inv1[x] != inv2[y] for x, y in mapping.items()):
            return None
        if len(assigned) == len(gens):
            if len(mapping) != g1.order:
                return None
            return mapping
        nxt = gens[len(assigned)]
        used = set(mapping.values())
        for img in range(g2.order):
            if img in used or inv2[img] != inv1[nxt]:
                continue
            result = extend(assigned + [(nxt, img)])
            if result is not None:
                return result
        return None

    return extend([])


def element_invariants(table):
    """Per element: its order, its number of square roots and the size of
    its centralizer (so whether it is a square, and whether it is central)."""
    n, mul = table.order, table.mul
    roots = Counter(mul[x][x] for x in range(n))
    return [
        (table.element_order(a), roots[a], sum(mul[a][b] == mul[b][a] for b in range(n)))
        for a in range(n)
    ]


def hom_from_generators(g1, g2, assigned):
    """The homomorphism on the subgroup of g1 generated by the `assigned`
    (generator, image) pairs, grown from the identity and checked at every
    product it reaches; None on a clash or if it is not injective."""
    mapping = {g1.identity_index: g2.identity_index}
    frontier = [g1.identity_index]
    while frontier:
        x = frontier.pop()
        fx = mapping[x]
        for gen, img in assigned:
            y = g1.mul[x][gen]
            fy = g2.mul[fx][img]
            if y in mapping:
                if mapping[y] != fy:
                    return None
            else:
                mapping[y] = fy
                frontier.append(y)
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def power(table, a, n):
    """a to the n-th power in a group table, by n multiplications."""
    out = table.identity_index
    for _ in range(n):
        out = table.mul[out][a]
    return out


def associativity_failure(mul, triples=None):
    """The first (a, b, c) among `triples`, by default all n^3 of them in
    order, with (ab)c != a(bc) in the raw table `mul`; None if there is none."""
    if triples is None:
        triples = product(range(len(mul)), repeat=3)
    for a, b, c in triples:
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return a, b, c
    return None


def table_of(elems, op):
    """The raw multiplication table of `op` on `elems`, as lists of indices."""
    index = {e: i for i, e in enumerate(elems)}
    return [[index[op(a, b)] for b in elems] for a in elems]


def cyclic(n):
    """C_n as (elements, product), for `table_of` and `direct`."""
    return list(range(n)), lambda a, b: (a + b) % n


def semidirect(n, m, k):
    """C_n ⋊ C_m, C_m's generator acting on C_n as x -> kx (k^m = 1 mod n):
    (a, b)(c, d) = (a + k^b c, b + d)."""
    return [(a, b) for a in range(n) for b in range(m)], lambda x, y: (
        (x[0] + pow(k, x[1], n) * y[0]) % n, (x[1] + y[1]) % m)


def heisenberg(p):
    """The upper unitriangular 3 x 3 matrices mod p, as triples (a, b, c)."""
    return list(product(range(p), repeat=3)), lambda x, y: (
        (x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[0] * y[1]) % p)


def symmetric(n):
    """S_n, the permutations of n points; `p[q[i]]` composes."""
    return list(permutations(range(n))), lambda p, q: tuple(p[q[i]] for i in range(n))


def alternating4():
    """A4, the even permutations of 4 points, with the product of S4."""
    elems, op = symmetric(4)
    return [p for p in elems
            if sum(p[i] > p[j] for i, j in combinations(range(4), 2)) % 2 == 0], op


def dicyclic(m):
    """Dic_m of order 4m, x^a y^b as (a, b): x^(2m) = 1, y^2 = x^m and
    y x y^-1 = x^-1, so y x^c = x^-c y."""
    return [(a, b) for b in range(2) for a in range(2 * m)], lambda s, t: (
        (s[0] + (-t[0] if s[1] else t[0]) + (m if s[1] and t[1] else 0)) % (2 * m),
        (s[1] + t[1]) % 2)


def brute_center(table):
    """Z(G) by all n^2 pairs: the elements that commute with every element."""
    n, mul = table.order, table.mul
    return tuple(a for a in range(n) if all(mul[a][b] == mul[b][a] for b in range(n)))


def brute_commutator_subgroup(table):
    """G' by all n^2 pairs: the span of every commutator [a, b]."""
    n = table.order
    commutators = {table.commutator(a, b) for a in range(n) for b in range(n)}
    return tuple(sorted(subgroup_closure(table, commutators)))


def direct(*factors):
    """The direct product of (elements, product) factors, on tuples."""
    return list(product(*(f[0] for f in factors))), lambda x, y: tuple(
        op(a, b) for (_, op), a, b in zip(factors, x, y))


def as_factor(mul):
    """A multiplication table as an (elements, product) factor."""
    return list(range(len(mul))), lambda a, b: mul[a][b]


def burnside_rank(table):
    """The rank of a 2-group: log2 |G/Φ(G)|, with Φ(G) generated by the
    squares (the Burnside basis theorem)."""
    phi = subgroup_closure(table, [table.mul[a][a] for a in range(table.order)])
    return (table.order // len(phi)).bit_length() - 1


def as_tuple(ctx, x):
    """x as a coordinate -> value dict: an element (an index) gives its
    minimal representative, a dict is a representative already."""
    return dict(x) if isinstance(x, dict) else ctx.representative(x)


def coset_members(ctx, x, width=None):
    """Every representative supported below `width` of the coset of x, an
    element or any representative of it as a coordinate -> value dict:
    x times each K-tuple whose coordinate product is one."""
    g = ctx.group
    e = g.identity_index
    base = as_tuple(ctx, x)
    top = max(base, default=0)
    width = top + 1 if width is None else width
    assert width > top, "width must exceed the support"
    for ks in product(ctx.k_list, repeat=width - 1):
        k0 = e
        for k in ks:
            k0 = g.mul[k0][g.inverse[k]]
        member = {}
        for c, k in enumerate((k0, *ks)):
            val = g.mul[base.get(c, e)][k]
            if val != e:
                member[c] = val
        yield member


def brute_cosets(ctx, n):
    """Every coset with support below n, built without the enumeration
    (unsorted): each tuple of transversal labels, then each K factor at 0.
    `make` encodes each minimal representative found here, and must
    decode it back unchanged."""
    mul, e, transversal = ctx.group.mul, ctx.group.identity_index, ctx.kg.transversal
    rank = ctx.rank_of.__getitem__
    least = [min((mul[t][k] for k in ctx.k_list), key=rank) for t in transversal]
    out = []
    for t0, *t_high in product(range(len(transversal)), repeat=n):
        v = transversal[t0]
        higher = []
        for c, t in enumerate(t_high, 1):
            if t:
                higher.append((c, least[t]))
                v = mul[v][ctx.k_of[transversal[t]]]
        higher = tuple(higher)
        for k in ctx.k_list:
            v0 = mul[v][k]
            rep = ((0, v0), *higher) if v0 != e else higher
            x = ctx.make(dict(rep))
            assert ctx.minimal_representative(x) == rep
            out.append(x)
    return out


def brute_minimum(ctx, x, width=None):
    """The reverse-lex least representative of x (an element, or any
    representative of it as a dict), found by trying every member of its
    coset supported below `width` (at most 8)."""

    def key(rep):
        e = ctx.group.identity_index
        # pad to a common width so reverse-lex is a plain tuple compare
        w = 8
        return tuple(ctx.rank_of[rep.get(c, e)] for c in range(w - 1, -1, -1))

    return min(coset_members(ctx, x, width), key=key)


def brute_product(ctx, x, y, width):
    """The minimal representative of x·y: the componentwise product of the
    two minimal representatives, then `brute_minimum`."""
    mul, e = ctx.group.mul, ctx.group.identity_index
    prod = ctx.representative(x)
    for c, v in ctx.minimal_representative(y):
        prod[c] = mul[prod.get(c, e)][v]
    return brute_minimum(ctx, prod, width)


def raw_perm(ctx, perm, x):
    """The tuple of x's minimal representative with the entry at j moved to
    perm[j], read from the permutation's (source, target) moves."""
    moves = dict(perm.moves)
    return {moves.get(c, c): v for c, v in ctx.minimal_representative(x)}


def raw_ladder(ctx, coords, x):
    """The tuple of x's minimal representative (or of a representative given
    as a coordinate -> value dict) after the ladder on `coords`: window
    slot j takes the ordered product of every other slot's entry."""
    mul, e = ctx.group.mul, ctx.group.identity_index
    out = as_tuple(ctx, x)
    vals = [out.get(c, e) for c in coords]
    for j, c in enumerate(coords):
        v = e
        for i, u in enumerate(vals):
            if i != j:
                v = mul[v][u]
        out[c] = v
    return out


def scalar_ladder(ctx, places, v):
    """A ladder's action on one window configuration v (slot j's digit at
    r^j), for a window whose coordinates have the place values `places`:
    (shift, K factor), slot j taking the ordered product of the other
    slots' coset minima, keeping its digit and giving up its K factor. One
    configuration at a time: the reference for the list-form act."""
    mul, e, minima, r = ctx.group.mul, ctx.group.identity_index, ctx.minima, len(ctx.minima)
    ds = [v // r**j % r for j in range(len(places))]
    vals, prefix, p, s = [minima[d] for d in ds], [], e, e
    for u in vals:
        prefix.append(p)
        p = mul[p][u]
    shift, k = 0, e
    for j in reversed(range(len(vals))):
        u, s = mul[prefix[j]][s], mul[vals[j]][s]
        shift += (ctx.digit_of[u] - ds[j]) * places[j]
        k = mul[k][ctx.k_of[u]]
    return shift, k


def oracle_apply_word(ctx, word, x):
    """The word's action on elements, one generator at a time: the raw
    tuple action on the minimal representative, then `make` normalises it."""
    for gen in word.gens:
        if isinstance(gen, Perm):
            x = ctx.make(raw_perm(ctx, gen, x))
        else:
            x = ctx.make(raw_ladder(ctx, gen.coords, x))
    return x


def oracle_apply_beta(bm, x):
    """The shift-and-copy map on the minimal representative, coordinate by
    coordinate, then `make` normalises it: positions up to l_i follow the
    witness (fanning out over I_s when they land on a letter's last
    occurrence), higher positions shift by l_j - l_i."""
    l_i = len(bm.plan) - 1
    out = {}
    for l, val in bm.ctx.minimal_representative(x):
        if l <= l_i:
            for t in bm.plan[l]:
                out[t] = val
        else:
            out[l + bm.shift] = val
    return bm.ctx.make(out)


def check_coset_welldefined(ctx, coords, trials=200, rng=None):
    """Probe representative independence of a raw ladder action.

    Returns a witness (element, rep_a, rep_b) whose two representatives map
    to different cosets, or None if no dependence was found. Shows that
    windows of the wrong arity do not descend to the quotient.
    """
    rng = rng or random.Random(0)
    g = ctx.group
    window = list(coords)
    outside = max(window) + 1
    for _ in range(trials):
        support = {
            c: rng.randrange(g.order)
            for c in rng.sample(window, rng.randint(0, len(window)))
        }
        x = ctx.make(support)
        rep_a = ctx.representative(x)
        # alternative representative: a K element at a window coordinate,
        # cancelled at a coordinate outside the window
        k = ctx.k_list[rng.randrange(len(ctx.k_list))]
        c1 = window[rng.randrange(len(window))]
        rep_b = dict(rep_a)
        e = g.identity_index
        rep_b[c1] = g.mul[rep_b.get(c1, e)][k]
        rep_b[outside] = g.mul[rep_b.get(outside, e)][g.inverse[k]]
        assert ctx.make(rep_b) == x
        img_a = ctx.make(raw_ladder(ctx, window, rep_a))
        img_b = ctx.make(raw_ladder(ctx, window, rep_b))
        if img_a != img_b:
            return (x, rep_a, rep_b)
    return None


def brute_compare(ctx, x, y, width):
    """The reverse-lex order on cosets supported below `width`: compare
    the brute-force minimal representatives from the highest coordinate
    down, by element rank. Returns -1, 0 or 1."""
    rx = brute_minimum(ctx, x, width)
    ry = brute_minimum(ctx, y, width)
    e = ctx.group.identity_index
    for c in reversed(range(width)):
        a, b = ctx.rank_of[rx.get(c, e)], ctx.rank_of[ry.get(c, e)]
        if a != b:
            return -1 if a < b else 1
    return 0


def random_az_family(ctx, rng, arity, max_support, extra_members=0):
    """A tuple family guaranteed to contain a strongly embedded pair: a
    random base member plus partners whose letter words extend the base
    word by a prefix of base letters repeated exponent-many times (which
    preserves the letter set, the last-appearance order, and all
    multiplicity residues)."""
    from azenum.az import TupleFamily, letter_word

    # base entries are coset-minimal values so that letter words are stable
    # under canonicalization at any position (prefixing keeps the signature);
    # when K = G the only coset minimum is 1, and every element is one at 0
    m = ctx.exponent
    values = ctx.minima if len(ctx.minima) > 1 else range(ctx.group.order)
    while True:
        top = rng.randint(0, max_support - m - 1)
        base = tuple(
            ctx.make(
                {
                    c: rng.choice(values)
                    for c in rng.sample(range(top + 1), rng.randint(1, top + 1))
                }
            )
            for _ in range(arity)
        )
        word = letter_word(ctx, base)
        if len(word) > 0:
            break
    members = [base]
    for _ in range(1 + extra_members):
        reps = rng.randint(1, max(1, (max_support - len(word)) // m))
        prefix = []
        for _ in range(reps):
            prefix.extend([rng.choice(word.letters)] * m)
        letters = tuple(prefix) + word.letters
        if len(letters) > max_support + 1:
            letters = word.letters
        members.append(
            tuple(
                ctx.make(
                    {i: letter[c] for i, letter in enumerate(letters)}
                )
                for c in range(arity)
            )
        )
    return TupleFamily(ctx, arity, members)


def brute_subword(w1, w2):
    return next(letter_images(w1.letters, w2.letters), None)


def rado_level_masks(n, v_max):
    """Sorted masks of every induced n-cycle of the bit-predicate graph
    whose maximum vertex is v_max, by a plain depth-first search that
    rebuilds its neighbour masks and reaches each cycle from both
    directions (a set drops the twin)."""

    def below(v, top):
        mask = v & ((1 << min(v, top)) - 1)
        for u in range(v + 1, top):
            if (u >> v) & 1:
                mask |= 1 << u
        return mask

    def bits(mask):
        return [i for i in range(mask.bit_length()) if (mask >> i) & 1]

    nbrs = [below(w, v_max) for w in range(v_max)]
    nbr_top = below(v_max, v_max)
    masks = set()

    def extend(last, length, used, forbidden):
        if length == n - 1:
            for u in bits(nbrs[last] & nbr_top & ~forbidden):
                masks.add(used | (1 << u) | (1 << v_max))
            return
        for u in bits(nbrs[last] & ~forbidden & ~nbr_top):
            extend(u, length + 1, used | (1 << u), forbidden | nbrs[last] | (1 << u))

    for w in bits(nbr_top):
        extend(w, 2, 1 << w, 1 << w)
    return sorted(masks)


def rado_dfs_levels(n, start):
    """(v, masks) for v = start, start + 1, ...: the sorted masks of the
    induced n-cycles whose maximum vertex is v, by a memoised path search
    over the whole prefix, a second reference beside `rado_level_masks`.

    One neighbour-mask table grows by a vertex per level: adding v sets
    bit v on each of v's bit-neighbours, and v's own neighbours below it
    are the bits of v. A cycle with maximum v is v plus an induced path
    whose two endpoints are the only path vertices in N(v), the bits of
    v. Each path is walked once, from its lower endpoint w: the interior
    avoids N(v) and every neighbour of an earlier path vertex, and the
    path closes only at a vertex of N(v) above w. Step candidates with
    one key nbrs[u] & ~forbidden share a subtree, searched once per node.
    """
    nbrs = []
    for v in count():
        if v >= start:
            yield v, _dfs_level_masks(n, v, nbrs)
        nbrs.append(v)
        for w in _low_bits(v):
            nbrs[w] |= 1 << v


def _low_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dfs_level_masks(n, v, nbrs):
    if v & (v - 1) == 0:  # fewer than two neighbours below v
        return []
    last_interior = n - 3  # path vertices before the last interior one

    def extend(key, length, forbidden, closing):
        # the masks of the path's continuations after a vertex with this key
        forbidden |= key
        closing &= ~key
        if not closing:  # every closing vertex already sees the path
            return []
        step = key & ~v
        found = []
        if length == last_interior:
            # look one step ahead: keep u only if a closing vertex sees it
            for u in _low_bits(step):
                found += [1 << u | 1 << end for end in _low_bits(nbrs[u] & closing)]
            return found
        subtrees = {}
        for u in _low_bits(step):
            sub_key = nbrs[u] & ~forbidden
            if sub_key not in subtrees:
                subtrees[sub_key] = extend(sub_key, length + 1, forbidden, closing)
            found += [m | 1 << u for m in subtrees[sub_key]]
        return found

    masks = []
    for w in _low_bits(v & ~(1 << (v.bit_length() - 1))):  # no start at the top bit
        low = 1 << w
        head = low | 1 << v
        masks += [m | head for m in extend(nbrs[w], 1, low, v & ~((low << 1) - 1))]
    return sorted(masks)


def rado_core_forests_scan(n, core):
    """`rado._core_forests` as first written, its reference: a scan of all
    2^core subsets T of the core [0, core) for those inducing k = n - |T|
    disjoint paths, 1 <= k <= |T|, each with its rings built afresh.
    Returns {T: rings}, rings mapping each pair of path ends to the set of
    the other pairs of every ring that holds it."""
    nbrs = [sum(1 << w for w in range(core) if w != v and adjacent(v, w)) for v in range(core)]
    forests = {}
    for t in range(1 << core):
        if not n <= 2 * t.bit_count() < 2 * n or any(
            (nbrs[u] & t).bit_count() > 2 for u in _low_bits(t)
        ):  # not 1 <= k <= |T|, or a vertex of degree 3
            continue
        ends, seen = [], 0
        for u in _low_bits(t):
            if (nbrs[u] & t).bit_count() < 2 and not seen >> u & 1:  # walk a path from u
                step = 1 << u
                while step:
                    seen |= step
                    end = step.bit_length() - 1
                    step = nbrs[end] & t & ~seen
                ends.append((u, end))
        if seen != t or len(ends) + t.bit_count() != n:  # a cycle, or not k paths
            continue
        rings = {}
        for order in permutations(ends[1:]):
            for turned in product(*[{e, e[::-1]} for e in order]):
                flat = sum(turned, ends[0])  # the ends in ring order
                ring = sorted(1 << a | 1 << b for a, b in zip(flat[1::2], flat[2::2] + flat[:1]))
                for i, pair in enumerate(ring):
                    rings.setdefault(pair, set()).add(tuple(ring[:i] + ring[i + 1 :]))
        forests[t] = rings
    return forests


def rado_induced_cycle(vertices):
    """The induced-cycle test as first written, the reference for
    `is_induced_cycle`: adjacency lists from every pair, an edge count, and
    a walk from the minimum that steps first to the neighbour listed first."""
    vs = list(dict.fromkeys(vertices))
    n = len(vs)
    if n < 3:
        return None
    degree = {v: [] for v in vs}
    edges = 0
    for a, b in combinations(vs, 2):
        if adjacent(a, b):
            degree[a].append(b)
            degree[b].append(a)
            edges += 1
    if edges != n or any(len(nb) != 2 for nb in degree.values()):
        return None
    start = min(vs)
    order = [start]
    prev, cur = None, start
    while True:
        a, b = degree[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order) if len(order) == n else None


def rado_obstruction_checks(triples):
    """The pair lemma's reference scan: for each triple, every i-subset
    of c's whole lower neighbourhood, for 2 < i < n, through
    `rado_induced_cycle`; a violation per (n, i) that has one, with the
    first such cycle as its witness. The neighbourhood is scanned vertex
    by vertex through `adjacent` below c's bit length: each such v lies
    below c, so it sees c through bit v of c."""
    violations = []
    for t in triples:
        hood = [v for v in range(t.c.bit_length()) if adjacent(v, t.c)]
        for i in range(3, t.n):
            bad = (rado_induced_cycle(sub) for sub in combinations(hood, i))
            witness = next((cycle for cycle in bad if cycle is not None), None)
            if witness is not None:
                violations.append({"n": t.n, "i": i, "witness": witness})
    return violations


def rado_triples(max_n):
    """(n, b, c, sorted cycle) for n = 4..max_n by a level-by-level scan of
    `rado_level_masks`: b is the first prefix after the previous c holding
    an induced n-cycle, c the least mask above b among the levels up to b,
    and the cycle c's bits."""
    out = []
    c_prev = 0
    for n in range(4, max_n + 1):
        first = n - 1
        while not rado_level_masks(n, first):
            first += 1
        b = max(c_prev + 1, first)
        c = next(
            m
            for v in range(max(n - 1, (b + 1).bit_length() - 1), b + 1)
            for m in rado_level_masks(n, v)
            if m > b
        )
        out.append((n, b, c, [i for i in range(c.bit_length()) if (c >> i) & 1]))
        c_prev = c
    return out


def random_qs(rng: random.Random, dim_u: int, dim_v: int) -> QuadraticStructure:
    q = tuple(rng.randrange(1 << dim_v) for _ in range(dim_u))
    gamma = [[0] * dim_u for _ in range(dim_u)]
    for i in range(dim_u):
        for j in range(i):
            gamma[i][j] = gamma[j][i] = rng.randrange(1 << dim_v)
    return QuadraticStructure(dim_u, dim_v, q, tuple(tuple(r) for r in gamma))


def random_nondegenerate_qs(rng, dim_u, dim_v, tries=100000) -> QuadraticStructure:
    for _ in range(tries):
        qs = random_qs(rng, dim_u, dim_v)
        if is_nondegenerate(qs):
            return qs
    raise AssertionError(f"no nondegenerate structure found ({dim_u},{dim_v})")


def per_pair_extension_table(qs):
    """The multiplication table of the central extension of `group_from_qs`,
    one product at a time: with x = (u1 << dim_v) | v1 and y likewise,
    x·y = ((u1 ^ u2) << dim_v) | (v1 ^ v2 ^ beta(u1, u2)), beta evaluated
    for each pair by `eval_cocycle` on `cocycle_basis`."""
    beta = cocycle_basis(qs)
    dv = qs.dim_v
    pairs = [divmod(x, 1 << dv) for x in range(1 << (qs.dim_u + dv))]
    return [
        [((u1 ^ u2) << dv) | (v1 ^ v2 ^ eval_cocycle(beta, u1, u2)) for u2, v2 in pairs]
        for u1, v1 in pairs
    ]


def random_qs_extension(rng, qs0, extra_u, extra_v, tries=20000):
    """A nondegenerate structure whose structure on the leading coordinates
    is qs0.

    Starts at dim_v >= dim_u / 2, since by Chevalley–Warning dim_v quadratic
    forms in more than 2·dim_v variables have a common nontrivial zero, and
    escalates extra_v if the requested V is still too tight to support
    nondegeneracy.
    """
    dim_u = qs0.dim_u + extra_u
    extra_v = max(extra_v, (dim_u + 1) // 2 - qs0.dim_v)
    for attempt in range(tries):
        dim_v = qs0.dim_v + extra_v + attempt // (tries // 4 + 1)
        q = list(qs0.q_basis) + [
            rng.randrange(1 << dim_v) for _ in range(extra_u)
        ]
        gamma = [[0] * dim_u for _ in range(dim_u)]
        for i in range(dim_u):
            for j in range(i):
                if i < qs0.dim_u:
                    gamma[i][j] = gamma[j][i] = qs0.gamma_basis[i][j]
                else:
                    gamma[i][j] = gamma[j][i] = rng.randrange(1 << dim_v)
        qs = QuadraticStructure(dim_u, dim_v, tuple(q), tuple(tuple(r) for r in gamma))
        if is_nondegenerate(qs):
            return qs
    raise AssertionError("no nondegenerate extension found")


def apply_linear(images, v: int) -> int:
    """Apply the map sending basis vector i to images[i]."""
    out = 0
    for i in bits_of(v):
        out ^= images[i]
    return out


def is_morphism(src: QuadraticStructure, dst: QuadraticStructure, m: QSMorphism) -> bool:
    """g . Q_src = Q_dst . f, checked on every vector of src's U."""
    if len(m.f) != src.dim_u or len(m.g) != src.dim_v:
        return False
    return all(
        apply_linear(m.g, src.eval_q(u)) == dst.eval_q(apply_linear(m.f, u))
        for u in range(1 << src.dim_u)
    )


def is_injective_morphism(src, dst, m: QSMorphism) -> bool:
    """A morphism whose f and g send no nonzero vector to 0, checked on
    every vector."""
    return (
        is_morphism(src, dst, m)
        and all(apply_linear(m.f, u) for u in range(1, 1 << src.dim_u))
        and all(apply_linear(m.g, v) for v in range(1, 1 << src.dim_v))
    )


def coordinate_inclusion(qs0: QuadraticStructure) -> QSMorphism:
    """The inclusion of qs0's U and V as the leading coordinates."""
    return QSMorphism(
        tuple(1 << i for i in range(qs0.dim_u)),
        tuple(1 << i for i in range(qs0.dim_v)),
    )


def count_group_pair(words, mode):
    """The reference for `find_increasing_pair`: each earlier word is
    decided by its own call of `is_subword` or `is_star_embedded`, in
    groups by last-appearance order (strong mode) and letter counts,
    skipping groups whose counts the newcomer's do not dominate."""
    if mode not in ("higman", "star"):
        raise InputError(f"unknown mode {mode!r}")
    strong = mode == "star"
    below = is_star_embedded if strong else is_subword
    buckets = {}
    for j, w in enumerate(words):
        counts = Counter(w.letters)
        groups = buckets.setdefault(last_appearance_order(w) if strong else None, {})
        best = None
        for group_counts, group in groups.items():
            if any(counts[letter] < n for letter, n in group_counts):
                continue
            for i, earlier in group:
                if best is not None and i >= best.i:
                    break
                emb = below(earlier, w)
                if emb is not None:
                    best = PairResult(i, j, emb)
                    break
        if best is not None:
            return best
        groups.setdefault(frozenset(counts.items()), []).append((j, w))
    return None

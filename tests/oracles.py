"""Shared brute-force oracles and generators for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, product

from azenum.automorphisms import Perm
from azenum.groups import catalog_group, validate_and_analyze
from azenum.quadratic import QuadraticStructure, QSMorphism, is_nondegenerate


def brute_star(w1, w2):
    """Strong-order decision by exhaustive search over all injections,
    with an independent covering check. Returns a witness tuple or None."""
    a, b = w1.letters, w2.letters
    if len(a) > len(b):
        return None
    for combo in combinations(range(len(b)), len(a)):
        if any(a[i] != b[p] for i, p in enumerate(combo)):
            continue
        if brute_covers(combo, w2):
            return combo
    return None


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


def power(table, a, n):
    """a to the n-th power in a group table, by n multiplications."""
    out = table.identity_index
    for _ in range(n):
        out = table.mul[out][a]
    return out


def coset_members(ctx, x, width=None):
    """Every representative supported below `width` of the coset of x, an
    element or any representative of it as a coordinate -> value dict:
    x times each K-tuple whose coordinate product is one."""
    g = ctx.group
    e = g.identity_index
    base = dict(getattr(x, "rep", x))
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
            assert x.rep == rep
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
    prod = dict(x.rep)
    for c, v in y.rep:
        prod[c] = mul[prod.get(c, e)][v]
    return brute_minimum(ctx, prod, width)


def raw_perm(perm, x):
    """The tuple of x's minimal representative with the entry at j moved to
    perm[j], read from the permutation's (source, target) moves."""
    moves = dict(perm.moves)
    return {moves.get(c, c): v for c, v in x.rep}


def raw_ladder(ctx, coords, x):
    """The tuple of x's minimal representative (or of a representative given
    as a coordinate -> value dict) after the ladder on `coords`: window
    slot j takes the ordered product of every other slot's entry."""
    mul, e = ctx.group.mul, ctx.group.identity_index
    out = dict(getattr(x, "rep", x))
    vals = [out.get(c, e) for c in coords]
    for j, c in enumerate(coords):
        v = e
        for i, u in enumerate(vals):
            if i != j:
                v = mul[v][u]
        out[c] = v
    return out


def oracle_apply_word(ctx, word, x):
    """The word's action on elements, one generator at a time: the raw
    tuple action on the minimal representative, then `make` normalises it."""
    for gen in word.gens:
        if isinstance(gen, Perm):
            x = ctx.make(raw_perm(gen, x))
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
    for l, val in x.rep:
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
    a, b = w1.letters, w2.letters
    if len(a) > len(b):
        return None
    for combo in combinations(range(len(b)), len(a)):
        if all(a[i] == b[p] for i, p in enumerate(combo)):
            return combo
    return None


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


def rado_triples(max_n):
    """(n, b, c, sorted cycle) for n = 4..max_n by a level-by-level scan of
    `rado_level_masks`: b is the first prefix after the previous c holding
    an induced n-cycle, c the least mask above b (or the first level's
    least mask plus 2^(b+1) when no mask exceeds b)."""
    out = []
    c_prev = 0
    for n in range(4, max_n + 1):
        first = n - 1
        while not rado_level_masks(n, first):
            first += 1
        b = max(c_prev + 1, first)
        c = None
        for v in range(max(n - 1, (b + 1).bit_length() - 1), b + 1):
            above = [m for m in rado_level_masks(n, v) if m > b]
            if above:
                c = above[0]
                break
        if c is None:
            c = rado_level_masks(n, first)[0] + (1 << (b + 1))
        cycle = [i for i in range(min(b + 1, c.bit_length())) if (c >> i) & 1]
        out.append((n, b, c, cycle))
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


def random_qs_extension(rng, qs0, extra_u, extra_v, tries=20000):
    """A nondegenerate extension of qs0 along the coordinate inclusion.

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
            inc = QSMorphism(
                tuple(1 << i for i in range(qs0.dim_u)),
                tuple(1 << i for i in range(qs0.dim_v)),
            )
            return qs, inc
    raise AssertionError("no nondegenerate extension found")

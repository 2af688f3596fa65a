"""The four benchmark workloads.

A workload names the azenum modules its set-up imports, builds its
context in `setup` (timed as set-up), makes one seeded input per item in
`make_input` (untimed), runs one item in `run` (timed), checks the output
in `check` (untimed) and projects it to JSON in `digest`.

Every call into azenum goes through a module attribute looked up at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

from checks import (
    check_certificate,
    check_pair,
    check_triples,
    check_verify_report,
)
from generators import (
    antichain_stream,
    automorphism_word,
    coset_minima,
    item_rng,
    member_supports,
    planted_family,
)


class Workload:
    name = ""
    modules: tuple = ()
    # Every run completes at least this many items; the output digest
    # covers exactly these, and the traced run times exactly these.
    fixed_items = 1
    # Import azenum afresh before every item, so no result survives.
    cold = False

    def setup(self, mods):
        return None

    def make_input(self, mods, state, seed: int, item: int):
        return None

    def run(self, mods, state, inp):
        raise NotImplementedError

    def check(self, state, inp, out) -> None:
        raise NotImplementedError

    def digest(self, out):
        raise NotImplementedError


def _q8_context(mods, standard: bool):
    groups = mods["groups"]
    table, analysis, k = groups.catalog_group("Q8")
    maker = groups.make_standard_kgroup if standard else groups.make_kgroup
    return mods["central_product"].CPContext(maker(table, analysis, k))


class AzQ8(Workload):
    name = "az_q8"
    modules = ("azenum.az", "azenum.groups")
    fixed_items = 16
    DEPTH = 500
    ARITY = 4

    def setup(self, mods):
        return _q8_context(mods, standard=True)

    def make_input(self, mods, ctx, seed, item):
        rng = item_rng(self.name, seed, item)
        kg = ctx.kg
        e = kg.group.identity_index
        values = coset_minima(kg.group.mul, kg.k_subgroup, kg.element_order)
        base, partner = planted_family(rng, values, e, ctx.exponent, self.ARITY)
        members = [
            tuple(ctx.make(s) for s in member_supports(word, e))
            for word in (base, partner)
        ]
        family = mods["az"].TupleFamily(ctx, self.ARITY, members)
        return family, rng.randrange(10**6), base, partner

    def run(self, mods, ctx, inp):
        family, seed, _, _ = inp
        return mods["az"].run_az(family, depth=self.DEPTH, seed=seed)

    def check(self, ctx, inp, cert):
        _, seed, base, partner = inp
        check_certificate(cert, base, partner, seed, self.DEPTH, self.ARITY,
                          ctx.group.order)

    def digest(self, cert):
        return cert.to_json()


class AutVerifyQ8(Workload):
    name = "aut_verify_q8"
    modules = ("azenum.automorphisms", "azenum.groups")
    fixed_items = 2
    LEVEL = 7
    PAIRS = 100_000
    SIZE = 8**7 // 2**6  # |Q8|^7 / |K|^6 cosets below level 7

    def setup(self, mods):
        return _q8_context(mods, standard=False)

    def make_input(self, mods, ctx, seed, item):
        aut = mods["automorphisms"]
        gens = automorphism_word(item_rng(self.name, seed, item), item,
                                 ctx.exponent, self.LEVEL)
        word = aut.AutWord(tuple(
            aut.BetaStar(coords) if kind == "beta" else aut.Perm.from_cycles([coords])
            for kind, coords in gens
        ))
        return word, gens

    def run(self, mods, ctx, inp):
        return mods["automorphisms"].verify_automorphism(ctx, inp[0], self.LEVEL)

    def check(self, ctx, inp, report):
        check_verify_report(report, self.SIZE, self.PAIRS)

    def digest(self, report):
        return {
            "ok": report.ok, "level": report.level, "size": report.size,
            "pairs_checked": report.pairs_checked, "exhaustive": report.exhaustive,
            "failure": report.failure,
        }


class WqoAntichain(Workload):
    name = "wqo_antichain"
    modules = ("azenum.wqo",)
    fixed_items = 4

    def make_input(self, mods, state, seed, item):
        words, _ = antichain_stream(item_rng(self.name, seed, item))
        return [mods["wqo"].Word(w) for w in words], words

    def run(self, mods, state, inp):
        wqo = mods["wqo"]
        return (wqo.find_increasing_pair(inp[0], "star"),
                wqo.find_increasing_pair(inp[0], "higman"))

    def check(self, state, inp, out):
        words = inp[1]
        check_pair(out[0], words, len(words) - 1, covering=True)
        check_pair(out[1], words, len(words) - 1, covering=False)

    def digest(self, out):
        return [[r.i, r.j, list(r.embedding.image)] for r in out]


class RadoTriples(Workload):
    name = "rado_triples"
    modules = ("azenum.rado",)
    fixed_items = 8
    cold = True
    MAX_N = 8
    FIRST_BC = {4: (5, 39)}

    def run(self, mods, state, inp):
        rado = mods["rado"]
        triples = rado.build_triples(self.MAX_N)
        return triples, rado.check_obstruction(triples)

    def check(self, state, inp, out):
        check_triples(out[0], out[1], self.MAX_N, self.FIRST_BC)

    def digest(self, out):
        return {"triples": [t.to_json() for t in out[0]], "report": out[1].to_json()}


WORKLOADS = {wl.name: wl for wl in (AzQ8(), AutVerifyQ8(), WqoAntichain(), RadoTriples())}

"""Tests of the benchmark itself: generators, result checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
from checks import CheckFailed, check_pair
from generators import antichain_stream, automorphism_word, item_rng, planted_family
from spans import Tracer, installed_wrappers, metric_units
from workloads import WORKLOADS, RadoTriples

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


# the plain data each workload's input carries next to its azenum objects
PLAIN = {
    "az_q8": lambda inp: inp[1:],
    "aut_verify_q8": lambda inp: inp[1],
    "wqo_antichain": lambda inp: inp[1],
    "rado_triples": lambda inp: inp,
}


def _plain(wl, mods, state, seed, item):
    return PLAIN[wl.name](wl.make_input(mods, state, seed, item))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    mods, state = run.setup(wl)
    first = [_plain(wl, mods, state, 7, k) for k in range(3)]
    assert first == [_plain(wl, mods, state, 7, k) for k in range(3)]
    if name != "rado_triples":  # deterministic workload: the seed is unused
        assert first != [_plain(wl, mods, state, 8, k) for k in range(3)]


def test_generated_inputs_have_the_stated_shape():
    rng = item_rng("t", 1, 0)
    base, partner = planted_family(rng, [0, 2, 4, 6], 0, 4)
    assert len(partner) <= 12 and partner[-len(base):] == base
    assert (len(partner) - len(base)) % 4 == 0 and len(partner) > len(base)
    for k in range(8):
        gens = automorphism_word(rng, k, 4)
        assert len(gens) == 1 + k % 4
        assert all(len(set(c)) == len(c) == (6 if kind == "beta" else 2)
                   and max(c) < 7 for kind, c in gens)
    words, source = antichain_stream(rng)
    assert len(set(words[:600])) == 600 and {len(w) for w in words[:600]} == {12}
    assert words[600][-12:] == words[source]


def test_az_check_rejects_a_certificate_with_a_failure():
    wl = WORKLOADS["az_q8"]
    mods, ctx = run.setup(wl)
    inp = wl.make_input(mods, ctx, 1, 0)
    cert = wl.run(mods, ctx, inp)
    wl.check(ctx, inp, cert)
    with pytest.raises(CheckFailed):
        wl.check(ctx, inp, dataclasses.replace(cert, ok=False, failures=["index_law"]))
    reports = dict(cert.reports, index_law={"ok": 0, "of": 1})
    with pytest.raises(CheckFailed):
        wl.check(ctx, inp, dataclasses.replace(cert, reports=reports))
    with pytest.raises(CheckFailed):
        wl.check(ctx, inp, dataclasses.replace(cert, f=tuple(p + 1 for p in cert.f)))


def test_aut_check_rejects_a_short_or_failed_report():
    wl = WORKLOADS["aut_verify_q8"]
    mods, _ = run.setup(wl)
    report = mods["automorphisms"].VerifyReport(True, 7, wl.SIZE, wl.PAIRS, False)
    wl.check(None, None, report)
    for bad in (dict(pairs_checked=wl.PAIRS - 1), dict(size=wl.SIZE // 2),
                dict(ok=False, failure="homomorphism law fails")):
        with pytest.raises(CheckFailed):
            wl.check(None, None, dataclasses.replace(report, **bad))


def test_wqo_check_rejects_a_shifted_witness_position():
    mods, _ = run.setup(WORKLOADS["wqo_antichain"])
    wqo = mods["wqo"]
    words = [("a", "b"), ("b", "b"), ("a", "b", "a", "b")]
    result = wqo.find_increasing_pair([wqo.Word(w) for w in words], "star")
    check_pair(result, words, 2, covering=True)
    assert result.embedding.image == (2, 3)
    shifted = [(1, 3), (2, 4), (0, 3)]  # wrong letter; off the end; uncovered
    for image in shifted:
        bad = wqo.PairResult(result.i, result.j, wqo.Embedding(image))
        with pytest.raises(CheckFailed):
            check_pair(bad, words, 2, covering=True)
    with pytest.raises(CheckFailed):
        check_pair(wqo.PairResult(0, 1, result.embedding), words, 2, covering=True)


def test_rado_check_rejects_a_wrong_c():
    wl = WORKLOADS["rado_triples"]
    mods, _ = run.setup(wl)
    triples, report = wl.run(mods, None, None)
    wl.check(None, None, (triples, report))
    for t in (dataclasses.replace(triples[0], c=40),
              dataclasses.replace(triples[2], c=triples[2].c + 2)):
        bad = [t if u.n == t.n else u for u in triples]
        with pytest.raises(CheckFailed):
            wl.check(None, None, (bad, report))


def _bindings(mods):
    out = {}
    for layer, module in mods.items():
        out.update({(layer, k): v for k, v in vars(module).items()})
        if "CPContext" in vars(module):
            cls = module.CPContext
            out.update({(layer, "CPContext", k): v for k, v in vars(cls).items()})
    return out


def test_traced_run_restores_every_wrapped_name():
    mods = run.fresh_import(["azenum.az", "azenum.rado", "azenum.groups"])
    before = _bindings(mods)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(mods, 0):
            wrapped = installed_wrappers(mods)
            raise RuntimeError("leave the block early")
    # every target of every layer, including the names az imported
    assert {"az.find_increasing_pair", "az.apply_word", "wqo.is_subword",
            "central_product.CPContext.make", "rado.is_induced_cycle",
            "groups.make_kgroup"} <= set(wrapped)
    assert installed_wrappers(mods) == []
    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_untraced_run_installs_no_wrapper_and_traced_run_does():
    seen = []

    class Probe(RadoTriples):
        fixed_items = 1

        def run(self, mods, state, inp):
            seen.append(installed_wrappers(mods))
            return super().run(mods, state, inp)

    items, metrics, units = run.measure(Probe(), seed=1, seconds=0)
    assert seen == [[]] and items.failed == 0
    assert set(metrics) == set(units) == set(run.END_TO_END)
    seen.clear()
    items, metrics, units, attempted = run.measure_traced(Probe(), seed=1)
    assert seen[0] == [] and "rado.build_triples" in seen[1]
    assert items.failed == 0 and attempted == 2
    assert metrics["rado.build_triples.calls"] == 1
    assert metrics["rado.first_cycle_bound.calls"] == 5


def test_tracer_counts_each_escaping_error_once_per_layer():
    wl = WORKLOADS["az_q8"]
    mods = run.fresh_import(["azenum.az", "azenum.rado", "azenum.groups"])
    ctx = wl.setup(mods)
    family = wl.make_input(mods, ctx, 1, 0)[0]
    lonely = dataclasses.replace(family, members=family.members[:1])
    tracer = Tracer()
    with tracer.installed(mods, 0):
        # raised in normalize_family, escapes it and then run_az
        with pytest.raises(Exception, match="at least 2 members"):
            mods["az"].run_az(lonely)
        with pytest.raises(Exception, match="max_n"):
            mods["rado"].build_triples(3)
    metrics = tracer.metrics()
    assert metrics["az.errors"] == 1 and metrics["rado.errors"] == 1
    assert metrics["central_product.errors"] == 0
    assert metrics["az.run_az.calls"] == metrics["az.normalize_family.calls"] == 1


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    assert run.tail([float(i) for i in range(50)]) == (39.0, 80.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_matches_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    per_layer = dict(metric_units(), trace_overhead_ratio="ratio")
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]

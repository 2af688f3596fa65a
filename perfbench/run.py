"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload az_q8 --seed 1 --seconds 25 --trace 0

Run from the root of the repository. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it state the sample sizes, the failure ratio and the output digest.

--trace 0 times items for --seconds seconds (and at least the workload's
fixed items) with nothing wrapped, and reports the end-to-end metrics.
--trace 1 runs the fixed items twice, untraced and then traced, and
reports the per-layer metrics; the span log goes to perfbench/out/.

Load model: one process, one thread, closed loop; the next item starts
after the previous one is checked.

Times are reported at reference machine speed. This host's speed swings
by up to 1.7x over periods from a fraction of a second to minutes (other
tenants on shared cores), which no run length averages out. So while a
timed section runs, an interval timer interrupts it every
SAMPLE_PERIOD_S to time a fixed pure-Python micro-loop; the section's
wall time, less the time spent in those interruptions, is scaled by
SAMPLE_REF_S over the mean micro-loop time. Raw medians are printed too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Iterator

from checks import CheckFailed
from spans import Tracer, metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile leaves this many items above it
TAIL_MIN_ITEMS = 40  # below this many items the tail is the maximum
SAMPLE_PERIOD_S = 0.02
SAMPLE_ROUNDS = 400
SAMPLE_REF_S = 0.0005  # the micro-loop's time on an uncontended 2-core sandbox


def _micro_loop(rounds: int) -> int:
    rows = [tuple((i * j) % 8 for j in range(8)) for i in range(8)]
    seen = {}
    acc = 0
    for i in range(rounds):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        row = rows[seen.get(key, i) & 7]
        seen[key] = sum(row[:4]) + len(seen)
        acc += max(row) if i & 1 else min(row)
    return acc


class Clock:
    """Times sections of work at reference machine speed (see the module
    docstring). `on_sample` receives the length of every interruption."""

    def __init__(self, on_sample=None):
        self.raw = []
        self.scaled = []
        self._on_sample = on_sample
        self._samples = []
        self._spent = 0.0

    def _sample(self) -> float:
        start = perf_counter()
        _micro_loop(SAMPLE_ROUNDS)
        seconds = perf_counter() - start
        self._samples.append(seconds)
        return seconds

    def _interrupt(self, signum, frame) -> None:
        seconds = self._sample()
        self._spent += seconds
        if self._on_sample is not None:
            self._on_sample(seconds)

    @contextmanager
    def section(self) -> Iterator[None]:
        self._samples = []
        self._spent = 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - start - self._spent
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            self.raw.append(seconds)
            self.scaled.append(seconds * SAMPLE_REF_S / statistics.mean(self._samples))


def use_checkout_sources() -> None:
    """Import azenum from this checkout's src/, never from site-packages."""
    if not (SRC / "azenum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no azenum sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_import(names):
    """Drop every loaded azenum module, import `names` again and return
    the loaded azenum modules by short name ("az", "central_product", ...)."""
    for key in [k for k in sys.modules if k == "azenum" or k.startswith("azenum.")]:
        del sys.modules[key]
    for name in names:
        importlib.import_module(name)
    mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
            if k.startswith("azenum.")}
    for mod in mods.values():
        if SRC not in Path(mod.__file__).resolve().parents:
            raise SystemExit(f"perfbench: {mod.__name__} loaded from {mod.__file__}")
    return mods


def setup(wl):
    mods = fresh_import(wl.modules)
    return mods, wl.setup(mods)


class Items:
    """Times items one after another and checks each result."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.clock = Clock(tracer.exclude if tracer else None)
        self.failed = 0
        self.records = []

    def run(self, mods, state, inp, item: int) -> None:
        gc.collect()
        with self.tracer.installed(mods, item) if self.tracer else nullcontext():
            with self.clock.section():
                try:
                    out = self.wl.run(mods, state, inp)
                except Exception as exc:  # a failed item is counted, not fatal
                    out = exc
        try:
            if isinstance(out, Exception):
                raise CheckFailed(f"raised {type(out).__name__}: {out}")
            self.wl.check(state, inp, out)
            if item < self.wl.fixed_items:
                self.records.append(self.wl.digest(out))
        except Exception as exc:  # includes CheckFailed and malformed results
            self.failed += 1
            print(f"{self.wl.name} item {item} failed: {exc}", file=sys.stderr)

    def digest(self) -> str:
        text = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def tail(seconds):
    """(value, percentile): the highest percentile with TAIL_BEYOND items
    above it, or the maximum below TAIL_MIN_ITEMS items."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n < TAIL_MIN_ITEMS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl, seed: int, seconds: float):
    """The untraced run: returns (Items, metrics)."""
    setups = Clock()
    for _ in range(SETUP_REPEATS):
        with setups.section():
            mods, state = setup(wl)
    items = Items(wl)
    start = perf_counter()
    item = 0
    while item < wl.fixed_items or perf_counter() - start < seconds:
        if wl.cold and item:
            mods, state = setup(wl)
        items.run(mods, state, wl.make_input(mods, state, seed, item), item)
        item += 1
    times = items.clock.scaled
    tail_s, pct = tail(times)
    n = len(times)
    print(f"{wl.name} seed={seed}: {n} items; item_tail_ms is p{pct:.1f} of "
          f"{n} items; setup_s is the median of {SETUP_REPEATS} set-ups")
    print(f"raw (unscaled): item_p50_ms {1000 * statistics.median(items.clock.raw):.6g} "
          f"setup_s {statistics.median(setups.raw):.6g}")
    metrics = {
        "items_per_s": n / sum(times),
        "item_p50_ms": 1000 * statistics.median(times),
        "item_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(setups.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return items, metrics, END_TO_END


def measure_traced(wl, seed: int):
    """The traced run over the fixed items: returns (Items, metrics)."""
    tracer = Tracer()
    mods = fresh_import(wl.modules)
    with tracer.installed(mods, -1):
        state = wl.setup(mods)
    inputs = [wl.make_input(mods, state, seed, k) for k in range(wl.fixed_items)]
    passes = []
    for t in (None, tracer):
        items = Items(wl, t)
        for k, inp in enumerate(inputs):
            if wl.cold and (k or t):
                mods, state = setup(wl)
            items.run(mods, state, inp, k)
        passes.append(items)
    untraced, traced = passes
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{wl.name}-{seed}.json")
    print(f"{wl.name} seed={seed}: {wl.fixed_items} items untraced, then traced; "
          f"spans in {OUT.relative_to(ROOT)}")
    metrics = tracer.metrics()
    metrics["trace_overhead_ratio"] = (
        sum(untraced.clock.scaled) / sum(traced.clock.scaled))
    units = dict(metric_units(), trace_overhead_ratio="ratio")
    traced.failed += untraced.failed
    return traced, metrics, units, 2 * wl.fixed_items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    wl = WORKLOADS[args.workload]
    if args.trace:
        items, metrics, units, attempted = measure_traced(wl, args.seed)
    else:
        items, metrics, units = measure(wl, args.seed, args.seconds)
        attempted = len(items.clock.raw)
    print(f"failed_ratio {items.failed / attempted} ({items.failed} of {attempted})")
    print(f"digest {wl.name} seed={args.seed} items 0-{wl.fixed_items - 1}: {items.digest()}")
    print(json.dumps({
        "correct": items.failed == 0,
        "attempted": attempted,
        "failed": items.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

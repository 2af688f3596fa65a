"""Summarise one set of benchmark runs, or put two sets side by side.

    python3 perfbench/compare.py SET.jsonl            # one set: spreads
    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl
    python3 perfbench/compare.py SET.jsonl --trace    # per-layer counts

A set is the JSON-lines file `sweep.py` writes. Spread is the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median. For two sets, each end-to-end metric of each
workload is marked:

  unresolved  a set's spread exceeds the metric's bound, and not every
              AFTER run beats every BEFORE run;
  worse       AFTER's median is worse than BEFORE's by more than the bound;
  better      AFTER's median is better by more than BEFORE's spread (or
              every AFTER run beats every BEFORE run);
  same        otherwise.

A claimed gain still needs the paired protocol of the choosing-metrics
rules (ten alternating pairs); "better" here only flags a candidate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that must repeat exactly for a fixed seed
WORK_COUNTS = ("az.checks", "automorphisms.verify_automorphism.pairs_checked",
               "wqo.words_scanned")


def load(path, trace: bool):
    runs = defaultdict(list)  # workload -> records
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if bool(rec["trace"]) == trace:
            runs[rec["workload"]].append(rec)
    return runs


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records]


def spread(vals):
    """(median, spread share); the spread is 0 for fewer than two values."""
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med


def verdict(before, after, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    beats_all = min(sign * v for v in after) > max(sign * v for v in before)
    (mb, sb), (ma, sa) = spread(before), spread(after)
    if max(sb, sa) > bound:
        return "better" if beats_all else "unresolved"
    gain = sign * (ma - mb) / mb
    if gain < -bound:
        return "worse"
    if gain > sb or beats_all:
        return "better"
    return "same"


def summarise(runs, metrics) -> None:
    print(f"{'workload':15} {'metric':13} {'n':>3} {'median':>12} {'spread':>7} "
          f"{'bound':>6}  steady (spread < bound/3)")
    for workload, recs in runs.items():
        for m in metrics:
            med, sp = spread(values(recs, m["name"]))
            steady = "yes" if sp < m["bound"] / 3 else "NO"
            if m["name"] == "setup_s":
                steady += " (exempt)"
            print(f"{workload:15} {m['name']:13} {len(recs):>3} {med:>12.6g} "
                  f"{sp:>7.3f} {m['bound']:>6}  {steady}")
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"{workload:15} failed_ratio {failed / attempted:.6g} "
              f"({failed} of {attempted})")
        check_digests(workload, recs)


def check_digests(workload, recs) -> None:
    by_seed = defaultdict(set)
    for r in recs:
        by_seed[r["seed"]].add(r["digest"])
    bad = sorted(s for s, d in by_seed.items() if len(d) > 1)
    print(f"{workload:15} digests repeat per seed: {'yes' if not bad else f'NO, seeds {bad}'}")


def side_by_side(before, after, metrics) -> None:
    print(f"{'workload':15} {'metric':13} {'before':>12} {'after':>12} "
          f"{'after/before':>12} {'spreads':>13}  verdict")
    for workload in before:
        if workload not in after:
            continue
        for m in metrics:
            a, b = values(before[workload], m["name"]), values(after[workload], m["name"])
            (ma, sa), (mb, sb) = spread(a), spread(b)
            print(f"{workload:15} {m['name']:13} {ma:>12.6g} {mb:>12.6g} "
                  f"{mb / ma:>12.4f} {sa:>6.3f}/{sb:<6.3f}  "
                  f"{verdict(a, b, m['better'], m['bound'])}")


def traced(runs) -> None:
    """Per-layer medians, and whether every count repeats per seed."""
    for workload, recs in runs.items():
        names = recs[0]["result"]["metrics"]
        print(f"== {workload} ({len(recs)} traced runs)")
        for name, entry in names.items():
            vals = values(recs, name)
            if entry["unit"] == "count":
                by_seed = defaultdict(set)
                for r, v in zip(recs, vals):
                    by_seed[r["seed"]].add(v)
                repeat = all(len(v) == 1 for v in by_seed.values())
                if any(vals) or name in WORK_COUNTS:
                    print(f"  {name:55} {statistics.median(vals):>14.6g}  "
                          f"repeats per seed: {'yes' if repeat else 'NO'}")
            elif any(vals):
                print(f"  {name:55} {statistics.median(vals):>14.6g} {entry['unit']}")
        check_digests(workload, recs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+", help="one or two JSON-lines files")
    parser.add_argument("--trace", action="store_true", help="show traced runs")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sets = [load(p, args.trace) for p in args.sets]
    if args.trace:
        for runs in sets:
            traced(runs)
    elif len(sets) == 1:
        summarise(sets[0], metrics)
    else:
        side_by_side(sets[0], sets[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

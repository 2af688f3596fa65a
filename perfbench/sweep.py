"""Run a set of benchmark runs, one after another, and save their results.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/set-a.jsonl
    python3 perfbench/sweep.py --seeds 1-5 --workloads aut_verify_q8 --trace 1

Each run is `perfbench/run.py` in its own process with the run length
from BENCHMARK.json. Seeds are the outer loop, so slow phases of a shared
machine spread over all workloads. Every run's result is appended to
--out as one JSON line; the summary at the end is `compare.py` on it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    digest = next((ln.split(": ")[-1] for ln in lines if ln.startswith("digest ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "digest": digest, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out" / "sweep.jsonl"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        for seed in seed_range(args.seeds):
            for workload in args.workloads.split(","):
                record = run_once(workload, seed, bench["run_seconds"], args.trace)
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                res = record["result"]
                print(f"{workload} seed={seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
    compare.main([str(out)] + (["--trace"] if args.trace else []))
    return 0


if __name__ == "__main__":
    sys.exit(main())

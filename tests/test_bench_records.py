"""The benchmark records at the root of the repository (`BENCH_*.json`):
each names the commit it was measured against, the interpreter, the core
count and its claim, and every pair of runs of the claimed workload gave
equal output digests on both sides."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_its_baseline_and_claim(path):
    record = json.loads(path.read_text())
    assert {"parent_commit", "interpreter", "nproc", "claim"} <= record.keys()
    pairs = record[record["claim"]["workload"]]["pairs"]
    assert pairs
    assert all(pair["digests_equal"] is True for pair in pairs)

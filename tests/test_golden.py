"""Golden corpus: CLI output that must stay byte-identical.

Each case is one `azenum` command line. Its exit code and stdout are
stored gzip-compressed under `tests/golden/`; the `az run` cases read
seeded tuple families, the `wqo pair` cases seeded word streams, the
`qs` cases quadratic-structure documents and `rado check --file` a
triples document from `tests/golden/inputs/`. The remaining cases pin
the other subcommands, in text mode and with `--json` where the two
differ.
The corpus pins the element order, the minimal representatives, every
certificate, the pair finder's witnesses and the free amalgam's basis
layout independently of the code that computes them.

Regenerate only when an output change is intended, and say which outputs
changed and why. With case names, only those outputs are rewritten and
the inputs stay as they are; with none, the inputs and every output are
rewritten:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import random
import sys
from pathlib import Path

import pytest

from azenum.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# (group, seed, arity, max_support, depth)
AZ_FAMILIES = [
    ("C4", 1, 1, 8, 100),
    ("C4", 2, 2, 8, 100),
    ("C4", 3, 3, 10, 100),
    ("Q8", 1, 1, 8, 100),
    ("Q8", 2, 2, 10, 100),
    ("Q8", 3, 3, 10, 100),
    ("Q8", 4, 4, 12, 100),
]

# every catalog group has a K; C2 has K = G, so its Γ has two elements
ENUMERATE_COUNTS = {"C2": 2, "C4": 5000, "C2xC2": 5000, "Q8": 5000, "D4": 5000}

# (name, group, word, level): the first six check every pair (size^2 at
# most the pair budget), the last two sample 100 000 seeded pairs
AUT_VERIFY = [
    ("c4_beta6", "C4", [{"beta": [0, 1, 2, 3, 4, 5]}], 6),
    ("c4_perm", "C4", [{"perm": [[0, 3], [1, 2]]}], 5),
    ("c4_alpha", "C4", [{"beta": [4, 0, 1, 2, 3, 5]}, {"perm": [[4, 5]]}], 6),
    ("c4_short_beta", "C4", [{"beta": [0, 1, 2]}], 4),
    ("q8_perm", "Q8", [{"perm": [[0, 1, 2]]}], 3),
    ("d4_perm", "D4", [{"perm": [[0, 2]]}], 3),
    ("q8_beta_swap", "Q8", [{"beta": [0, 1, 2, 3, 4, 5]}, {"perm": [[0, 4]]}], 6),
    ("d4_cycle", "D4", [{"perm": [[0, 1, 3]]}], 4),
]


# seeded word streams for `wqo pair`, each run in both modes
WQO_STREAMS = ("antichain", "random3")

# `qs from-group` cases; D4 has a non-central involution and exits 2
QS_GROUPS = ("C2", "C4", "C2xC2", "Q8", "D4")

# `wqo subword` and `wqo star` cases: (name, w1, w2); the hit embeds in
# both orders, the miss in neither
WQO_QUERIES = [("hit", "a,b", "a,a,b"), ("miss", "b,a", "a,a,b")]

# case name -> text-mode argv; each is also pinned with --json
TEXT_CASES = {
    "group_rank_Q8": ["group", "rank", "--group", "Q8"],
    "cp_compare_Q8": ["cp", "compare", "--group", "Q8", "--x", "0:i,2:j", "--y", "1:k"],
    "cp_mul_Q8": ["cp", "mul", "--group", "Q8", "--x", "0:i,2:j", "--y", "1:k,2:j"],
    "aut_apply_C4": [
        "aut", "apply", "--group", "C4",
        "--word", json.dumps([{"beta": [0, 1, 2, 3, 4, 5]}, {"perm": [[1, 6]]}]),
        "--element", "0:g,3:g3",
    ],
}


def family_path(group: str, seed: int) -> Path:
    return INPUTS / f"az_{group}_{seed}.txt"


def stream_path(name: str) -> Path:
    return INPUTS / f"wqo_{name}.txt"


def qs_path(name: str) -> Path:
    return INPUTS / f"qs_{name}.json"


TRIPLES_PATH = INPUTS / "rado_triples_6.json"


def cases():
    """Case name -> argv."""
    out = {}
    for group, seed, _, _, depth in AZ_FAMILIES:
        out[f"az_run_{group}_{seed}"] = [
            "--json", "--seed", str(seed), "az", "run", "--group", group,
            "--tuples", str(family_path(group, seed)), "--depth", str(depth),
        ]
    for group, count in ENUMERATE_COUNTS.items():
        out[f"cp_enumerate_{group}"] = [
            "cp", "enumerate", "--group", group, "--count", str(count),
        ]
    for name, group, word, level in AUT_VERIFY:
        out[f"aut_verify_{name}"] = [
            "--json", "aut", "verify", "--group", group,
            "--word", json.dumps(word), "--level", str(level),
        ]
    out["rado_triples_8"] = ["--json", "rado", "triples", "--max-n", "8"]
    out["rado_triples_11"] = ["--json", "rado", "triples", "--max-n", "11"]
    out["rado_triples_12"] = ["--json", "rado", "triples", "--max-n", "12"]
    for name in WQO_STREAMS:
        for mode in ("star", "higman"):
            out[f"wqo_pair_{name}_{mode}"] = [
                "--json", "wqo", "pair", "--file", str(stream_path(name)),
                "--mode", mode,
            ]
    for group in QS_GROUPS:
        out[f"qs_from_group_{group}"] = ["--json", "qs", "from-group", "--group", group]
    out["qs_to_group_Q8"] = ["--json", "qs", "to-group", "--file", str(qs_path("Q8"))]
    out["qs_amalgam_q8_q8"] = [
        "--json", "qs", "amalgam",
        "--left", str(qs_path("Q8")), "--right", str(qs_path("Q8")),
    ]
    out["qs_amalgam_seeded"] = [
        "--json", "--verify", "qs", "amalgam", "--common", str(qs_path("common")),
        "--left", str(qs_path("left")), "--right", str(qs_path("right")),
    ]
    out["group_check_Q8"] = ["group", "check", "--group", "Q8"]
    out["group_check_D4"] = ["group", "check", "--group", "D4"]
    out["group_check_C4_k"] = ["group", "check", "--group", "C4", "--k", "0,g2"]
    # coset-major: the coset {1, g2} = K comes first, so {0:g} > {0:g2}
    out["cp_compare_C4"] = ["cp", "compare", "--group", "C4", "--x", "0:g", "--y", "0:g2"]
    for name, argv in TEXT_CASES.items():
        out[name] = argv
        out[f"{name}_json"] = ["--json", *argv]
    out["aut_alpha_C4_verify"] = [
        "--verify", "aut", "alpha", "--group", "C4",
        "--coords", "0,1,2,3,5,7,8,9", "--i0", "4", "--j0", "6",
    ]
    for verb in ("subword", "star"):
        for name, w1, w2 in WQO_QUERIES:
            argv = ["wqo", verb, "--w1", w1, "--w2", w2]
            out[f"wqo_{verb}_{name}"] = argv
            out[f"wqo_{verb}_{name}_json"] = ["--json", *argv]
    for mode in ("star", "higman"):
        out[f"wqo_pair_random3_{mode}_text"] = [
            "wqo", "pair", "--file", str(stream_path("random3")), "--mode", mode,
        ]
    out["rado_check_6"] = ["rado", "check", "--max-n", "6"]
    out["rado_check_file"] = ["rado", "check", "--file", str(TRIPLES_PATH)]
    return out


def run_case(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return f"exit {code}\n{buf.getvalue()}".encode()


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.out.gz"


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden(name):
    expected = gzip.decompress(golden_path(name).read_bytes())
    got = run_case(cases()[name])
    if got != expected:
        got_lines = got.decode().splitlines()
        exp_lines = expected.decode().splitlines()
        first = next(
            (i for i, (a, b) in enumerate(zip(got_lines, exp_lines)) if a != b),
            min(len(got_lines), len(exp_lines)),
        )
        pytest.fail(
            f"{name} differs from the golden output at line {first + 1}:\n"
            f"  expected: {exp_lines[first:first + 1]}\n"
            f"  got:      {got_lines[first:first + 1]}"
        )


@pytest.mark.parametrize("name", sorted(name for name in cases() if name.startswith("az_run_")))
def test_az_run_is_the_same_when_run_twice_in_one_process(name):
    """Two `az run`s in one process give the golden bytes: no state that a
    run leaves behind reaches a certificate."""
    expected = gzip.decompress(golden_path(name).read_bytes())
    assert run_case(cases()[name]) == run_case(cases()[name]) == expected


def test_every_golden_file_is_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.out.gz")) == sorted(
        golden_path(name).name for name in cases()
    )


def test_cp_enumerate_emit_is_stdout(tmp_path):
    """`cp enumerate --emit` writes the very bytes it prints."""
    emit = tmp_path / "enumerate.jsonl"
    got = run_case([*cases()["cp_enumerate_C4"], "--emit", str(emit)])
    assert got == gzip.decompress(golden_path("cp_enumerate_C4").read_bytes())
    assert got == b"exit 0\n" + emit.read_bytes()


def write_families() -> None:
    from azenum.central_product import CPContext, format_support
    from azenum.groups import catalog_group, make_kgroup
    from oracles import random_az_family

    INPUTS.mkdir(parents=True, exist_ok=True)
    for group, seed, arity, max_support, _ in AZ_FAMILIES:
        table, analysis, k = catalog_group(group)
        ctx = CPContext(make_kgroup(table, analysis, k))
        fam = random_az_family(
            ctx, random.Random(seed), arity, max_support, extra_members=2
        )
        lines = [
            ";".join(format_support(ctx, x) for x in member)
            for member in fam.members
        ]
        family_path(group, seed).write_text("\n".join(lines) + "\n")


def stream_words(name: str):
    """The `wqo pair` streams. `antichain`: 600 distinct binary words of
    length 12 (an antichain in both orders), then one of them with three
    of its own letters pumped in front, so every increasing pair ends at
    the last word. `random3`: random words of length 6-12 over three
    letters."""
    if name == "antichain":
        rng = random.Random(7)
        words = [
            tuple("ab"[(code >> t) & 1] for t in range(12))
            for code in rng.sample(range(2**12), 600)
        ]
        source = rng.choice(words)
        pump = tuple(rng.choice(source) for _ in range(3))
        return words + [pump + source]
    rng = random.Random(10)
    return [
        tuple(rng.choice("abc") for _ in range(rng.randint(6, 12)))
        for _ in range(100)
    ]


def write_streams() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name in WQO_STREAMS:
        lines = [",".join(word) for word in stream_words(name)]
        stream_path(name).write_text("\n".join(lines) + "\n")


def write_triples() -> None:
    """The triples of `build_triples(6)`, as `rado triples` lists them."""
    from azenum.rado import build_triples

    INPUTS.mkdir(parents=True, exist_ok=True)
    doc = {"triples": [t.to_json() for t in build_triples(6)]}
    TRIPLES_PATH.write_text(json.dumps(doc) + "\n")


def write_qs_inputs() -> None:
    """Q8's structure, and a seeded diagram qs1 <- qs0 -> qs2 along the
    coordinate inclusions whose amalgam (dimU 5, dimV 6) has U0, both U
    complements and both V complements non-empty."""
    from azenum.groups import catalog_group
    from azenum.quadratic import qs_from_group, qs_to_json
    from oracles import random_nondegenerate_qs, random_qs_extension

    rng = random.Random(1)
    qs0 = random_nondegenerate_qs(rng, 2, 2)
    qs1 = random_qs_extension(rng, qs0, 2, 1)
    qs2 = random_qs_extension(rng, qs0, 1, 1)
    table, analysis, _ = catalog_group("Q8")
    docs = {
        "Q8": qs_from_group(table, analysis),
        "common": qs0,
        "left": qs1,
        "right": qs2,
    }
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, qs in docs.items():
        qs_path(name).write_text(json.dumps(qs_to_json(qs)) + "\n")


def regenerate(names) -> None:
    all_cases = cases()
    unknown = sorted(set(names) - set(all_cases))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    if not names:
        write_families()
        write_streams()
        write_qs_inputs()
        write_triples()
        names = all_cases
    for name in names:
        golden_path(name).write_bytes(gzip.compress(run_case(all_cases[name]), mtime=0))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    regenerate(sys.argv[1:])

import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azenum import cli, rado
from azenum.central_product import MAX_COSETS, MAX_LITERAL_COORD
from azenum.cli import run_command
from azenum.groups import catalog_group, catalog_names, group_to_json
from azenum.quadratic import MAX_DIM_V, group_from_qs, qs_to_json
from azenum.wqo import MAX_PAIR_LETTERS, MAX_PAIR_WORDS
from oracles import (
    alternating4,
    burnside_rank,
    random_nondegenerate_qs,
    random_qs,
    semidirect,
    table_of,
)


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- group -------------------------------------------------------------------


def test_group_check_catalog(capsys):
    code, out = run(capsys, "--json", "group", "check", "--group", "Q8")
    doc = json.loads(out)
    assert code == 0
    assert doc["class_ok"] and doc["k_valid"]
    assert doc["exponent"] == 4


def test_group_check_outside_class(capsys):
    # D4 has non-central involutions: the document is printed in text mode
    # and with --json alike, with the false verdict, and the command exits 1
    for mode in ([], ["--json"]):
        code, out = run(capsys, *mode, "group", "check", "--group", "D4")
        assert code == 1
        doc = json.loads(out)
        assert doc["name"] == "D4" and doc["class_ok"] is False


def test_group_check_unknown(capsys):
    assert run_command(["group", "check", "--group", "NoSuch"]) == 2


def test_group_check_from_file(tmp_path, capsys):
    doc = {
        "name": "C2",
        "order": 2,
        "elements": ["1", "a"],
        "mul": [[0, 1], [1, 0]],
        "K": [0, 1],
    }
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--json", "group", "check", "--group", str(path))
    assert code == 0
    assert json.loads(out)["k"] == ["1", "a"]


@pytest.mark.parametrize("mul", [3, [3], "ab", [[False, True], [True, False]]])
def test_group_check_file_with_bad_mul(tmp_path, capsys, mul):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mul": mul}))
    assert run_command(["group", "check", "--group", str(path)]) == 2


@pytest.mark.parametrize(
    "field", [{"K": 5}, {"K": [[0]]}, {"K": [True]}, {"elements": [[1], [2]]},
              {"elements": "ab"}, {"name": 5}],
)
def test_group_file_with_bad_k_or_elements(tmp_path, capsys, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mul": [[0, 1], [1, 0]], **field}))
    for argv in (["group", "check"], ["group", "rank"], ["cp", "enumerate", "--count=2"]):
        assert run_command([*argv, f"--group={path}"]) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_group_check_k_index_out_of_range(tmp_path, capsys):
    assert run_command(["group", "check", "--group", "Q8", "--k", "99"]) == 2
    assert "out of range" in capsys.readouterr().err
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"mul": [[0, 1], [1, 0]], "K": [7]}))
    assert run_command(["group", "check", "--group", str(path)]) == 2


@pytest.mark.parametrize("k", ["0,\u00b2", "\u00b2", "0,", "zz", "1.5"])
def test_group_check_bad_k(capsys, k):
    # "\u00b2" (superscript two) passes str.isdigit but not int()
    assert run_command(["group", "check", "--group", "Q8", f"--k={k}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_group_rank(capsys):
    code, out = run(capsys, "--json", "group", "rank", "--group", "Q8")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_group_rank_searches_once(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "rank", lambda table: calls.append(table) or 2)
    code, out = run(capsys, "group", "rank", "--group", "Q8")
    assert (code, out, len(calls)) == (0, "rank 2\n", 1)


def test_group_rank_at_order_128(tmp_path, capsys):
    # order 128 and rank 4, which a search of the subsets of sizes 1-3
    # (341 503 of them) could not reach in seconds
    table, _ = group_from_qs(random_nondegenerate_qs(random.Random(1), 4, 3))
    path = tmp_path / "g128.json"
    path.write_text(json.dumps(group_to_json(table)))
    start = time.perf_counter()
    code, out = run(capsys, "--json", "group", "rank", "--group", str(path))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["rank"] == burnside_rank(table) == 4


@pytest.mark.parametrize("group", [semidirect(3, 2, 2), alternating4()], ids=["S3", "A4"])
def test_group_rank_refuses_non_nilpotent(tmp_path, capsys, group):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"mul": table_of(*group)}))
    assert run_command(["group", "rank", "--group", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not nilpotent" in captured.err


# -- qs ----------------------------------------------------------------------


def test_qs_from_group_and_back(tmp_path, capsys):
    code, out = run(capsys, "--json", "qs", "from-group", "--group", "Q8")
    assert code == 0
    qs_path = tmp_path / "qs.json"
    qs_path.write_text(out)
    code, out = run(capsys, "--json", "qs", "to-group", "--file", str(qs_path))
    assert code == 0
    rebuilt = json.loads(out)
    assert rebuilt["order"] == 8


def test_qs_amalgam(tmp_path, capsys):
    _, out = run(capsys, "--json", "qs", "from-group", "--group", "C4")
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    left.write_text(out)
    _, out2 = run(capsys, "--json", "qs", "from-group", "--group", "Q8")
    right.write_text(out2)
    code, out = run(
        capsys,
        "--json",
        "--verify",
        "qs",
        "amalgam",
        "--left",
        str(left),
        "--right",
        str(right),
    )
    assert code == 0
    doc = json.loads(out)
    l_doc, r_doc = json.loads(left.read_text()), json.loads(right.read_text())
    assert doc["qs"]["dimU"] == l_doc["dimU"] + r_doc["dimU"]
    assert (
        doc["qs"]["dimV"]
        == l_doc["dimV"] + r_doc["dimV"] + l_doc["dimU"] * r_doc["dimU"]
    )


def test_qs_to_group_refuses_size_before_nondegeneracy(tmp_path, capsys):
    # Q(u) = u is nondegenerate, but checking so reads all 2^20 vectors
    dim = 20
    doc = {"dimU": dim, "dimV": dim, "Q": ["0" * i + "1" for i in range(dim)],
           "gamma": [["0"] * dim] * dim}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run_command(["qs", "to-group", f"--file={path}"]) == 2
    assert time.perf_counter() - start < 1
    assert "desk-scale cap" in capsys.readouterr().err


# Quadratic-structure documents that every qs reader refuses: dimensions
# that are not non-negative integers or exceed MAX_DIM_V, a ragged gamma,
# Q entries or gamma rows that are not bitstrings, and missing keys.
BAD_QS_DOCS = {
    "dimV-negative": {"dimU": 0, "dimV": -1, "Q": [], "gamma": []},
    "dimV-float": {"dimU": 0, "dimV": 1.5, "Q": [], "gamma": []},
    "dimV-huge": {"dimU": 0, "dimV": 100000000000, "Q": [], "gamma": []},
    "dimV-string": {"dimU": 0, "dimV": "1", "Q": [], "gamma": []},
    "dimU-bool": {"dimU": True, "dimV": 1, "Q": ["1"], "gamma": [["0"]]},
    "gamma-ragged": {"dimU": 2, "dimV": 1, "Q": ["1", "1"], "gamma": [["0", "1"], ["1"]]},
    "Q-int": {"dimU": 1, "dimV": 1, "Q": [1], "gamma": [["0"]]},
    "Q-list": {"dimU": 1, "dimV": 1, "Q": [["1"]], "gamma": [["0"]]},
    "gamma-row-string": {"dimU": 1, "dimV": 1, "Q": ["1"], "gamma": ["0"]},
    "no-dimV": {"dimU": 1, "Q": ["1"], "gamma": [["0"]]},
    "no-gamma": {"dimU": 1, "dimV": 1, "Q": ["1"]},
    "not-an-object": [1, 1],
}
# Q(u) is the parity of u; checking it nondegenerate would read all 2^24 vectors
WIDE_QS_DOC = {"dimU": 24, "dimV": 1, "Q": ["1"] * 24, "gamma": [["0"] * 24] * 24}


def qs_document_argvs(tmp_path, name, doc):
    """`qs to-group` and each `qs amalgam` slot reading `doc`; the other
    slots read the structure of C4."""
    path, good = tmp_path / f"qs-{name}.json", tmp_path / "qs-c4.json"
    path.write_text(json.dumps(doc))
    good.write_text(json.dumps({"dimU": 1, "dimV": 1, "Q": ["1"], "gamma": [["0"]]}))
    return [
        ["qs", "to-group", f"--file={path}"],
        ["qs", "amalgam", f"--left={path}", f"--right={good}"],
        ["qs", "amalgam", f"--left={good}", f"--right={path}"],
        ["qs", "amalgam", f"--left={good}", f"--right={good}", f"--common={path}"],
    ]


@pytest.mark.parametrize("name", sorted(BAD_QS_DOCS))
def test_bad_qs_document_is_bad_input(tmp_path, capsys, name):
    for argv in qs_document_argvs(tmp_path, name, BAD_QS_DOCS[name]):
        assert run_command(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_qs_amalgam_morphism_check_above_cap(tmp_path, capsys):
    # the inclusion of --common is checked on its 24 basis vectors and
    # their pairs, not on all 2^24 vectors; the amalgam of a structure with
    # itself over itself is that structure. Only --verify's nondegeneracy
    # check reads every vector, and it is refused at the cap.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE_QS_DOC))
    argv = ["--json", "qs", "amalgam", f"--left={path}", f"--right={path}", f"--common={path}"]
    start = time.perf_counter()
    assert run_command(argv) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["qs"] == WIDE_QS_DOC
    start = time.perf_counter()
    assert run_command(["--verify"] + argv) == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("dims, code", [((32, 32), 2), ((31, 32), 0)])
def test_qs_amalgam_dim_v_cap(tmp_path, capsys, dims, code):
    # factors of dimV 1 over the trivial structure: the amalgam has dimV
    # 1 + 1 + dimU1 * dimU2, which is 1026 past MAX_DIM_V and 994 within it
    paths = []
    for side, dim in zip(("left", "right"), dims):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(
            {"dimU": dim, "dimV": 1, "Q": ["1"] * dim, "gamma": [["0"] * dim] * dim}
        ))
        paths.append(f"--{side}={path}")
    assert run_command(["--json", "qs", "amalgam", *paths]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error: ") and "1026 exceeds cap 1024" in err
        assert not out
    else:
        assert json.loads(out)["qs"]["dimV"] == 994 <= MAX_DIM_V


# -- cp ----------------------------------------------------------------------


def test_cp_enumerate_c4(capsys):
    code, out = run(capsys, "cp", "enumerate", "--group", "C4", "--count", "8")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [line["index"] for line in lines] == list(range(8))
    assert lines[0]["min_rep"] == "-"
    assert all(set(line) == {"index", "support", "min_rep"} for line in lines)


def test_cp_enumerate_beyond_finite_gamma(capsys):
    # K = G in C2, so Γ has two elements
    assert run_command(["cp", "enumerate", "--group", "C2", "--count", "3"]) == 2
    assert "|Γ| = 2" in capsys.readouterr().err


def test_cp_enumerate_count_above_cap(capsys):
    # Q8 level 8 holds 131 072 elements; one more needs level 9, above the cap
    start = time.perf_counter()
    assert run_command(["cp", "enumerate", "--group", "Q8", "--count", "131073"]) == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def test_cp_enumerate_deterministic(capsys):
    _, out1 = run(capsys, "cp", "enumerate", "--group", "Q8", "--count", "20")
    _, out2 = run(capsys, "cp", "enumerate", "--group", "Q8", "--count", "20")
    assert out1 == out2


def test_cp_compare_and_mul(capsys):
    code, out = run(
        capsys, "cp", "compare", "--group", "C4", "--x", "-", "--y", "0:g"
    )
    assert code == 0 and out.strip() == "lt"
    code, out = run(
        capsys, "cp", "mul", "--group", "C4", "--x", "0:g", "--y", "0:g"
    )
    assert code == 0 and out.strip() == "0:g2"


def test_cp_bad_literal(capsys):
    assert (
        run_command(["cp", "mul", "--group", "C4", "--x", "0:zz", "--y", "-"]) == 2
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cp", "mul", "--group", "Q8", "--x", "100000:i", "--y", "3:j"],
        ["cp", "compare", "--group", "Q8", "--x", "100000000:i", "--y", "-"],
        ["cp", "mul", "--group", "Q8", "--x", "0:i", "--y", f"{MAX_LITERAL_COORD + 1}:j"],
    ],
    ids=["mul", "compare", "just-above"],
)
def test_literal_coordinate_above_cap(capsys, argv):
    start = time.perf_counter()
    assert run_command(argv) == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def test_literal_coordinate_at_cap(capsys):
    code, out = run(
        capsys, "cp", "mul", "--group", "Q8", "--x", f"{MAX_LITERAL_COORD}:i",
        "--y", "3:j",
    )
    assert (code, out) == (0, f"3:j,{MAX_LITERAL_COORD}:i\n")


ABOVE_CAP = [MAX_LITERAL_COORD + 1, 10**11]


@pytest.mark.parametrize(
    "gens",
    [[{"perm": [[0, top]]}] for top in ABOVE_CAP]
    + [[{"beta": [0, 1, 2, 3, 4, top]}] for top in ABOVE_CAP],
    ids=["just-above", "far", "ladder-just-above", "ladder-far"],
)
def test_word_coordinate_above_cap(capsys, gens):
    # a word acts on indices, which have a digit per coordinate up to its top
    word = json.dumps(gens)
    start = time.perf_counter()
    assert run_command(["aut", "apply", "--group", "Q8", "--word", word, "--element", "0:i"]) == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def test_word_coordinate_at_cap(capsys):
    word = json.dumps([{"perm": [[0, MAX_LITERAL_COORD]]}])
    code, out = run(capsys, "aut", "apply", "--group", "Q8", "--word", word, "--element", "0:i")
    assert (code, out) == (0, f"{MAX_LITERAL_COORD}:i\n")


def test_ladder_coordinate_at_cap(capsys):
    # each slot becomes the product of the others: i off coordinate 0
    word = json.dumps([{"beta": [0, 1, 2, 3, 4, MAX_LITERAL_COORD]}])
    code, out = run(capsys, "aut", "apply", "--group", "Q8", "--word", word, "--element", "0:i")
    assert (code, out) == (0, f"1:i,2:i,3:i,4:i,{MAX_LITERAL_COORD}:i\n")


# -- aut ---------------------------------------------------------------------


def test_aut_apply_beta_window(capsys):
    word = json.dumps([{"beta": [0, 1, 2, 3, 4, 5]}])
    code, out = run(
        capsys,
        "aut",
        "apply",
        "--group",
        "C4",
        "--word",
        word,
        "--element",
        "0:g",
    )
    assert code == 0
    assert out.strip() == "1:g,2:g,3:g,4:g,5:g"


def test_aut_verify_ok_and_level_guard(capsys):
    word = json.dumps([{"perm": [[0, 1]]}])
    code, out = run(
        capsys, "--json", "aut", "verify", "--group", "C4", "--word", word,
        "--level", "3",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert (
        run_command(
            ["aut", "verify", "--group", "C4", "--word", word, "--level", "1"]
        )
        == 2
    )


def test_aut_alpha_verified(capsys):
    code, out = run(
        capsys,
        "--json",
        "--verify",
        "aut",
        "alpha",
        "--group",
        "C4",
        "--coords",
        "0,1,2,3",
        "--i0",
        "4",
        "--j0",
        "5",
    )
    assert code == 0
    doc = json.loads(out)
    # one full residue block: a single window followed by the i0/j0 swap
    assert doc == [{"beta": [4, 0, 1, 2, 3, 5]}, {"perm": [[4, 5]]}]


@pytest.mark.parametrize(
    "word",
    ['[{"perm": 3}]', '[{"perm": [["a", "b"]]}]', '[{"beta": ["a", 1, 2, 3, 4, 5]}]',
     '[{"perm": [[]]}]', "3", '[{"beta": []}]'],
    ids=["perm-int", "perm-str-cycle", "beta-str", "perm-empty-cycle", "not-list",
         "beta-empty"],
)
def test_aut_verify_bad_word(capsys, word):
    argv = ["aut", "verify", "--group", "C4", "--word", word, "--level", "2"]
    assert run_command(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_aut_verify_long_inline_word_is_not_echoed(capsys):
    # 100 000 "[" nest past the recursion limit: the error names the word
    # by its first 40 characters, not the whole argument
    argv = ["aut", "verify", "--group", "C4", "--word", "[" * 100_000, "--level", "2"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: word '" + "[" * 40 + "...' is not JSON")
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["aut", "verify", "--group", "x" * 100_000, "--word", "[]", "--level", "2"],
         "error: '" + "x" * 40 + "...' is neither a catalog group"),
        (["aut", "alpha", "--group", "Q8", "--coords", "1," * 50_000 + "z", "--i0", "0",
          "--j0", "5"], "error: --coords must be comma-separated integers: '" + "1," * 20 + "...'"),
    ],
    ids=["group", "coords"],
)
def test_long_group_and_coords_are_not_echoed(capsys, argv, shown):
    # an unknown 100 000-character --group, and --coords of 100 001
    # characters that are not integers: the error names each by its first
    # 40 characters
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(shown)
    assert len(err) < 200


def test_aut_verify_level_above_cap(capsys):
    # Q8 level 12 would have about 33M cosets; refused before any is built
    argv = ["aut", "verify", "--group", "Q8", "--word", "[]", "--level", "12"]
    assert run_command(argv) == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["-1", "0"])
def test_aut_verify_level_below_one(capsys, level):
    argv = ["aut", "verify", "--group", "Q8", "--word", "[]", "--level", level]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: level must be >= 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["aut", "verify", "--group", "Q8", "--word", "[]", "--level", "100000"],
        ["aut", "verify", "--group", "C2", "--word", "[]", "--level", str(MAX_COSETS + 1)],
        ["--verify", "aut", "alpha", "--group", "C4", "--coords", "0,1,2,3",
         "--i0", "4", "--j0", "100000"],
    ],
    ids=["q8", "k-is-g", "alpha-verify"],
)
def test_aut_huge_level_above_cap(capsys, argv):
    # a level's coset count is not built (nor printed) once it is over the cap
    start = time.perf_counter()
    assert run_command(argv) == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def test_aut_alpha_verify_failure_is_falsified(monkeypatch, capsys):
    # a failing report makes `aut alpha --verify` exit 1 and print no word
    from azenum.automorphisms import VerifyReport

    def failing(ctx, word, level, rng):
        return VerifyReport(False, level, ctx.level_size(level), 0, False, "not injective")

    monkeypatch.setattr(cli, "verify_automorphism", failing)
    argv = ["--verify", "aut", "alpha", "--group", "C4", "--coords", "0,1,2,3",
            "--i0", "4", "--j0", "5"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "falsified: word fails verification: not injective\n"


def test_aut_alpha_verify_empty_coords(capsys):
    # an empty I gives the empty word, verified on level max(i0, j0) + 1
    code, out = run(capsys, "--verify", "aut", "alpha", "--group", "Q8", "--coords", ",",
                    "--i0", "0", "--j0", "1")
    assert (code, out) == (0, "[]\n")


def test_aut_alpha_bad_coords(capsys):
    argv = ["aut", "alpha", "--group", "Q8", "--coords", "1,x", "--i0", "0",
            "--j0", "9"]
    assert run_command(argv) == 2
    assert "--coords" in capsys.readouterr().err


# -- wqo ---------------------------------------------------------------------


def test_wqo_star_example(capsys):
    code, out = run(capsys, "wqo", "star", "--w1", "a,b", "--w2", "a,a,b")
    assert code == 0
    assert out.strip() == "embedding (2,3)"


def test_wqo_subword_and_miss(capsys):
    code, out = run(capsys, "wqo", "subword", "--w1", "a,b", "--w2", "a,c,b")
    assert code == 0 and out.strip() == "embedding (1,3)"
    code, out = run(capsys, "wqo", "star", "--w1", "b,a", "--w2", "a,a,b")
    assert code == 1 and out == "no embedding\n"
    code, out = run(capsys, "--json", "wqo", "star", "--w1", "b,a", "--w2", "a,a,b")
    assert code == 1 and json.loads(out) == {"embedded": False}


def test_wqo_pair_from_file(tmp_path, capsys):
    stream = tmp_path / "words.txt"
    stream.write_text("a,b\nb,a\na,b,a,b\n")
    code, out = run(
        capsys, "--json", "wqo", "pair", "--file", str(stream), "--mode", "star"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["i"], doc["j"]) == (0, 2)
    assert doc["positions"] == [3, 4]


@pytest.mark.parametrize("mode", ["star", "higman"])
def test_wqo_pair_blank_line_is_empty_word(tmp_path, capsys, mode):
    stream = tmp_path / "words.txt"
    stream.write_text("a\n\na,a\n")
    code, out = run(
        capsys, "--json", "wqo", "pair", "--file", str(stream), "--mode", mode
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["i"], doc["j"]) == (0, 2)
    stream.write_text("\n\n")
    code, out = run(
        capsys, "--json", "wqo", "pair", "--file", str(stream), "--mode", mode
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["i"], doc["j"], doc["w1"], doc["w2"]) == (0, 1, "", "")


def test_wqo_pair_not_found(tmp_path, capsys):
    stream = tmp_path / "words.txt"
    stream.write_text("a,b\nb,a\n")
    code, out = run(capsys, "wqo", "pair", "--file", str(stream))
    assert code == 1 and out == "no increasing pair\n"
    code, out = run(capsys, "--json", "wqo", "pair", "--file", str(stream))
    assert code == 1 and json.loads(out) == {"found": False}


def at_pair_caps(extra_words=0, extra_letters=0):
    """Equal words, so that the first two are a pair in either order, at
    MAX_PAIR_WORDS words and MAX_PAIR_LETTERS letters in all, plus extra
    one-letter words and extra letters on the last word."""
    per, rest = divmod(MAX_PAIR_LETTERS, MAX_PAIR_WORDS)
    words = [["a"] * per for _ in range(MAX_PAIR_WORDS)] + [["a"]] * extra_words
    words[MAX_PAIR_WORDS - 1] = ["a"] * (per + rest + extra_letters)
    return "".join(",".join(w) + "\n" for w in words)


@pytest.mark.parametrize("mode", ["star", "higman"])
@pytest.mark.parametrize("extra, code", [((0, 0), 0), ((1, 0), 2), ((0, 1), 2)],
                         ids=["at-cap", "word-past-cap", "letter-past-cap"])
def test_wqo_pair_stream_cap(tmp_path, capsys, mode, extra, code):
    # decided before the scan: past either cap, exit 2 with a capacity error
    stream = tmp_path / "words.txt"
    stream.write_text(at_pair_caps(*extra))
    assert run_command(["wqo", "pair", "--file", str(stream), "--mode", mode]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith("pair (0,1) ")
    else:
        assert err.startswith("error: a pair search takes at most")


# -- az ----------------------------------------------------------------------


def test_az_run_green(tmp_path, capsys):
    tuples = tmp_path / "family.txt"
    tuples.write_text("0:g\n0:g,1:g,2:g,3:g,4:g\n")
    emit = tmp_path / "cert.json"
    code, out = run(
        capsys,
        "--json",
        "--verify",
        "az",
        "run",
        "--group",
        "C4",
        "--tuples",
        str(tuples),
        "--depth",
        "50",
        "--emit",
        str(emit),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["f"] == [4]
    assert json.loads(emit.read_text()) == doc


def test_az_run_insufficient(tmp_path, capsys):
    tuples = tmp_path / "family.txt"
    tuples.write_text("0:g\n0:g,1:g\n")
    code = run_command(
        ["az", "run", "--group", "C4", "--tuples", str(tuples)]
    )
    capsys.readouterr()
    assert code == 3


def test_az_run_no_strongly_embedded_pair(tmp_path, capsys):
    # one bucket, but the longer word comes first and embeds in no later one
    tuples = tmp_path / "family.txt"
    tuples.write_text("0:g,1:g,2:g,3:g,4:g\n0:g\n")
    assert run_command(["az", "run", "--group", "C4", "--tuples", str(tuples)]) == 3
    assert "no strongly embedded pair" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["Q8", "C4"])
def test_az_run_identity_members_insufficient(tmp_path, capsys, group):
    # two identity members give empty words, so β has no position to copy
    tuples = tmp_path / "family.txt"
    tuples.write_text("-\n-\n")
    argv = ["--json", "az", "run", "--group", group, "--tuples", str(tuples), "--depth", "5"]
    assert run_command(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty words" in captured.err and "Traceback" not in captured.err


def test_az_run_verify_differing_runs_is_falsified(tmp_path, capsys, monkeypatch):
    # the two runs of `--verify` get different seeds, so their certificates
    # differ and the command exits 1 without printing one
    seeds, real = iter([0, 1]), cli.run_az
    monkeypatch.setattr(
        cli, "run_az", lambda fam, depth, seed: real(fam, depth=depth, seed=next(seeds))
    )
    tuples = tmp_path / "family.txt"
    tuples.write_text("0:g\n0:g,1:g,2:g,3:g,4:g\n")
    argv = ["--verify", "az", "run", "--group", "C4", "--tuples", str(tuples), "--depth", "5"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "falsified: certificate is not deterministic\n"


def test_az_run_tuple_coordinate_above_cap(tmp_path, capsys):
    tuples = tmp_path / "family.txt"
    tuples.write_text(f"0:g\n{MAX_LITERAL_COORD + 1}:g\n")
    assert run_command(["az", "run", "--group", "C4", "--tuples", str(tuples)]) == 2
    assert "cap" in capsys.readouterr().err


# equal members: at the word cap, one member past it, members of
# MAX_LITERAL_COORD + 1 letters each, one member more than MAX_PAIR_LETTERS
# holds, and one member past the word cap before a malformed line, which the
# cap refuses before it is read
AZ_CAP_FAMILIES = {
    "at-cap": ("0:g\n" * MAX_PAIR_WORDS, 0),
    "word-past-cap": ("0:g\n" * (MAX_PAIR_WORDS + 1), 2),
    "letter-past-cap": (
        f"{MAX_LITERAL_COORD}:g\n" * (MAX_PAIR_LETTERS // (MAX_LITERAL_COORD + 1) + 1), 2
    ),
    "malformed-past-cap": ("0:g\n" * (MAX_PAIR_WORDS + 1) + "0:nosuch\n", 2),
}


@pytest.mark.parametrize("name", sorted(AZ_CAP_FAMILIES))
def test_az_run_pair_search_cap(tmp_path, capsys, name):
    text, code = AZ_CAP_FAMILIES[name]
    tuples = tmp_path / "family.txt"
    tuples.write_text(text)
    assert run_command(["az", "run", "--group", "C4", "--tuples", str(tuples)]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: a pair search takes at most")


def test_az_run_mixed_arity(tmp_path, capsys):
    tuples = tmp_path / "family.txt"
    tuples.write_text("0:g;1:g\n0:g\n")
    assert run_command(["az", "run", "--group", "C4", "--tuples", str(tuples)]) == 2
    assert "arity" in capsys.readouterr().err


def test_az_run_two_components(tmp_path, capsys):
    tuples = tmp_path / "family.txt"
    tuples.write_text("0:i;1:j\n0:i;1:j\n")
    code, out = run(
        capsys, "--json", "az", "run", "--group", "Q8", "--tuples", str(tuples),
        "--depth", "30",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_az_run_depth_above_cap(capsys):
    # the order claim covers the whole level holding `depth` elements, and
    # that level goes through level_size and its cap
    tuples = Path(__file__).parent / "golden" / "inputs" / "az_Q8_1.txt"
    start = time.perf_counter()
    argv = ["az", "run", "--group", "Q8", "--tuples", str(tuples), "--depth", "10000000"]
    assert run_command(argv) == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def c2_run(tmp_path, capsys, *depth):
    """`az run` on C2 with K = G: every level is all of Γ, which has two
    elements, and a depth above that scans the whole of Γ."""
    tuples = tmp_path / "family.txt"
    tuples.write_text("0:g\n0:g\n")
    start = time.perf_counter()
    argv = ["--json", "az", "run", "--group", "C2", "--tuples", str(tuples), *depth]
    code, out = run(capsys, *argv)
    assert code == 0
    assert time.perf_counter() - start < 1
    assert json.loads(out)["reports"]["order_preservation"] == {"level": 0, "ordered": 1, "of": 1}


def test_az_run_depth_beyond_finite_gamma(tmp_path, capsys):
    c2_run(tmp_path, capsys, "--depth", "3")


def test_az_run_default_depth_on_finite_gamma(tmp_path, capsys):
    c2_run(tmp_path, capsys)


# -- rado --------------------------------------------------------------------


def test_rado_triples_and_check(tmp_path, capsys):
    emit = tmp_path / "triples.json"
    code, out = run(
        capsys,
        "--json",
        "--verify",
        "rado",
        "triples",
        "--max-n",
        "5",
        "--emit",
        str(emit),
    )
    assert code == 0
    doc = json.loads(out)
    assert [t["n"] for t in doc["triples"]] == [4, 5]
    assert doc["triples"][0]["b"] == 5
    assert doc["triples"][0]["c"] == 39
    assert doc["obstruction"]["ok"] is True

    code, out = run(capsys, "--json", "rado", "check", "--file", str(emit))
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        '{"triples": [{"n": 4, "b": 5, "cycle": [0, 1, 2, 5]}]}',
        '{"triples": [{"n": 4, "b": "5", "c": 39, "cycle": [0, 1, 2, 5]}]}',
        '{"triples": [{"n": 4, "b": 5, "c": 39, "cycle": 5}]}',
        '{"triples": [{"n": 4, "b": 5, "c": 39, "cycle": [0, 1.5]}]}',
        '{"triples": [7]}',
        '{"triples": 7}',
        "[]",
        '{"triples": [{"n": 4, "b": 5, "c": 39, "cycle": [-1, 1, 2, 5]}]}',
        '{"triples": [{"n": 4, "b": -5, "c": 39, "cycle": [0, 1, 2, 5]}]}',
    ],
    ids=["json", "missing-c", "str-b", "int-cycle", "float-vertex",
         "not-object", "not-list", "no-triples", "negative-vertex", "negative-b"],
)
def test_rado_check_bad_file(tmp_path, capsys, content):
    path = tmp_path / "triples.json"
    path.write_text(content)
    assert run_command(["rado", "check", "--file", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "triple, message",
    [
        ({"b": 5, "c": 39, "cycle": [0, 1, 2, 3]}, "stored cycle is not an induced cycle"),
        ({"b": 4, "c": 39, "cycle": [0, 1, 2, 5]}, "cycle exceeds the prefix"),
        # c <= b: falsified before the neighbourhood scan, which would walk
        # every vertex from c + 1 to b
        ({"b": 10**12, "c": 3, "cycle": [0, 1, 2, 5]}, "c lies inside the prefix"),
        # 38 = 0b100110 sees 1, 2 and 5 of the prefix, not 0
        ({"b": 5, "c": 38, "cycle": [0, 1, 2, 5]}, "c's prefix neighborhood is not the cycle"),
    ],
    ids=["not-induced", "cycle-above-b", "c-inside-prefix", "wrong-neighbourhood"],
)
def test_rado_check_falsified_triple(tmp_path, capsys, triple, message):
    # each a well-formed triple of n = 4 that one check of the file rejects
    path = tmp_path / "triples.json"
    path.write_text(json.dumps({"triples": [{"n": 4, **triple}]}))
    assert run_command(["--json", "rado", "check", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("falsified:") and message in err


@pytest.mark.parametrize("cycle, entries", [([0, 1, 2, 5], 4), ([0, 1, 2, 5, 5], 5)])
def test_rado_check_cycle_not_n_vertices(tmp_path, capsys, cycle, entries):
    # n = 5 with a 4-cycle: falsified before any other check, as the pair
    # lemma needs each c's lower neighbourhood to be a cycle of its own n
    path = tmp_path / "triples.json"
    triple = {"n": 5, "b": 5, "c": 39, "cycle": cycle}
    path.write_text(json.dumps({"triples": [triple]}))
    assert run_command(["--json", "rado", "check", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("falsified:") and f"4 distinct vertices in {entries} entries" in err


@pytest.mark.parametrize("bit", [4097, 41], ids=["bit-4097", "bit-b-plus-1"])
def test_rado_check_refuses_a_c_that_sees_past_the_prefix(tmp_path, capsys, bit):
    # the n = 5 triple's c gains a bit above b = 40: with bit 4097 it sees
    # the induced 4-cycle (0, 4097, 12, 3), with bit 41 the triangle
    # (0, 3, 41), so the pair claim from n = 4 would rest on nothing
    path = tmp_path / "triples.json"
    assert run_command(["rado", "triples", "--max-n", "5", "--emit", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["triples"][1]["b"] == 40
    doc["triples"][1]["c"] += 1 << bit
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_command(["rado", "check", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "falsified: c sees a vertex between the prefix and c\n"


def test_rado_check_refuses_two_triples_of_one_n(tmp_path, capsys):
    # the identity sends a c onto itself, so a pair of one n has no claim
    path = tmp_path / "triples.json"
    path.write_text(json.dumps({"triples": [t.to_json() for t in rado.build_triples(4) * 2]}))
    assert run_command(["rado", "check", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("falsified:") and "share an n" in err


TRIPLES_7 = rado.build_triples(7)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_rado_check_refuses_any_bit_outside_the_cycle(tmp_path_factory, data):
    # a valid triple whose c gains a bit outside its cycle, below b or above
    # it, up to bit 12,000 (json reads at most 4,300 digits), is falsified
    k = data.draw(st.integers(0, len(TRIPLES_7) - 1))
    doc = {"triples": [t.to_json() for t in TRIPLES_7]}
    cycle = doc["triples"][k]["cycle"]
    bit = data.draw(st.one_of(st.integers(0, 64), st.integers(0, 12_000)).filter(
        lambda x: x not in cycle))
    doc["triples"][k]["c"] += 1 << bit
    path = tmp_path_factory.mktemp("triples") / "triples.json"
    path.write_text(json.dumps(doc))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(["rado", "check", "--file", str(path)])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("falsified: c")


# Values a hand-written document may hold where an integer is expected:
# small, negative, bool and oversized (2^64, 4,000 digits) ones, and among
# the others "HUGE", which `_exit_code_on` writes as 5,000 digits, past
# int()'s digit limit.
ODD_INTS = st.one_of(
    st.integers(0, 45), st.integers(-3, -1), st.booleans(), st.sampled_from([1 << 64, 10**4000])
)
ODD_VALUES = st.one_of(
    ODD_INTS, st.lists(ODD_INTS, max_size=12), st.text(max_size=2), st.none(), st.just("HUGE")
)


def _exit_code_on(tmp_path_factory, argv, doc):
    """run_command(argv + [path]) on doc written to a file, its output kept."""
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "9" * 5000))
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return run_command([*argv, str(path)])


def _now_and_then(draw, rng, value, odd=ODD_VALUES):
    """value, or one time in ten an odd value in its place; rng decides, as
    hypothesis draws small integers far more often than one time in ten."""
    return draw(odd) if rng.random() < 0.1 else value


@st.composite
def triples_docs(draw):
    """A `rado check --file` document: up to 10 triples of `build_triples(7)`,
    distinct or not, with up to two keys dropped or set to a small int, a
    list of them or an odd value; now and then a triple, the list or the
    document is an odd value."""
    rng = draw(st.randoms(use_true_random=True))
    pool = [t.to_json() for t in TRIPLES_7]
    entries = rng.sample(pool, rng.randint(0, 4)) if rng.random() < 0.7 else rng.choices(pool, k=rng.randint(0, 10))
    for _ in range(rng.choice([0, 0, 1, 2]) if entries else 0):
        entry, key = rng.choice(entries), rng.choice(["n", "b", "c", "cycle", "a"])
        if rng.random() < 0.2:
            entry.pop(key, None)
        else:
            small = st.lists(st.integers(0, 60), max_size=9) if key == "cycle" else st.integers(0, 60)
            entry[key] = _now_and_then(draw, rng, draw(small))
    doc = {"triples": _now_and_then(draw, rng, [_now_and_then(draw, rng, e) for e in entries])}
    if rng.random() < 0.2:
        doc[draw(st.sampled_from(["obstruction", "x"]))] = draw(ODD_VALUES)
    return _now_and_then(draw, rng, doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(triples_docs())
def test_rado_check_file_never_raises(tmp_path_factory, doc):
    assert _exit_code_on(tmp_path_factory, ["rado", "check", "--file"], doc) in (0, 1, 2)


def _group_tables():
    """Multiplication tables of every group of order at most 6, as lists:
    the cyclic groups, the Klein group and S3 (`p[q[i]]` composes)."""
    tables = [[[(a + b) % n for b in range(n)] for a in range(n)] for n in range(1, 7)]
    tables.append([[a ^ b for b in range(4)] for a in range(4)])
    s3 = list(permutations(range(3)))
    tables.append([[s3.index(tuple(p[q[i]] for i in range(3))) for q in s3] for p in s3])
    return tables


GROUP_TABLES = _group_tables()


@st.composite
def group_docs(draw):
    """A `group check --group FILE` document of order at most 6: a group's
    table relabelled, or one time in four a table of odd values, with
    "elements", "K", "name" and "order" odd or fitting the order; now and
    then an entry, the table or the document is an odd value."""
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 0.75:
        table = rng.choice(GROUP_TABLES)
        relabel = draw(st.permutations(range(len(table))))
        mul = [[None] * len(table) for _ in table]
        for a, row in enumerate(table):
            for b, ab in enumerate(row):
                mul[relabel[a]][relabel[b]] = relabel[ab]
        if rng.random() < 0.2:
            rng.choice(mul)[rng.randrange(len(mul))] = draw(ODD_INTS)
    else:
        order = rng.randint(0, 6)
        mul = draw(st.lists(st.lists(ODD_INTS, min_size=order, max_size=order), min_size=order, max_size=order))
    order = len(mul)
    doc = {"mul": _now_and_then(draw, rng, mul)}
    fitting = {"elements": [f"g{i}" for i in range(order)], "name": "G", "order": order,
               "K": rng.sample(range(order), rng.randint(0, order))}
    for key in rng.sample(sorted(fitting), rng.randint(0, 4)):
        doc[key] = _now_and_then(draw, rng, fitting[key])
    return _now_and_then(draw, rng, doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(group_docs())
def test_group_check_file_never_raises(tmp_path_factory, doc):
    assert _exit_code_on(tmp_path_factory, ["group", "check", "--group"], doc) in (0, 1, 2)


# An element name of each group the `aut` property reads, and the span of
# its words' coordinates, which is also their largest level: C4 (r = 2)
# to 6, where a ladder's 6 coordinates fit, and Q8 (r = 4) to 3, so that
# `aut verify` checks the law exhaustively, on at most 128 elements.
AUT_GROUPS = {"C4": ("g", 6), "Q8": ("i", 3)}


def _spoil(draw, rng, places, odd=ODD_VALUES):
    """Set up to two of `places`, each a (container, key) pair, to an odd
    value: none in three documents of five, one in one and two in one."""
    for container, key in rng.sample(places, min(len(places), rng.choice([0, 0, 0, 1, 2]))):
        container[key] = draw(odd)


@st.composite
def word_docs(draw):
    """(group, level, element, word) for `aut apply` and `aut verify`: up
    to four generators, each the cycles of a permutation of coordinates
    within the group's span or a ladder of distinct ones (6, the length the
    exponent 4 asks for, or another), mostly at the span's level; now and
    then a coordinate is odd or past the literal cap, a cycle, an entry or
    the word is an odd value, and the level or the element is out of range
    or malformed."""
    rng = draw(st.randoms(use_true_random=True))
    group = rng.choice(sorted(AUT_GROUPS))
    name, span = AUT_GROUPS[group]
    word, places = [], []
    for _ in range(rng.choice([0, 1, 2, 3, 4, 4])):
        if rng.random() < (0.5 if span >= 6 else 0.1):
            gen = {"beta": rng.sample(range(span), min(span, rng.choice([6, 6, rng.randint(0, 6)])))}
            places += [(gen["beta"], c) for c in range(len(gen["beta"]))]
        else:
            moved = rng.sample(range(span), rng.randint(1, span))
            cut = rng.randint(0, len(moved))
            gen = {"perm": [cyc for cyc in (moved[:cut], moved[cut:]) if cyc]}
            places += [(cyc, c) for cyc in gen["perm"] for c in range(len(cyc))]
            places += [(gen, "perm")] + [(gen["perm"], c) for c in range(len(gen["perm"]))]
        places.append((word, len(word)))
        word.append(gen)
    holder = {"word": word}
    _spoil(draw, rng, places + [(holder, "word")], st.one_of(ODD_VALUES, st.just(MAX_LITERAL_COORD + 1)))
    level = rng.choice([str(span)] * 6 + [str(rng.randint(0, span)), "-1", "40", str(MAX_COSETS)])
    element = ",".join(f"{c}:{name}" for c in rng.sample(range(9), rng.randint(1, 3)))
    element = rng.choice([element] * 10 + ["", "0:x", "0:", "-1:" + name, f"{10**6}:{name}"])
    return group, level, element, holder["word"]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(word_docs())
def test_aut_word_file_never_raises(tmp_path_factory, case):
    group, level, element, word = case
    for argv in (["aut", "apply", "--group", group, f"--element={element}", "--word"],
                 ["aut", "verify", "--group", group, f"--level={level}", "--word"]):
        assert _exit_code_on(tmp_path_factory, argv, word) in (0, 1, 2, 3)


ODD_BITSTRINGS = st.one_of(
    ODD_VALUES, st.sampled_from(["", "2", "01 ", "1" * 50]), st.text("01", max_size=4)
)


@st.composite
def qs_docs(draw):
    """A quadratic-structure document of dimU and dimV at most 2, so that
    its group has order at most 16, from random bases, degenerate or not;
    now and then a key is dropped, or a dimension, a bitstring, a gamma
    row or the document is odd."""
    rng = draw(st.randoms(use_true_random=True))
    doc = qs_to_json(random_qs(rng, rng.randint(0, 2), rng.randint(0, 2)))
    places = [(doc["Q"], i) for i in range(len(doc["Q"]))]
    places += [(doc["gamma"], i) for i in range(len(doc["gamma"]))]
    places += [(row, i) for row in doc["gamma"] for i in range(len(row))]
    places += [(doc, key) for key in sorted(doc)]
    if rng.random() < 0.1:
        del doc[rng.choice(sorted(doc))]
    holder = {"doc": doc}
    _spoil(draw, rng, places + [(holder, "doc")], st.one_of(ODD_BITSTRINGS, st.just(MAX_DIM_V + 1)))
    return holder["doc"]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(qs_docs())
def test_qs_file_never_raises(tmp_path_factory, doc):
    # `qs to-group` and each `qs amalgam` slot read the document
    for argv in qs_document_argvs(tmp_path_factory.mktemp("qs"), "odd", doc):
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert run_command(argv) in (0, 1, 2, 3)


def ladder_cycle_triple(h):
    """A valid triple whose cycle has n = 2h vertices, h <= 12: the vertices
    a_j = 4 + j, whose bits all lie below 4 so that no two are adjacent,
    alternate with b_j = 2^a_j + 2^a_(j+1 mod h), which sees exactly a_j
    and a_(j+1) among them; c is the cycle's characteristic mask."""
    a = [4 + j for j in range(h)]
    vertices = a + [(1 << a[j]) + (1 << a[(j + 1) % h]) for j in range(h)]
    cycle = rado.is_induced_cycle(vertices)
    triple = rado.Triple(2 * h, max(cycle), sum(1 << v for v in cycle), cycle)
    rado._validate_triple(triple)
    return triple


@pytest.mark.parametrize(
    "triples, cap",
    [([ladder_cycle_triple(7)], rado.MAX_TRIPLES_N),
     (rado.build_triples(4) * 10, rado.MAX_TRIPLES_N - 3)],
    ids=["n-14", "ten-triples"],
)
def test_rado_check_file_above_cap(tmp_path, capsys, triples, cap):
    # a triple above MAX_TRIPLES_N, or more triples than build_triples emits,
    # is refused before validation and its per-pair report
    path = tmp_path / "triples.json"
    path.write_text(json.dumps({"triples": [t.to_json() for t in triples]}))
    assert run_command(["rado", "check", "--file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"cap of {cap}" in err


def test_rado_triples_verify_revalidates_emitted_triples(capsys, monkeypatch):
    # `--verify` re-checks the triples as emitted, so a c that to_json gets
    # wrong is falsified before anything is printed
    real = rado.Triple.to_json
    monkeypatch.setattr(rado.Triple, "to_json", lambda t: {**real(t), "c": t.c + 1})
    assert run_command(["--json", "--verify", "rado", "triples", "--max-n", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("falsified:")


def test_rado_triples_verify_compares_the_rechecked_report(capsys, monkeypatch):
    # `--verify` compares the re-checked obstruction report with the emitted
    # one, so a first report short of one `pairs` row is falsified before
    # anything is printed
    real, calls = cli.check_obstruction, []

    def first_drops_a_row(triples):
        report = real(triples)
        if not calls:
            report.pair_certificates.pop()
        calls.append(len(triples))
        return report

    monkeypatch.setattr(cli, "check_obstruction", first_drops_a_row)
    assert run_command(["--verify", "rado", "triples", "--max-n", "5"]) == 1
    out, err = capsys.readouterr()
    assert calls == [2, 2]
    assert out == ""
    assert err.startswith("falsified:")


def test_emit_to_a_directory_is_bad_input(tmp_path, capsys):
    # the `--emit` file is written before anything is printed, so a write
    # that fails prints nothing on stdout
    assert run_command(["rado", "triples", "--max-n", "4", "--emit", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_rado_triples_above_cap(capsys):
    assert run_command(["rado", "triples", "--max-n", "99"]) == 2
    assert "cap" in capsys.readouterr().err


JSON_READERS = {
    "group-file": ["group", "check", "--group", "{bad}"],
    "qs-to-group": ["qs", "to-group", "--file", "{bad}"],
    "amalgam-left": ["qs", "amalgam", "--left", "{bad}", "--right", "{qs}"],
    "amalgam-right": ["qs", "amalgam", "--left", "{qs}", "--right", "{bad}"],
    "word-inline": ["aut", "verify", "--group", "C4", "--word", "{doc}", "--level", "2"],
    "word-file": ["aut", "verify", "--group", "C4", "--word", "{bad}", "--level", "2"],
    "triples-file": ["rado", "check", "--file", "{bad}"],
}
# a syntax error; an integer of more digits than int() reads (4 300 by
# default), which json raises as ValueError; and arrays nested past the
# recursion limit, which it raises as RecursionError
MALFORMED_JSON = {"syntax": "{not json", "long-integer": "1" * 4301,
                  "deep-nesting": "[" * 100_000}


@pytest.mark.parametrize(
    "argv, doc",
    [pytest.param(argv, doc, id=reader if kind == "syntax" else f"{reader}-{kind}")
     for kind, doc in MALFORMED_JSON.items() for reader, argv in JSON_READERS.items()],
)
def test_malformed_json_is_bad_input(tmp_path, capsys, argv, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    _, out = run(capsys, "--json", "qs", "from-group", "--group", "C4")
    qs = tmp_path / "qs.json"
    qs.write_text(out)
    argv = [a.format(bad=bad, qs=qs, doc=doc) for a in argv]
    assert run_command(argv) == 2
    assert "is not JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "check", "--group", "{path}"],
        ["qs", "to-group", "--file", "{path}"],
        ["aut", "verify", "--group", "C4", "--word", "{path}", "--level", "2"],
        ["az", "run", "--group", "C4", "--tuples", "{path}"],
        ["rado", "check", "--file", "{path}"],
        ["wqo", "pair", "--file", "{path}"],
    ],
    ids=["group", "qs", "word", "tuples", "triples", "wqo-pair"],
)
@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_input_is_bad_input(tmp_path, capsys, argv, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    assert run_command([a.format(path=path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- malformed values on every path -----------------------------------------


C2_MUL = [[0, 1], [1, 0]]
BAD_GROUP_DOCS = [3, [], {}, {"mul": 3}, {"mul": [3]}, {"mul": [[True]]},
                  {"mul": [[0.0]]}, {"mul": C2_MUL, "K": 5}, {"mul": C2_MUL, "K": [5]},
                  {"mul": C2_MUL, "K": ["a"]}, {"mul": C2_MUL, "K": [True]},
                  {"mul": C2_MUL, "K": [[0]]}, {"mul": C2_MUL, "K": {"0": 1}},
                  {"mul": C2_MUL, "order": 3}, {"mul": C2_MUL, "elements": ["a"]},
                  {"mul": C2_MUL, "elements": [[1], [2]]},
                  {"mul": C2_MUL, "elements": "ab"}, {"mul": C2_MUL, "elements": [1, 2]}]
TRIPLE = {"n": 4, "b": 10, "c": 11, "cycle": [0, 1, 2, 3]}
BAD_TRIPLES_DOCS = [3, {}, {"triples": 3}, {"triples": [3]}, {"triples": [{}]},
                    {"triples": [{**TRIPLE, "cycle": "ab"}]},
                    {"triples": [{**TRIPLE, "cycle": [0, 1, 2, True]}]},
                    {"triples": [{**TRIPLE, "n": 4.0}]}, {"triples": [{**TRIPLE, "c": -1}]},
                    {"triples": [{**TRIPLE, "n": 99, "b": 10**8, "c": 10**8 + 1}]}]


def malformed_grid(tmp_path):
    """A fixed grid of malformed and edge values for every option that takes
    an element literal, K, an automorphism word, coordinates, a count, a
    level, a depth, a wqo word or a bound, for every catalog group, and for
    every JSON document reader: group files, quadratic-structure documents
    in `qs to-group` and each `qs amalgam` slot, and `rado check` triples.
    Values go in as `--opt=value`, so argparse reads a leading '-' as part
    of the value. The `az run` rows read a family of two equal members.
    Each row is (argv, code): code pins the exit code of an error path no
    other test reaches, and is None where any documented code will do."""
    literals = ["", "-", "1", ",", ":", "0:", ":{n}", "0:{n},", "x:{n}", "-1:{n}",
                "0:{n},0:{n}", "1.5:{n}", "\u00b2:{n}", "0:nope", "0:{n},3:{n}",
                " 2 : {n} ", f"{MAX_LITERAL_COORD + 1}:{{n}}", "99999999999:{n}"]
    ks = ["", ",", "0,", "99", "-1", "\u00b2", "0,\u00b2", "1.5", "{n}", "0,{n}"]
    words = ["", "[]", "{}", "[{}]", "null", '"x"', "[[]]", '[{"beta": []}]',
             '[{"beta": [0, 0]}]', '[{"beta": [-1, 1]}]', '[{"perm": [[0, -1]]}]',
             '[{"perm": [[0, 0]]}]', '[{"beta": [true, 1]}]',
             '[{"beta": [0, 1, 2, 3, 4, 5]}, {"perm": [[1, 99]]}]',
             '[{"beta": [0, 1]}, {"perm": [[0, 2]]}]', '[{"perm": [[0, 1]], "beta": [0]}]']
    coords = ["", "0,1,2,3", "0,0,1,2", "x", "-1,1,2,3", "0,1,2", "\u00b2"]
    ends = [("4", "5"), ("4", "4"), ("0", "5"), ("4", "-3")]
    small = ["-1", "0", "1", "2", "3", "99"]
    levels = small + ["100000"]
    grid = []
    for group in catalog_names():
        name = catalog_group(group)[0].element_names[-1]
        g = ["--group", group]
        for lit in (x.format(n=name) for x in literals):
            grid.append(["cp", "compare", *g, f"--x={lit}", "--y=-"])
            grid.append(["cp", "mul", *g, f"--x={lit}", f"--y={lit}"])
            grid.append(["aut", "apply", *g, "--word=[]", f"--element={lit}"])
        for k in (x.format(n=name) for x in ks):
            grid.append(["group", "check", *g, f"--k={k}"])
            grid.append(["cp", "enumerate", *g, f"--k={k}", "--count=2"])
        for word in words:
            grid.append(["aut", "apply", *g, f"--word={word}", "--element=0:" + name])
            grid.append(["aut", "verify", *g, f"--word={word}", "--level=3"])
        for c in coords:
            for i0, j0 in ends:
                grid.append(["aut", "alpha", *g, f"--coords={c}", f"--i0={i0}",
                             f"--j0={j0}"])
        for n in small:
            grid.append(["cp", "enumerate", *g, f"--count={n}"])
        for n in levels:
            grid.append(["aut", "verify", *g, "--word=[]", f"--level={n}"])
        tuples = tmp_path / f"{group}.txt"
        tuples.write_text(f"0:{name}\n0:{name}\n")
        for n in small + ["10000000"]:
            grid.append(["az", "run", *g, f"--tuples={tuples}", f"--depth={n}"])
        grid += [["group", "rank", *g], ["qs", "from-group", *g]]
    for name, doc in {**BAD_QS_DOCS, "dimU-24": WIDE_QS_DOC}.items():
        grid += qs_document_argvs(tmp_path, name, doc)
    for i, doc in enumerate(BAD_GROUP_DOCS):
        path = tmp_path / f"group-{i}.json"
        path.write_text(json.dumps(doc))
        for argv in (["group", "check"], ["cp", "enumerate", "--count=2"],
                     ["qs", "from-group"]):
            grid.append([*argv, f"--group={path}"])
    no_k = tmp_path / "group-no-k.json"
    no_k.write_text(json.dumps({"mul": C2_MUL}))
    for argv in (["group", "check"], ["cp", "enumerate", "--count=2"]):
        grid.append([*argv, f"--group={no_k}", "--k="])
    for i, doc in enumerate(BAD_TRIPLES_DOCS):
        path = tmp_path / f"triples-{i}.json"
        path.write_text(json.dumps(doc))
        grid.append(["rado", "check", f"--file={path}"])
    for w1 in ["", ",", "a,,b", "a", " "]:
        for verb in ("subword", "star"):
            grid.append(["wqo", verb, f"--w1={w1}", "--w2=a,,b"])
    for n in small + ["4", "12"]:
        grid.append(["rado", "triples", f"--max-n={n}"])
        grid.append(["rado", "check", f"--max-n={n}"])
    return [(argv, None) for argv in grid] + pinned_rows(tmp_path)


PINNED_GROUP_DOCS = {"mul-empty": {"mul": []}, "mul-ragged": {"mul": [[0, 1], [1]]},
                     "no-inverse": {"mul": [[0, 1], [1, 1]]},
                     "order-257": {"mul": [[0] * 257] * 257},
                     "order-true": {"mul": [[0]], "order": True},
                     "order-float": {"mul": C2_MUL, "order": 2.0}}
C4_QS = {"dimU": 1, "dimV": 1, "Q": ["1"], "gamma": [["0"]]}
# Malformed quadratic-structure documents and what each error line must
# name: the key or shape at fault, never Python's own TypeError text
QS_FAULTS = {
    "not-an-object": (5, "must be a JSON object"),
    "string": ("Q", "must be a JSON object"),
    "no-Q": ({"dimU": 1, "dimV": 1, "gamma": [["0"]]}, "has no 'Q'"),
    "Q-not-a-list": ({**C4_QS, "Q": "1"}, "Q must be a list of bitstrings"),
    "Q-entry-int": ({**C4_QS, "Q": [1]}, "Q, entry 0, is not a bitstring"),
    "gamma-not-a-list": ({**C4_QS, "gamma": 5}, "gamma must be a list of rows"),
    "gamma-row-not-a-list": ({**C4_QS, "gamma": ["0"]}, "gamma row 0 must be a list of bitstrings"),
    "gamma-entry-null": ({**C4_QS, "gamma": [[None]]}, "gamma row 0, entry 0, is not a bitstring"),
    "dimU-5000-digits": ({**C4_QS, "dimU": "9" * 5000}, "dimU must be a non-negative integer"),
}
PINNED_QS_DOCS = {
    "bit-2": {"dimU": 1, "dimV": 1, "Q": ["2"], "gamma": [["0"]]},
    "gamma-asymmetric": {"dimU": 2, "dimV": 1, "Q": ["1", "1"], "gamma": [["0", "1"], ["0", "0"]]},
    "gamma-diagonal": {"dimU": 1, "dimV": 1, "Q": ["1"], "gamma": [["1"]]},
    "Q-degenerate": {"dimU": 1, "dimV": 1, "Q": ["0"], "gamma": [["0"]]},
    **{name: doc for name, (doc, _) in QS_FAULTS.items()},
}
# Entries far longer than an error line shows, in each reader whose error
# line quotes the entry: a 4,000-digit integer (json reads up to 4,300
# digits) and a 5,000-digit string. The line keeps 40 characters of it.
LONG_INT, LONG_DIGITS = int("9" * 4000), "9" * 5000
LONG_ENTRY_DOCS = {
    "word-entry-int": ("word", [[1, LONG_INT]]),
    "word-entry-digits": ("word", [{"beta": LONG_DIGITS}]),
    "word-not-a-list": ("word", {"perm": LONG_DIGITS}),
    "triple-int": ("triples", {"triples": [{**TRIPLE, "c": LONG_INT, "cycle": "x"}]}),
    "triple-digits": ("triples", {"triples": [{**TRIPLE, "c": LONG_DIGITS}]}),
    "qs-dimV-digits": ("qs", {**C4_QS, "dimV": LONG_DIGITS}),
}
LONG_ENTRY_READERS = {"word": ["aut", "verify", "--group=C4", "--word={path}", "--level=2"],
                      "triples": ["rado", "check", "--file={path}"],
                      "qs": ["qs", "to-group", "--file={path}"]}


def long_entry_rows(tmp_path):
    """(argv, 2) for each of LONG_ENTRY_DOCS, read from a file."""
    rows = []
    for name, (reader, doc) in LONG_ENTRY_DOCS.items():
        path = tmp_path / f"long-{name}.json"
        path.write_text(json.dumps(doc))
        rows.append(([a.format(path=path) for a in LONG_ENTRY_READERS[reader]], 2))
    return rows


def pinned_rows(tmp_path):
    """The grid's rows with a pinned exit code: bad group tables, a group
    file with no K, bad or degenerate quadratic structures, a degenerate
    amalgam factor under --verify (falsified, 1) and blank tuple files."""
    rows = []
    for name, doc in PINNED_GROUP_DOCS.items():
        path = tmp_path / f"pinned-{name}.json"
        path.write_text(json.dumps(doc))
        rows.append((["group", "check", f"--group={path}"], 2))
    no_k = tmp_path / "pinned-no-k.json"
    no_k.write_text(json.dumps({"mul": C2_MUL}))
    rows.append((["cp", "enumerate", "--count=2", f"--group={no_k}"], 2))
    for name, doc in PINNED_QS_DOCS.items():
        path = tmp_path / f"pinned-qs-{name}.json"
        path.write_text(json.dumps(doc))
        rows.append((["qs", "to-group", f"--file={path}"], 2))
    good = tmp_path / "pinned-qs-c4.json"
    good.write_text(json.dumps({"dimU": 1, "dimV": 1, "Q": ["1"], "gamma": [["0"]]}))
    degenerate = tmp_path / "pinned-qs-Q-degenerate.json"
    rows.append((["--verify", "qs", "amalgam", f"--left={degenerate}", f"--right={good}"], 1))
    blank = tmp_path / "pinned-blank.txt"
    blank.write_text("\n  \n\n")
    for group in catalog_names():
        rows.append((["az", "run", "--group", group, f"--tuples={blank}"], 2))
    return rows + long_entry_rows(tmp_path)


def test_malformed_grid_never_raises(tmp_path, capsys):
    failures = []
    for argv, pinned in malformed_grid(tmp_path):
        try:
            code = run_command(argv)
        except BaseException as exc:  # a traceback, or argparse rejecting the grid
            failures.append((argv, repr(exc)))
        else:
            # an empty --k names no element: bad input, not the default K
            if code not in (0, 1, 2, 3) or ("--k=" in argv and code != 2) or pinned not in (None, code):
                failures.append((argv, code))
    capsys.readouterr()
    assert not failures


def test_long_entries_give_short_error_lines(tmp_path, capsys):
    for argv, code in long_entry_rows(tmp_path):
        assert run_command(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 160, (argv, err[:200])
        assert "9" * 41 not in err, argv


@pytest.mark.parametrize("name", sorted(QS_FAULTS))
def test_bad_qs_document_names_its_fault(tmp_path, capsys, name):
    doc, fault = QS_FAULTS[name]
    path = tmp_path / "qs.json"
    path.write_text(json.dumps(doc))
    assert run_command(["qs", "to-group", f"--file={path}"]) == 2
    err = capsys.readouterr().err
    assert fault in err and len(err) < 160, err[:200]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run_command(["nope"])
    assert err.value.code == 2


HUGE = "9" * 5000  # past int()'s 4,300-digit limit


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", HUGE, "rado", "triples"],
        ["rado", "triples", "--max-n", HUGE],
        ["rado", "check", "--max-n", HUGE],
        ["cp", "enumerate", "--group", "C4", "--count", HUGE],
        ["aut", "verify", "--group", "Q8", "--word", "[]", "--level", HUGE],
        ["aut", "alpha", "--group", "Q8", "--coords", "1", "--i0", HUGE, "--j0", "0"],
        ["aut", "alpha", "--group", "Q8", "--coords", "1", "--i0", "0", "--j0", HUGE],
        ["az", "run", "--group", "Q8", "--tuples", "family.txt", "--depth", HUGE],
    ],
    ids=["seed", "triples-max-n", "check-max-n", "count", "level", "i0", "j0", "depth"],
)
def test_huge_integer_flag_gives_short_usage_error(capsys, argv):
    # argparse refuses the value; the error line quotes only its start
    with pytest.raises(SystemExit) as err:
        run_command(argv)
    out, errors = capsys.readouterr()
    assert err.value.code == 2 and out == ""
    assert "invalid integer '" + "9" * 40 + "...'" in errors
    assert max(map(len, errors.splitlines())) <= 160, errors[:200]


def test_closed_stdout_keeps_the_verdict_exit_code():
    # the reader takes a few bytes of the 5 KB document and closes the pipe;
    # whether the rest of the write then fails races with the reader, so
    # the run is repeated
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "azenum.cli", "rado", "triples", "--max-n", "12"]
    for _ in range(5):
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b'{\n  "obstr'
        proc.stdout.close()
        _, errors = proc.communicate(timeout=60)
        assert (proc.returncode, errors) == (0, b"")

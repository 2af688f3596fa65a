import json
import random
import time
from pathlib import Path

import pytest

from azenum import cli, rado
from azenum.central_product import MAX_COSETS, MAX_LITERAL_COORD
from azenum.cli import run_command
from azenum.groups import catalog_group, catalog_names, group_to_json
from azenum.quadratic import group_from_qs
from oracles import random_nondegenerate_qs


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
    # D4 has non-central involutions
    code, out = run(capsys, "--json", "group", "check", "--group", "D4")
    assert code == 1
    assert json.loads(out)["class_ok"] is False


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


def test_group_rank_above_cap(tmp_path, capsys):
    # order 128 and rank 4: 341 503 subsets of sizes 1-3, refused up front
    table, _ = group_from_qs(random_nondegenerate_qs(random.Random(1), 4, 3))
    path = tmp_path / "g128.json"
    path.write_text(json.dumps(group_to_json(table)))
    start = time.perf_counter()
    assert run_command(["group", "rank", "--group", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


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
    code, _ = run(capsys, "wqo", "star", "--w1", "b,a", "--w2", "a,a,b")
    assert code == 1


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
    code, _ = run(capsys, "wqo", "pair", "--file", str(stream))
    assert code == 1


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
        '{"triples": [{"n": 4, "b": 5, "c": 39, "cycle": [0, 1, 2, 5]}]}',
        '{"triples": [{"n": 4, "a": 0, "b": "5", "c": 39, "cycle": [0, 1, 2, 5]}]}',
        '{"triples": [{"n": 4, "a": 0, "b": 5, "c": 39, "cycle": 5}]}',
        '{"triples": [{"n": 4, "a": 0, "b": 5, "c": 39, "cycle": [0, 1.5]}]}',
        '{"triples": [7]}',
        '{"triples": 7}',
        "[]",
        '{"triples": [{"n": 4, "a": 0, "b": 5, "c": 39, "cycle": [-1, 1, 2, 5]}]}',
        '{"triples": [{"n": 4, "a": 0, "b": -5, "c": 39, "cycle": [0, 1, 2, 5]}]}',
    ],
    ids=["json", "missing-a", "str-b", "int-cycle", "float-vertex",
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
    path.write_text(json.dumps({"triples": [{"n": 4, "a": 0, **triple}]}))
    assert run_command(["--json", "rado", "check", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("falsified:") and message in err


@pytest.mark.parametrize("cycle, entries", [([0, 1, 2, 5], 4), ([0, 1, 2, 5, 5], 5)])
def test_rado_check_cycle_not_n_vertices(tmp_path, capsys, cycle, entries):
    # n = 5 with a 4-cycle: falsified before the obstruction check, which
    # would report the triple's own 4-cycle as a violation at i = 4
    path = tmp_path / "triples.json"
    triple = {"n": 5, "a": 0, "b": 5, "c": 39, "cycle": cycle}
    path.write_text(json.dumps({"triples": [triple]}))
    assert run_command(["--json", "rado", "check", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("falsified:") and f"4 distinct vertices in {entries} entries" in err


def ladder_cycle_triple(h):
    """A valid triple whose cycle has n = 2h vertices, h <= 12: the vertices
    a_j = 4 + j, whose bits all lie below 4 so that no two are adjacent,
    alternate with b_j = 2^a_j + 2^a_(j+1 mod h), which sees exactly a_j
    and a_(j+1) among them; c is the cycle's characteristic mask."""
    a = [4 + j for j in range(h)]
    vertices = a + [(1 << a[j]) + (1 << a[(j + 1) % h]) for j in range(h)]
    cycle = rado.is_induced_cycle(vertices)
    triple = rado.Triple(2 * h, 0, max(cycle), sum(1 << v for v in cycle), cycle)
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
    # is refused before the obstruction scan and its per-pair report
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
TRIPLE = {"n": 4, "a": 0, "b": 10, "c": 11, "cycle": [0, 1, 2, 3]}
BAD_TRIPLES_DOCS = [3, {}, {"triples": 3}, {"triples": [3]}, {"triples": [{}]},
                    {"triples": [{**TRIPLE, "cycle": "ab"}]},
                    {"triples": [{**TRIPLE, "cycle": [0, 1, 2, True]}]},
                    {"triples": [{**TRIPLE, "n": 4.0}]}, {"triples": [{**TRIPLE, "a": -1}]},
                    {"triples": [{**TRIPLE, "n": 99, "b": 10**8, "c": 10**8 + 1}]}]


def malformed_grid(tmp_path):
    """A fixed grid of malformed and edge values for every option that takes
    an element literal, K, an automorphism word, coordinates, a count, a
    level, a depth, a wqo word or a bound, for every catalog group, and for
    every JSON document reader: group files, quadratic-structure documents
    in `qs to-group` and each `qs amalgam` slot, and `rado check` triples.
    Values go in as `--opt=value`, so argparse reads a leading '-' as part
    of the value. The `az run` rows read a family of two equal members."""
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
    return grid


def test_malformed_grid_never_raises(tmp_path, capsys):
    failures = []
    for argv in malformed_grid(tmp_path):
        try:
            code = run_command(argv)
        except BaseException as exc:  # a traceback, or argparse rejecting the grid
            failures.append((argv, repr(exc)))
        else:
            if code not in (0, 1, 2, 3):
                failures.append((argv, code))
    capsys.readouterr()
    assert not failures


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run_command(["nope"])
    assert err.value.code == 2

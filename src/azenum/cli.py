"""Command-line surface: argparse dispatch, file ingestion, JSON emission.

Each command returns (doc, text, ok): `doc` a JSON-able value or an already
joined string, `text` its text-mode line or None, and `ok` the verdict;
`run_command` alone prints them and picks the exit code.

Exit codes: 0 success; 1 either a printed document whose verdict is false
(a property falsified, nothing found) or a `--verify` re-check that failed,
with nothing printed; 2 bad input; 3 insufficient input (normal for short
tuple families).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .automorphisms import (
    alpha_word,
    apply_word,
    verify_automorphism,
    word_from_json,
    word_to_json,
)
from .az import TupleFamily, run_az
from .central_product import CPContext, format_support, parse_support
from .errors import (
    AzenumError,
    CapacityError,
    FalsificationError,
    InputError,
    InsufficientFamilyError,
    parse_json,
    shown,
)
from .groups import (
    catalog_group,
    catalog_names,
    group_from_json,
    group_to_json,
    is_class_csw,
    make_kgroup,
    rank,
    validate_k,
)
from .quadratic import (
    QuadraticStructure,
    free_amalgam,
    group_from_qs,
    is_nondegenerate,
    qs_from_group,
    qs_from_json,
    qs_to_json,
)
from .rado import build_triples, check_obstruction, triple_from_json
from .wqo import (
    MAX_PAIR_WORDS,
    capped_words,
    find_increasing_pair,
    format_word,
    is_star_embedded,
    is_subword,
    parse_word,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BAD_INPUT = 2
EXIT_INSUFFICIENT = 3


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _read_json(path: str):
    """The JSON document in the file at `path`."""
    with open(path) as fh:
        return parse_json(fh.read(), path)


def _group(args):
    """(table, analysis, k) of `--group`, a catalog name or a group JSON
    file; `--k`, one or more element names or indices, overrides its K."""
    if args.group in catalog_names():
        table, analysis, k = catalog_group(args.group)
    elif os.path.exists(args.group):
        table, analysis, k = group_from_json(_read_json(args.group))
    else:
        raise InputError(
            f"{shown(args.group)!r} is neither a catalog group ({', '.join(catalog_names())}) "
            "nor an existing file"
        )
    if getattr(args, "k", None) is not None:
        items = [item.strip() for item in args.k.split(",")]
        if items == [""]:
            raise InputError("--k names no element")
        k = [int(x) if x.isdecimal() else table.index_of_name(x) for x in items]
    return table, analysis, k


def _context(args) -> CPContext:
    table, analysis, k = _group(args)
    if k is None:
        raise InputError("no K subgroup given (use --k or a file with a 'K' field)")
    return CPContext(make_kgroup(table, analysis, k))


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _one_based(embedding) -> list:
    return [i + 1 for i in embedding.image]


def _load_word_arg(arg):
    """Word JSON given inline or as a file path; an error names at most the
    first 40 characters of an inline word (`shown`)."""
    doc = _read_json(arg) if os.path.exists(arg) else parse_json(arg, f"word {shown(arg)!r}")
    return word_from_json(doc)


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------


def cmd_group_check(args):
    table, analysis, k = _group(args)
    names = table.element_names
    doc = {
        "name": table.name,
        "order": table.order,
        "exponent": analysis.exponent,
        "center": [names[x] for x in analysis.center],
        "commutator_subgroup": [names[x] for x in analysis.commutator_subgroup],
        "involutions": [names[x] for x in analysis.involutions],
        "class_ok": is_class_csw(analysis),
    }
    if k is not None:
        # validate_k rejects out-of-range indices before they are named
        doc["k_valid"] = validate_k(table, analysis, k)
        doc["k"] = [names[x] for x in sorted(k)]
    return doc, None, doc["class_ok"] and doc.get("k_valid", True)


def cmd_group_rank(args):
    table, _, _ = _group(args)
    r = rank(table)
    return {"name": table.name, "rank": r}, f"rank {r}", True


# ---------------------------------------------------------------------------
# qs
# ---------------------------------------------------------------------------


def cmd_qs_from_group(args):
    table, analysis, _ = _group(args)
    return qs_to_json(qs_from_group(table, analysis)), None, True


def cmd_qs_to_group(args):
    qs = qs_from_json(_read_json(args.file))
    table, _ = group_from_qs(qs, name=args.name)
    return group_to_json(table), None, True


def cmd_qs_amalgam(args):
    # without --common the factors share the trivial structure
    left, right, common = (
        qs_from_json(_read_json(path)) if path else QuadraticStructure(0, 0, (), ())
        for path in (args.left, args.right, args.common)
    )
    result = free_amalgam(common, left, right)
    doc = {
        "qs": qs_to_json(result.qs),
        "embedding_left": {"f": list(result.emb1.f), "g": list(result.emb1.g)},
        "embedding_right": {"f": list(result.emb2.f), "g": list(result.emb2.g)},
    }
    if args.verify and not is_nondegenerate(result.qs):
        raise FalsificationError("amalgam is degenerate")
    return doc, None, True


# ---------------------------------------------------------------------------
# cp
# ---------------------------------------------------------------------------


def cmd_cp_enumerate(args):
    ctx = _context(args)
    lines = [
        {
            "index": x,
            "support": [c for c, _ in ctx.minimal_representative(x)],
            "min_rep": format_support(ctx, x),
        }
        for x in ctx.enumerate(args.count)
    ]
    return "\n".join(json.dumps(line, sort_keys=True) for line in lines), None, True


def cmd_cp_compare(args):
    ctx = _context(args)
    c = ctx.compare(parse_support(ctx, args.x), parse_support(ctx, args.y))
    return {"compare": c}, {-1: "lt", 0: "eq", 1: "gt"}[c], True


def cmd_cp_mul(args):
    ctx = _context(args)
    product = ctx.multiply(parse_support(ctx, args.x), parse_support(ctx, args.y))
    literal = format_support(ctx, product)
    return {"product": literal}, literal, True


# ---------------------------------------------------------------------------
# aut
# ---------------------------------------------------------------------------


def cmd_aut_apply(args):
    ctx = _context(args)
    word = _load_word_arg(args.word)
    image = apply_word(ctx, word, parse_support(ctx, args.element))
    literal = format_support(ctx, image)
    return {"image": literal}, literal, True


def cmd_aut_verify(args):
    ctx = _context(args)
    word = _load_word_arg(args.word)
    report = verify_automorphism(ctx, word, args.level, rng=random.Random(args.seed))
    doc = {
        "ok": report.ok,
        "level": report.level,
        "size": report.size,
        "pairs_checked": report.pairs_checked,
        "exhaustive": report.exhaustive,
    }
    if report.failure:
        doc["failure"] = report.failure
    return doc, None, report.ok


def cmd_aut_alpha(args):
    ctx = _context(args)
    try:
        coords = [int(c) for c in args.coords.split(",") if c.strip() != ""]
    except ValueError:
        raise InputError(f"--coords must be comma-separated integers: {shown(args.coords)!r}")
    word = alpha_word(ctx, coords, args.i0, args.j0)
    if args.verify:
        level = max(word.max_coord(), args.i0, args.j0) + 1
        report = verify_automorphism(ctx, word, level, rng=random.Random(args.seed))
        if not report.ok:
            raise FalsificationError(f"word fails verification: {report.failure}")
    return word_to_json(word), None, True


# ---------------------------------------------------------------------------
# wqo
# ---------------------------------------------------------------------------


def cmd_wqo_embed(args):
    """`wqo subword` and `wqo star`: `args.decide` is is_subword or
    is_star_embedded."""
    embedding = args.decide(parse_word(args.w1), parse_word(args.w2))
    if embedding is None:
        return {"embedded": False}, "no embedding", False
    positions = _one_based(embedding)
    text = "embedding ({})".format(",".join(str(p) for p in positions))
    return {"embedded": True, "positions": positions}, text, True


def cmd_wqo_pair(args):
    with open(args.file) as fh:
        words = capped_words(parse_word(line) for line in fh)
    result = find_increasing_pair(words, mode=args.mode)
    if result is None:
        return {"found": False}, "no increasing pair", False
    doc = {
        "found": True,
        "i": result.i,
        "j": result.j,
        "w1": format_word(words[result.i]),
        "w2": format_word(words[result.j]),
        "positions": _one_based(result.embedding),
    }
    return doc, f"pair ({result.i},{result.j}) positions {doc['positions']}", True


# ---------------------------------------------------------------------------
# az
# ---------------------------------------------------------------------------


def _load_tuples(ctx: CPContext, path: str):
    """The family of the file's non-blank lines; CapacityError on the line
    past MAX_PAIR_WORDS, before it or any later line is parsed."""
    members = []
    with open(path) as fh:
        for line in filter(None, map(str.strip, fh)):
            if len(members) == MAX_PAIR_WORDS:
                raise CapacityError(
                    f"a pair search takes at most {MAX_PAIR_WORDS} words, "
                    "one per tuple-file line"
                )
            members.append(tuple(parse_support(ctx, part) for part in line.split(";")))
    if not members:
        raise InputError("tuple file is empty")
    return TupleFamily(ctx, len(members[0]), members)


def cmd_az_run(args):
    ctx = _context(args)
    fam = _load_tuples(ctx, args.tuples)
    cert = run_az(fam, depth=args.depth, seed=args.seed)
    doc = cert.to_json()
    if args.verify:
        again = run_az(fam, depth=args.depth, seed=args.seed).to_json()
        if _dump(again) != _dump(doc):
            raise FalsificationError("certificate is not deterministic")
    return doc, None, cert.ok


# ---------------------------------------------------------------------------
# rado
# ---------------------------------------------------------------------------


def cmd_rado_triples(args):
    triples = build_triples(args.max_n)
    report = check_obstruction(triples)
    doc = {"triples": [t.to_json() for t in triples], "obstruction": report.to_json()}
    if args.verify:
        again = _check_triples(doc, "the emitted triples").to_json()
        if again != doc["obstruction"]:
            raise FalsificationError("the emitted triples re-check to another report")
    return doc, None, report.ok


def _check_triples(doc, source: str):
    """The obstruction report of the triples in `doc`, each re-validated."""
    if not isinstance(doc, dict) or not isinstance(doc.get("triples"), list):
        raise InputError(f"{source} has no 'triples' list")
    return check_obstruction([triple_from_json(d) for d in doc["triples"]])


def cmd_rado_check(args):
    if args.file:
        report = _check_triples(_read_json(args.file), args.file)
    else:
        report = check_obstruction(build_triples(args.max_n))
    return report.to_json(), None, report.ok


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _integer(text: str) -> int:
    """An integer flag's value; a refusal quotes at most `shown(text)`."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {shown(text)!r}") from None


def _add_group_flags(p, k_flag=True):
    p.add_argument("--group", required=True, help="catalog name or group JSON file")
    if k_flag:
        p.add_argument("--k", help="comma-separated K elements (names or indices)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azenum", description="Finite workbench for tuple-enumeration structures"
    )
    parser.add_argument("--seed", type=_integer, default=0, help="seed for sampled checks")
    parser.add_argument("--json", action="store_true", help="force JSON output")
    parser.add_argument(
        "--verify", action="store_true", help="re-validate emitted artifacts"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group").add_subparsers(dest="sub", required=True)
    p = group.add_parser("check")
    _add_group_flags(p)
    p.set_defaults(func=cmd_group_check)
    p = group.add_parser("rank")
    _add_group_flags(p, k_flag=False)
    p.set_defaults(func=cmd_group_rank)

    qs = sub.add_parser("qs").add_subparsers(dest="sub", required=True)
    p = qs.add_parser("from-group")
    _add_group_flags(p, k_flag=False)
    p.set_defaults(func=cmd_qs_from_group)
    p = qs.add_parser("to-group")
    p.add_argument("--file", required=True)
    p.add_argument("--name", default="G(qs)")
    p.set_defaults(func=cmd_qs_to_group)
    p = qs.add_parser("amalgam")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--common", help="shared substructure on leading coordinates")
    p.set_defaults(func=cmd_qs_amalgam)

    cp = sub.add_parser("cp").add_subparsers(dest="sub", required=True)
    p = cp.add_parser("enumerate")
    _add_group_flags(p)
    p.add_argument("--count", type=_integer, required=True)
    p.add_argument("--emit")
    p.set_defaults(func=cmd_cp_enumerate)
    for verb, func in (("compare", cmd_cp_compare), ("mul", cmd_cp_mul)):
        p = cp.add_parser(verb)
        _add_group_flags(p)
        p.add_argument("--x", required=True, help='element literal, e.g. "0:g,2:g3"')
        p.add_argument("--y", required=True)
        p.set_defaults(func=func)

    aut = sub.add_parser("aut").add_subparsers(dest="sub", required=True)
    p = aut.add_parser("apply")
    _add_group_flags(p)
    p.add_argument("--word", required=True, help="word JSON (inline or file)")
    p.add_argument("--element", required=True)
    p.set_defaults(func=cmd_aut_apply)
    p = aut.add_parser("verify")
    _add_group_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--level", type=_integer, required=True)
    p.set_defaults(func=cmd_aut_verify)
    p = aut.add_parser("alpha")
    _add_group_flags(p)
    p.add_argument("--coords", required=True, help="comma-separated coordinates")
    p.add_argument("--i0", type=_integer, required=True)
    p.add_argument("--j0", type=_integer, required=True)
    p.set_defaults(func=cmd_aut_alpha)

    wqo = sub.add_parser("wqo").add_subparsers(dest="sub", required=True)
    for verb, decide in (("subword", is_subword), ("star", is_star_embedded)):
        p = wqo.add_parser(verb)
        p.add_argument("--w1", required=True, help="comma-separated letters")
        p.add_argument("--w2", required=True)
        p.set_defaults(func=cmd_wqo_embed, decide=decide)
    p = wqo.add_parser("pair")
    p.add_argument("--file", required=True, help="one word per line")
    p.add_argument("--mode", choices=["higman", "star"], default="star")
    p.set_defaults(func=cmd_wqo_pair)

    az = sub.add_parser("az").add_subparsers(dest="sub", required=True)
    p = az.add_parser("run")
    _add_group_flags(p)
    p.add_argument("--tuples", required=True, help="one tuple per line, ';'-separated")
    p.add_argument("--depth", type=_integer, default=500)
    p.add_argument("--emit")
    p.set_defaults(func=cmd_az_run)

    rado = sub.add_parser("rado").add_subparsers(dest="sub", required=True)
    p = rado.add_parser("triples")
    p.add_argument("--max-n", type=_integer, default=8, dest="max_n")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_rado_triples)
    p = rado.add_parser("check")
    p.add_argument("--max-n", type=_integer, default=8, dest="max_n")
    p.add_argument("--file", help="previously emitted triples JSON")
    p.set_defaults(func=cmd_rado_check)

    return parser


def run_command(argv) -> int:
    """Run one command line: print its text line, or with `--json` or no
    text line its payload, written first to the `--emit` file if given,
    and exit 0 on a true verdict and 1 on a false one, stdout closed or not."""
    args = build_parser().parse_args(argv)
    try:
        doc, text, ok = args.func(args)
        payload = doc if isinstance(doc, str) else _dump(doc)
        if getattr(args, "emit", None):
            with open(args.emit, "w") as fh:
                fh.write(payload + "\n")
        try:
            print(payload if args.json or text is None else text, flush=True)
        except BrokenPipeError:
            # the reader left: the rest goes to devnull (Python's SIGPIPE recipe)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK if ok else EXIT_FALSIFIED
    except InsufficientFamilyError as exc:
        print(f"insufficient input: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (AzenumError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

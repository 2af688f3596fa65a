"""Command-line surface: argparse dispatch, file ingestion, JSON emission.

Exit codes: 0 success, 1 property falsified / nothing found, 2 bad input,
3 insufficient input (normal for short tuple families).
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
    FalsificationError,
    InputError,
    InsufficientFamilyError,
    parse_json,
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
    file; `--k` (element names or indices) overrides the file's K."""
    if args.group in catalog_names():
        table, analysis, k = catalog_group(args.group)
    elif os.path.exists(args.group):
        table, analysis, k = group_from_json(_read_json(args.group))
    else:
        raise InputError(
            f"{args.group!r} is neither a catalog group ({', '.join(catalog_names())}) "
            "nor an existing file"
        )
    if getattr(args, "k", None):
        items = [item.strip() for item in args.k.split(",")]
        k = [int(x) if x.isdecimal() else table.index_of_name(x) for x in items]
    return table, analysis, k


def _context(args) -> CPContext:
    table, analysis, k = _group(args)
    if k is None:
        raise InputError("no K subgroup given (use --k or a file with a 'K' field)")
    return CPContext(make_kgroup(table, analysis, k))


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit(args, doc, text=None) -> None:
    """Print `text`, or with `--json` or no text the payload: `doc`, as JSON
    unless it is a string. `--emit` writes the payload to a file too."""
    payload = doc if isinstance(doc, str) else _dump(doc)
    if getattr(args, "emit", None):
        with open(args.emit, "w") as fh:
            fh.write(payload + "\n")
    if args.json or text is None:
        print(payload)
    else:
        print(text)


def _one_based(embedding) -> list:
    return [i + 1 for i in embedding.image]


def _load_word_arg(arg):
    """Word JSON given inline or as a file path; an error names at most the
    first 40 characters of an inline word."""
    shown = arg if len(arg) <= 40 else arg[:40] + "..."
    doc = _read_json(arg) if os.path.exists(arg) else parse_json(arg, f"word {shown!r}")
    return word_from_json(doc)


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------


def cmd_group_check(args) -> int:
    table, analysis, k = _group(args)
    names = table.element_names
    doc = {
        "name": table.name,
        "order": table.order,
        "exponent": analysis.exponent,
        "center": [names[x] for x in analysis.center],
        "commutator_subgroup": [names[x] for x in analysis.commutator_subgroup],
        "involutions": [names[x] for x in analysis.involutions],
        "class_ok": is_class_csw(table, analysis),
    }
    if k is not None:
        # validate_k rejects out-of-range indices before they are named
        doc["k_valid"] = validate_k(table, analysis, k)
        doc["k"] = [names[x] for x in sorted(k)]
    _emit(args, doc)
    ok = doc["class_ok"] and doc.get("k_valid", True)
    return EXIT_OK if ok else EXIT_FALSIFIED


def cmd_group_rank(args) -> int:
    table, _, _ = _group(args)
    r = rank(table)
    _emit(args, {"name": table.name, "rank": r}, f"rank {r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# qs
# ---------------------------------------------------------------------------


def cmd_qs_from_group(args) -> int:
    table, analysis, _ = _group(args)
    _emit(args, qs_to_json(qs_from_group(table, analysis)))
    return EXIT_OK


def cmd_qs_to_group(args) -> int:
    qs = qs_from_json(_read_json(args.file))
    table, _ = group_from_qs(qs, name=args.name)
    _emit(args, group_to_json(table))
    return EXIT_OK


def cmd_qs_amalgam(args) -> int:
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
    _emit(args, doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cp
# ---------------------------------------------------------------------------


def cmd_cp_enumerate(args) -> int:
    ctx = _context(args)
    lines = [
        {
            "index": x,
            "support": [c for c, _ in ctx.minimal_representative(x)],
            "min_rep": format_support(ctx, x),
        }
        for x in ctx.enumerate(args.count)
    ]
    _emit(args, "\n".join(json.dumps(line, sort_keys=True) for line in lines))
    return EXIT_OK


def cmd_cp_compare(args) -> int:
    ctx = _context(args)
    c = ctx.compare(parse_support(ctx, args.x), parse_support(ctx, args.y))
    _emit(args, {"compare": c}, {-1: "lt", 0: "eq", 1: "gt"}[c])
    return EXIT_OK


def cmd_cp_mul(args) -> int:
    ctx = _context(args)
    product = ctx.multiply(parse_support(ctx, args.x), parse_support(ctx, args.y))
    literal = format_support(ctx, product)
    _emit(args, {"product": literal}, literal)
    return EXIT_OK


# ---------------------------------------------------------------------------
# aut
# ---------------------------------------------------------------------------


def cmd_aut_apply(args) -> int:
    ctx = _context(args)
    word = _load_word_arg(args.word)
    image = apply_word(ctx, word, parse_support(ctx, args.element))
    literal = format_support(ctx, image)
    _emit(args, {"image": literal}, literal)
    return EXIT_OK


def cmd_aut_verify(args) -> int:
    ctx = _context(args)
    word = _load_word_arg(args.word)
    report = verify_automorphism(
        ctx, word, args.level, rng=random.Random(args.seed)
    )
    doc = {
        "ok": report.ok,
        "level": report.level,
        "size": report.size,
        "pairs_checked": report.pairs_checked,
        "exhaustive": report.exhaustive,
    }
    if report.failure:
        doc["failure"] = report.failure
    _emit(args, doc)
    return EXIT_OK if report.ok else EXIT_FALSIFIED


def cmd_aut_alpha(args) -> int:
    ctx = _context(args)
    try:
        coords = [int(c) for c in args.coords.split(",") if c.strip() != ""]
    except ValueError:
        raise InputError(f"--coords must be comma-separated integers: {args.coords!r}")
    word = alpha_word(ctx, coords, args.i0, args.j0)
    if args.verify:
        level = max(word.max_coord(), args.i0, args.j0) + 1
        report = verify_automorphism(ctx, word, level, rng=random.Random(args.seed))
        if not report.ok:
            raise FalsificationError(f"word fails verification: {report.failure}")
    _emit(args, word_to_json(word))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wqo
# ---------------------------------------------------------------------------


def _embedding_result(args, embedding) -> int:
    if embedding is None:
        _emit(args, {"embedded": False}, "no embedding")
        return EXIT_FALSIFIED
    positions = _one_based(embedding)
    _emit(
        args,
        {"embedded": True, "positions": positions},
        "embedding ({})".format(",".join(str(p) for p in positions)),
    )
    return EXIT_OK


def cmd_wqo_subword(args) -> int:
    return _embedding_result(args, is_subword(parse_word(args.w1), parse_word(args.w2)))


def cmd_wqo_star(args) -> int:
    return _embedding_result(
        args, is_star_embedded(parse_word(args.w1), parse_word(args.w2))
    )


def cmd_wqo_pair(args) -> int:
    with open(args.file) as fh:
        words = [parse_word(line) for line in fh]
    result = find_increasing_pair(words, mode=args.mode)
    if result is None:
        _emit(args, {"found": False}, "no increasing pair")
        return EXIT_FALSIFIED
    doc = {
        "found": True,
        "i": result.i,
        "j": result.j,
        "w1": format_word(words[result.i]),
        "w2": format_word(words[result.j]),
        "positions": _one_based(result.embedding),
    }
    _emit(args, doc, f"pair ({result.i},{result.j}) positions {doc['positions']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# az
# ---------------------------------------------------------------------------


def _load_tuples(ctx: CPContext, path: str):
    members = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            members.append(
                tuple(parse_support(ctx, part) for part in line.split(";"))
            )
    if not members:
        raise InputError("tuple file is empty")
    return TupleFamily(ctx, len(members[0]), members)


def cmd_az_run(args) -> int:
    ctx = _context(args)
    fam = _load_tuples(ctx, args.tuples)
    cert = run_az(fam, depth=args.depth, seed=args.seed)
    doc = cert.to_json()
    if args.verify:
        again = run_az(fam, depth=args.depth, seed=args.seed).to_json()
        if _dump(again) != _dump(doc):
            raise FalsificationError("certificate is not deterministic")
    _emit(args, doc)
    return EXIT_OK if cert.ok else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# rado
# ---------------------------------------------------------------------------


def cmd_rado_triples(args) -> int:
    triples = build_triples(args.max_n)
    report = check_obstruction(triples)
    doc = {
        "triples": [t.to_json() for t in triples],
        "obstruction": report.to_json(),
    }
    if args.verify:
        _check_triples(doc, "the emitted triples")
    _emit(args, doc)
    return EXIT_OK if report.ok else EXIT_FALSIFIED


def _check_triples(doc, source: str):
    """The obstruction report of the triples in `doc`, each re-validated."""
    if not isinstance(doc, dict) or not isinstance(doc.get("triples"), list):
        raise InputError(f"{source} has no 'triples' list")
    return check_obstruction([triple_from_json(d) for d in doc["triples"]])


def cmd_rado_check(args) -> int:
    if args.file:
        report = _check_triples(_read_json(args.file), args.file)
    else:
        report = check_obstruction(build_triples(args.max_n))
    _emit(args, report.to_json())
    return EXIT_OK if report.ok else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_group_flags(p, k_flag=True):
    p.add_argument("--group", required=True, help="catalog name or group JSON file")
    if k_flag:
        p.add_argument("--k", help="comma-separated K elements (names or indices)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azenum", description="Finite workbench for tuple-enumeration structures"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
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
    p.add_argument("--count", type=int, required=True)
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
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_aut_verify)
    p = aut.add_parser("alpha")
    _add_group_flags(p)
    p.add_argument("--coords", required=True, help="comma-separated coordinates")
    p.add_argument("--i0", type=int, required=True)
    p.add_argument("--j0", type=int, required=True)
    p.set_defaults(func=cmd_aut_alpha)

    wqo = sub.add_parser("wqo").add_subparsers(dest="sub", required=True)
    for verb, func in (("subword", cmd_wqo_subword), ("star", cmd_wqo_star)):
        p = wqo.add_parser(verb)
        p.add_argument("--w1", required=True, help="comma-separated letters")
        p.add_argument("--w2", required=True)
        p.set_defaults(func=func)
    p = wqo.add_parser("pair")
    p.add_argument("--file", required=True, help="one word per line")
    p.add_argument("--mode", choices=["higman", "star"], default="star")
    p.set_defaults(func=cmd_wqo_pair)

    az = sub.add_parser("az").add_subparsers(dest="sub", required=True)
    p = az.add_parser("run")
    _add_group_flags(p)
    p.add_argument("--tuples", required=True, help="one tuple per line, ';'-separated")
    p.add_argument("--depth", type=int, default=500)
    p.add_argument("--emit")
    p.set_defaults(func=cmd_az_run)

    rado = sub.add_parser("rado").add_subparsers(dest="sub", required=True)
    p = rado.add_parser("triples")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_rado_triples)
    p = rado.add_parser("check")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--file", help="previously emitted triples JSON")
    p.set_defaults(func=cmd_rado_check)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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

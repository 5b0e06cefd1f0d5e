"""Command-line front end.

Graph arguments accept a file path, ``-`` for stdin, or a family spec such as
``path:7``, ``kab:3,4``, ``t-graph:6``, ``grid:5,5`` or ``perm-graph:(2,1)``.
Exit codes: 0 all pass, 1 any failure, 2 usage or parse error or a file that
cannot be read or written, 3 undecided outcomes without failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from ..graphs import (
    Bipartition,
    Graph,
    GraphParseError,
    _canonical_int,
    find_bipartition,
    parse_graph,
    serialize_graph,
)
from ..matching import (
    StepBudgetExceeded,
    find_induced_embedding,
    has_path_subgraph,
    is_free,
)
from ..perms import (
    compose,
    contains_pattern,
    format_permutation,
    inverse,
    is_convex,
    parse_permutation,
)
from ..families import PERM_FAMILIES, build_family
from ..structure import (
    decompose,
    find_biconvex_order,
    format_letter,
    format_tree,
    letter_representation_grid,
    verify_letter,
)
from .enumeration import MAX_VERTICES
from .suites import DEFAULT_BUDGET, SUITE_NAMES, SuiteOptions, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_PIPE = 141


def _build_family(name: str, args: list[str]) -> tuple[Graph, Bipartition | None]:
    if name == "perm-graph":
        return build_family(name, *map(parse_permutation, args))
    try:
        params = [_canonical_int(a) for a in args]
    except ValueError:
        raise ValueError(f"family {name} parameters must be integers in canonical form") from None
    return build_family(name, *params)


_FAMILY_SPEC = re.compile(r"^([a-z0-9-]+)(?::(.*))?$")


def _load_graph(spec: str) -> tuple[Graph, Bipartition | None]:
    if spec == "-":
        return parse_graph(sys.stdin.read())
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    m = _FAMILY_SPEC.match(spec)
    if m:
        name = m.group(1)
        raw = m.group(2)
        args = raw.split(",") if raw else []
        if name == "perm-graph" and raw:
            args = [raw]
        return _build_family(name, args)
    raise ValueError(f"cannot read graph from {spec!r}: no such file or family")


def _cmd_gen(args) -> int:
    text = serialize_graph(*_build_family(args.family, args.params))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# perm operation -> (permutation argument count, answer text)
_PERM_OPS = {
    "compose": (2, lambda outer, inner: format_permutation(compose(outer, inner))),
    "inverse": (1, lambda p: format_permutation(inverse(p))),
    "contains": (2, lambda host, pattern: "yes" if contains_pattern(host, pattern) else "no"),
    "convex": (1, lambda p: "yes" if is_convex(p) else "no"),
}


def _cmd_perm(args) -> int:
    op, rest = args.op, args.args
    if op in PERM_FAMILIES:
        if len(rest) != 1:
            raise ValueError(f"perm {op} expects one size argument")
        print(format_permutation(PERM_FAMILIES[op](_canonical_int(rest[0]))))
        return EXIT_OK
    count, answer = _PERM_OPS[op]
    if len(rest) != count:
        raise ValueError(f"perm {op} expects {count} permutation argument(s)")
    print(answer(*map(parse_permutation, rest)))
    return EXIT_OK


def _cmd_check_free(args) -> int:
    g, _ = _load_graph(args.graph)
    forbidden = [_load_graph(spec)[0] for spec in args.forbid]
    result = is_free(g, forbidden, budget=args.budget)
    if result.free:
        print("ok free")
        return EXIT_OK
    mapping = " ".join(str(x) for x in result.witness.mapping)
    print(f"FAIL pattern {result.pattern_index} embeds: {mapping}")
    return EXIT_FAIL


def _cmd_embed(args) -> int:
    pattern, _ = _load_graph(args.pattern)
    host, _ = _load_graph(args.host)
    emb = find_induced_embedding(pattern, host, budget=args.budget)
    if emb is None:
        print("none")
        return EXIT_FAIL
    print(" ".join(f"{i + 1}->{x}" for i, x in enumerate(emb.mapping)))
    return EXIT_OK


def _cmd_paths(args) -> int:
    g, _ = _load_graph(args.graph)
    print("yes" if has_path_subgraph(g, args.k, budget=args.budget) else "no")
    return EXIT_OK


def _load_bipartite(spec: str) -> tuple[Graph, Bipartition | None]:
    """The graph with its own bipartition, else its 2-colouring; the
    bipartition is None, after a FAIL line, when the graph has neither."""
    g, b = _load_graph(spec)
    if b is None:
        b = find_bipartition(g)
        if b is None:
            print("FAIL graph is not bipartite")
    return g, b


def _cmd_decompose(args) -> int:
    g, b = _load_bipartite(args.graph)
    if b is None:
        return EXIT_FAIL
    tree = decompose(g, b)
    if tree is None:
        print("none")
        return EXIT_FAIL
    print(format_tree(tree))
    return EXIT_OK


def _cmd_letter(args) -> int:
    rep = letter_representation_grid(args.k, args.m)
    sys.stdout.write(format_letter(rep))
    if args.verify is not None:
        g, _ = _load_graph(args.verify)
        if verify_letter(rep, g):
            print("ok decoder-consistent")
            return EXIT_OK
        print("FAIL decoder mismatch")
        return EXIT_FAIL
    return EXIT_OK


def _cmd_biconvex(args) -> int:
    g, b = _load_bipartite(args.graph)
    if b is None:
        return EXIT_FAIL
    found = find_biconvex_order(g, b)
    if found is None:
        print("none")
        return EXIT_FAIL
    order_a, order_b = found
    print("A: " + " ".join(map(str, order_a)))
    print("B: " + " ".join(map(str, order_b)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {args.suite!r}")
    opts = SuiteOptions(
        budget=args.budget,
        lemma_key_max=args.nmax,
        lemma_reduction_max=args.reduction_nmax,
        workers=args.workers,
    )
    any_fail = any_undecided = False
    summaries = []
    for name in names:
        report = run_suite(name, opts)
        for verdict in report.verdicts:
            line = f"{verdict.status} {report.suite}/{verdict.case}"
            if verdict.status == "FAIL" and verdict.witness_text is not None:
                fname = f"{report.suite}__{verdict.case}".replace("/", "__") + ".txt"
                os.makedirs(args.witness_dir, exist_ok=True)
                witness_path = os.path.join(args.witness_dir, fname)
                with open(witness_path, "w", encoding="utf-8") as fh:
                    fh.write(verdict.witness_text)
                line += f" {witness_path}"
            if verdict.note and args.verbose:
                line += f"  # {verdict.note}"
            print(line)
        summaries.append(report.summary())
        print(json.dumps(report.summary()))
        any_fail = any_fail or report.failed > 0
        any_undecided = any_undecided or report.undecided > 0
    if len(names) > 1:
        total = {
            "suites": len(summaries),
            "cases": sum(s["cases"] for s in summaries),
            "ok": sum(s["ok"] for s in summaries),
            "fail": sum(s["fail"] for s in summaries),
            "undecided": sum(s["undecided"] for s in summaries),
        }
        print(json.dumps(total))
    if any_fail:
        return EXIT_FAIL
    if any_undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


def _integer(text: str) -> int:
    """An integer argument, read in canonical decimal form like the graph text:
    no ``+``, leading zero, ``_`` or non-ASCII digit.  Its range is the
    library's to check (``graphs._int_in``): a ``--budget`` below 0, say,
    fails in the search's own check, before the search starts."""
    try:
        return _canonical_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer in canonical form: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipkit",
        description="bipartite graph families, exact induced-subgraph search, "
        "and desk-scale verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a named graph family in text form")
    p_gen.add_argument("family")
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=_cmd_gen)

    p_perm = sub.add_parser("perm", help="permutation operations")
    p_perm.add_argument(
        "op", choices=[*_PERM_OPS, *PERM_FAMILIES]
    )
    p_perm.add_argument("args", nargs="*")
    p_perm.set_defaults(fn=_cmd_perm)

    p_check = sub.add_parser("check", help="freeness checks")
    check_sub = p_check.add_subparsers(dest="check_op", required=True)
    p_free = check_sub.add_parser("free", help="test H-freeness for each forbidden graph")
    p_free.add_argument("graph")
    p_free.add_argument("--forbid", nargs="+", required=True)
    p_free.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p_free.set_defaults(fn=_cmd_check_free)

    p_embed = sub.add_parser("embed", help="find an induced embedding PATTERN -> HOST")
    p_embed.add_argument("pattern")
    p_embed.add_argument("host")
    p_embed.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p_embed.set_defaults(fn=_cmd_embed)

    p_paths = sub.add_parser("paths", help="test for a k-vertex path subgraph")
    p_paths.add_argument("graph")
    p_paths.add_argument("k", type=_integer)
    p_paths.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p_paths.set_defaults(fn=_cmd_paths)

    p_dec = sub.add_parser("decompose", help="build a union/join/skew tree over K1 leaves")
    p_dec.add_argument("graph")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_letter = sub.add_parser("letter", help="letter representation of the universal grid")
    letter_sub = p_letter.add_subparsers(dest="letter_op", required=True)
    p_lgrid = letter_sub.add_parser("grid")
    p_lgrid.add_argument("k", type=_integer)
    p_lgrid.add_argument("m", type=_integer)
    p_lgrid.add_argument("--verify", default=None)
    p_lgrid.set_defaults(fn=_cmd_letter)

    p_bic = sub.add_parser("biconvex", help="find a biconvex order pair")
    p_bic.add_argument("graph")
    p_bic.set_defaults(fn=_cmd_biconvex)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help="one of: " + ", ".join(SUITE_NAMES) + ", all")
    defaults = SuiteOptions()
    p_ver.add_argument("--budget", type=_integer, default=defaults.budget)
    p_ver.add_argument(
        "--nmax",
        type=_integer,
        default=defaults.lemma_key_max,
        help=f"lemma-key upper vertex count, default %(default)s (9..{MAX_VERTICES})",
    )
    p_ver.add_argument(
        "--reduction-nmax",
        type=_integer,
        default=defaults.lemma_reduction_max,
        help=f"lemma-reduction upper vertex count (4..{MAX_VERTICES})",
    )
    p_ver.add_argument("--workers", type=_integer, default=defaults.workers)
    p_ver.add_argument("--witness-dir", default="witnesses")
    p_ver.add_argument("--verbose", action="store_true")
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: every ``main`` call reads
    it, and parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        try:
            status = args.fn(args)
        except StepBudgetExceeded:
            # raised by check free, embed and paths; suites turn it into UNDECIDED cases
            print("UNDECIDED step budget exhausted")
            status = EXIT_UNDECIDED
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader left (``| head -1``): no message, and stdout points at
        # devnull so the flush at exit stays quiet; 141 is what a shell
        # reports for a tool that SIGPIPE ends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # an OSError names the file it could not read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

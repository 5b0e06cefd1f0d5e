"""Command-line front end.

Graph arguments accept a file path, ``-`` for stdin, or a family spec such as
``path:7``, ``kab:3,4``, ``t-graph:6``, ``grid:5,5`` or ``perm-graph:(2,1)``.
Exit codes: 0 all pass, 1 any failure, 2 usage or parse error, 3 undecided
outcomes without failures.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from ..graphs import (
    Bipartition,
    Graph,
    GraphParseError,
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
    mu_star,
    parse_permutation,
    permutation_graph,
    rho_star,
    star_perm_S,
    star_perm_T,
)
from ..families import (
    complete,
    complete_bipartite,
    cycle,
    h_antichain,
    p_tilde,
    path,
    s123,
    s_graph_star,
    sun1,
    sun4,
    t_graph_star,
    two_p3,
    universal_grid,
)
from ..structure import (
    decompose,
    find_biconvex_order,
    format_letter,
    format_tree,
    letter_representation_grid,
    verify_letter,
)
from .suites import SUITE_NAMES, SuiteOptions, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


class UsageError(Exception):
    pass


def _build_family(name: str, args: list[str]) -> tuple[Graph, Bipartition | None]:
    def one_int(expected: int = 1) -> list[int]:
        if len(args) != expected:
            raise UsageError(f"family {name} expects {expected} integer parameter(s)")
        try:
            return [int(a) for a in args]
        except ValueError:
            raise UsageError(f"family {name} parameters must be integers") from None

    try:
        if name == "path":
            return path(*one_int()), None
        if name == "cycle":
            return cycle(*one_int()), None
        if name == "complete":
            return complete(*one_int()), None
        if name == "kab":
            a, b = one_int(2)
            g = complete_bipartite(a, b)
            return g, Bipartition.of(set(range(1, a + 1)), set(range(a + 1, a + b + 1)))
        if name == "sun4":
            return sun4(), None
        if name == "sun1":
            return sun1(), None
        if name == "s123":
            return s123(), None
        if name == "two-p3":
            return two_p3(), None
        if name == "h":
            return h_antichain(*one_int()), None
        if name == "p-tilde":
            k = one_int()[0]
            g = p_tilde(k)
            odd = {v for v in g.vertices() if v % 2 == 1}
            return g, Bipartition.of(odd, set(g.vertices()) - odd)
        if name == "t-graph":
            layout = t_graph_star(*one_int())
            return layout.graph, layout.bipartition
        if name == "s-graph":
            layout = s_graph_star(*one_int())
            return layout.graph, layout.bipartition
        if name == "grid":
            k, m = one_int(2)
            return universal_grid(k, m)
        if name == "perm-graph":
            if len(args) != 1:
                raise UsageError("perm-graph expects one permutation argument")
            return permutation_graph(parse_permutation(args[0])), None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    raise UsageError(f"unknown family {name!r}")


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
        args = [a for a in (raw.split(",") if raw else []) if a != ""]
        if name == "perm-graph" and raw:
            args = [raw]
        return _build_family(name, args)
    raise UsageError(f"cannot read graph from {spec!r}: no such file or family")


def _emit_graph(g: Graph, b: Bipartition | None, out: str | None) -> None:
    text = serialize_graph(g, b)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    g, b = _build_family(args.family, args.params)
    _emit_graph(g, b, args.out)
    return EXIT_OK


def _cmd_perm(args) -> int:
    op = args.op
    rest = args.args
    if op in ("star-t", "star-s", "rho", "mu"):
        if len(rest) != 1:
            raise UsageError(f"perm {op} expects one size argument")
        n = int(rest[0])
        builder = {
            "star-t": star_perm_T,
            "star-s": star_perm_S,
            "rho": rho_star,
            "mu": mu_star,
        }[op]
        print(format_permutation(builder(n)))
        return EXIT_OK
    if op == "compose":
        if len(rest) != 2:
            raise UsageError("perm compose expects two permutations")
        outer, inner = parse_permutation(rest[0]), parse_permutation(rest[1])
        print(format_permutation(compose(outer, inner)))
        return EXIT_OK
    if op == "inverse":
        if len(rest) != 1:
            raise UsageError("perm inverse expects one permutation")
        print(format_permutation(inverse(parse_permutation(rest[0]))))
        return EXIT_OK
    if op == "contains":
        if len(rest) != 2:
            raise UsageError("perm contains expects HOST PATTERN")
        host, pat = parse_permutation(rest[0]), parse_permutation(rest[1])
        result = contains_pattern(host, pat)
        print("yes" if result else "no")
        return EXIT_OK
    if op == "convex":
        if len(rest) != 1:
            raise UsageError("perm convex expects one permutation")
        print("yes" if is_convex(parse_permutation(rest[0])) else "no")
        return EXIT_OK
    raise UsageError(f"unknown perm operation {op!r}")


def _cmd_check_free(args) -> int:
    g, _ = _load_graph(args.graph)
    forbidden = [_load_graph(spec)[0] for spec in args.forbid]
    try:
        result = is_free(g, forbidden, budget=args.budget)
    except StepBudgetExceeded:
        print("UNDECIDED step budget exhausted")
        return EXIT_UNDECIDED
    if result.free:
        print("ok free")
        return EXIT_OK
    mapping = " ".join(str(x) for x in result.witness.mapping)
    print(f"FAIL pattern {result.pattern_index} embeds: {mapping}")
    return EXIT_FAIL


def _cmd_embed(args) -> int:
    pattern, _ = _load_graph(args.pattern)
    host, _ = _load_graph(args.host)
    try:
        emb = find_induced_embedding(pattern, host, budget=args.budget)
    except StepBudgetExceeded:
        print("UNDECIDED step budget exhausted")
        return EXIT_UNDECIDED
    if emb is None:
        print("none")
        return EXIT_FAIL
    print(" ".join(f"{i + 1}->{x}" for i, x in enumerate(emb.mapping)))
    return EXIT_OK


def _cmd_paths(args) -> int:
    g, _ = _load_graph(args.graph)
    try:
        found = has_path_subgraph(g, args.k, budget=args.budget)
    except StepBudgetExceeded:
        print("UNDECIDED step budget exhausted")
        return EXIT_UNDECIDED
    print("yes" if found else "no")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g, b = _load_graph(args.graph)
    if b is None:
        b = find_bipartition(g)
        if b is None:
            print("FAIL graph is not bipartite")
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
    g, b = _load_graph(args.graph)
    if b is None:
        b = find_bipartition(g)
        if b is None:
            print("FAIL graph is not bipartite")
            return EXIT_FAIL
    try:
        found = find_biconvex_order(g, b, guard=args.guard)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if found is None:
        print("none")
        return EXIT_FAIL
    order_a, order_b = found
    print("A: " + " ".join(map(str, order_a)))
    print("B: " + " ".join(map(str, order_b)))
    return EXIT_OK


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"pair must look like '6,8', got {text!r}") from None
    return i, j


def _cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite {args.suite!r}")
    opts = SuiteOptions(
        budget=args.budget,
        lemma_key_max=args.nmax,
        lemma_reduction_max=args.reduction_nmax,
        workers=args.workers,
        t_pairs=((6, 8),) + tuple(_parse_pair(p) for p in args.t_pair),
        s_pairs=((8, 10),) + tuple(_parse_pair(p) for p in args.s_pair),
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
                verdict.witness_file = witness_path
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
        "op", choices=["compose", "inverse", "contains", "convex", "star-t", "star-s", "rho", "mu"]
    )
    p_perm.add_argument("args", nargs="*")
    p_perm.set_defaults(fn=_cmd_perm)

    p_check = sub.add_parser("check", help="freeness checks")
    check_sub = p_check.add_subparsers(dest="check_op", required=True)
    p_free = check_sub.add_parser("free", help="test H-freeness for each forbidden graph")
    p_free.add_argument("graph")
    p_free.add_argument("--forbid", nargs="+", required=True)
    p_free.add_argument("--budget", type=int, default=None)
    p_free.set_defaults(fn=_cmd_check_free)

    p_embed = sub.add_parser("embed", help="find an induced embedding PATTERN -> HOST")
    p_embed.add_argument("pattern")
    p_embed.add_argument("host")
    p_embed.add_argument("--budget", type=int, default=None)
    p_embed.set_defaults(fn=_cmd_embed)

    p_paths = sub.add_parser("paths", help="test for a k-vertex path subgraph")
    p_paths.add_argument("graph")
    p_paths.add_argument("k", type=int)
    p_paths.add_argument("--budget", type=int, default=None)
    p_paths.set_defaults(fn=_cmd_paths)

    p_dec = sub.add_parser("decompose", help="build a union/join/skew tree over K1 leaves")
    p_dec.add_argument("graph")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_letter = sub.add_parser("letter", help="letter representation of the universal grid")
    letter_sub = p_letter.add_subparsers(dest="letter_op", required=True)
    p_lgrid = letter_sub.add_parser("grid")
    p_lgrid.add_argument("k", type=int)
    p_lgrid.add_argument("m", type=int)
    p_lgrid.add_argument("--verify", default=None)
    p_lgrid.set_defaults(fn=_cmd_letter)

    p_bic = sub.add_parser("biconvex", help="search for a biconvex order pair")
    p_bic.add_argument("graph")
    p_bic.add_argument("--guard", type=int, default=8)
    p_bic.set_defaults(fn=_cmd_biconvex)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help="one of: " + ", ".join(SUITE_NAMES) + ", all")
    p_ver.add_argument("--budget", type=int, default=10**9)
    p_ver.add_argument("--nmax", type=int, default=11, help="lemma-key upper vertex count (9..12)")
    p_ver.add_argument(
        "--reduction-nmax", type=int, default=10, help="lemma-reduction upper vertex count (4..12)"
    )
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--witness-dir", default="witnesses")
    p_ver.add_argument("--t-pair", action="append", default=[], help="extra T pair, e.g. 8,10")
    p_ver.add_argument("--s-pair", action="append", default=[], help="extra S pair, e.g. 10,12")
    p_ver.add_argument("--verbose", action="store_true")
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from bipkit.graphs import parse_graph
from bipkit.families import path, universal_grid
from bipkit.harness import cli, suites
from bipkit.harness.suites import (
    DEFAULT_BUDGET,
    LEMMAS,
    SUITE_NAMES,
    SuiteOptions,
    antichain_check,
    brute_grid_permutation,
    make_witness,
    reverify_witness,
    run_suite,
    _case_pair,
    _exhaustive,
    _member,
    _placement_degree,
    _universe,
)
from bipkit.matching import are_isomorphic
from bipkit.perms import Permutation, permutation_graph
from bipkit.structure import format_tree

PINNED_VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "verify_verdicts.txt"


def test_antichain_check_families():
    report = antichain_check("H", [1, 2, 3, 4])
    assert report.failed == 0 and report.undecided == 0
    assert len(report.verdicts) == 12
    report = antichain_check("permT", [6, 8])
    assert report.failed == 0
    report = antichain_check("permS", [8, 10])
    assert report.failed == 0
    with pytest.raises(ValueError):
        antichain_check("nope", [1, 2])


def test_failing_case_produces_reverifiable_witness():
    # a member trivially contains itself, so an equal pair must fail loudly
    verdict = _case_pair("self", "star-t", 6, 6, None)
    assert verdict.status == "FAIL"
    assert reverify_witness(verdict.witness_text)

    verdict = _case_pair("self", "h", 2, 2, None)
    assert verdict.status == "FAIL"
    assert reverify_witness(verdict.witness_text)


def test_witness_kinds_reverify():
    from bipkit.graphs import find_bipartition, serialize_graph
    from bipkit.families import s123, complete_bipartite

    # a random tree recomposes into the closure class, so it is no counterexample
    tree = suites.random_leaf_tree(random.Random(2), max_leaves=16)
    assert not reverify_witness(make_witness("tree-not-free", {"tree": format_tree(tree)}))

    good = make_witness(
        "perm-contain", {"host": "(2,3,1)", "pattern": "(1,2)"}
    )
    assert reverify_witness(good)
    stale = make_witness(
        "perm-contain", {"host": "(1,2,3)", "pattern": "(2,1)"}
    )
    assert not reverify_witness(stale)

    emb = make_witness(
        "embedding",
        {
            "pattern": serialize_graph(path(2)).rstrip(),
            "host": serialize_graph(path(3)).rstrip(),
            "map": "1 2",
        },
    )
    assert reverify_witness(emb)
    bad_emb = make_witness(
        "embedding",
        {
            "pattern": serialize_graph(path(2)).rstrip(),
            "host": serialize_graph(path(3)).rstrip(),
            "map": "1 3",
        },
    )
    assert not reverify_witness(bad_emb)
    # non-integer ids name the witness kind and the section
    not_ids = make_witness(
        "embedding",
        {
            "pattern": serialize_graph(path(2)).rstrip(),
            "host": serialize_graph(path(3)).rstrip(),
            "map": "1 x",
        },
    )
    with pytest.raises(ValueError, match="'embedding' section @map holds a non-integer id"):
        reverify_witness(not_ids)
    p4 = serialize_graph(path(4), find_bipartition(path(4))).rstrip()
    orders = {"order_a": "1 3", "order_b": "2 4"}
    assert reverify_witness(make_witness("biconvex-orders-found", {"graph": p4, **orders}))
    not_order = make_witness("biconvex-orders-found", {"graph": p4, **orders, "order_b": "2 y"})
    with pytest.raises(ValueError, match="section @order_b holds a non-integer id"):
        reverify_witness(not_order)
    # a biconvex witness needs the parts: a graph with no b line names the section
    no_parts = serialize_graph(path(4)).rstrip()
    for kind in ("biconvex-orders-found", "biconvex-orders-rejected"):
        unsplit = make_witness(kind, {"graph": no_parts, **orders})
        with pytest.raises(ValueError, match=f"'{kind}' section @graph has no bipartition"):
            reverify_witness(unsplit)

    # a graph that is (P7,C4)-free and has no 9-vertex path does NOT re-verify
    not_p9 = make_witness("graph-p9", {"graph": serialize_graph(s123()).rstrip()})
    assert not reverify_witness(not_p9)
    # K_{5,4} has a 9-vertex path but is not C4-free, so it does not re-verify either
    not_free = make_witness(
        "graph-p9", {"graph": serialize_graph(complete_bipartite(5, 4)).rstrip()}
    )
    assert not reverify_witness(not_free)

    # P7 is not (P7,C4)-free, so its path is no counterexample to the chord claim
    p7 = serialize_graph(path(7)).rstrip()
    not_in_universe = make_witness("graph-chords", {"graph": p7, "path": "1 2 3 4 5 6 7"})
    assert not reverify_witness(not_in_universe)
    # path ids outside 1..n are rejected by name, not aliased or indexed past the end
    for ids in ("0 1 2 3 4 5 6", "99 1 2 3 4 5 6"):
        bad_ids = make_witness("graph-chords", {"graph": p7, "path": ids})
        with pytest.raises(ValueError, match="section @path holds an id outside 1..7"):
            reverify_witness(bad_ids)

    with pytest.raises(ValueError):
        reverify_witness("kind mystery\n")
    with pytest.raises(ValueError):
        reverify_witness("no header\n")
    # a missing section names the witness kind and the section
    with pytest.raises(ValueError, match="'tree-not-free' lacks section @tree"):
        reverify_witness("kind tree-not-free\n")
    with pytest.raises(ValueError, match="'graph-p9' lacks section @graph"):
        reverify_witness("kind graph-p9\n")


def test_identity_suite_is_deterministic():
    a = run_suite("identities")
    b = run_suite("identities")
    assert [(v.case, v.status, v.note) for v in a.verdicts] == [
        (v.case, v.status, v.note) for v in b.verdicts
    ]
    assert a.failed == 0 and a.undecided == 0
    summary = a.summary()
    assert summary["cases"] == len(a.verdicts)
    assert summary["build_seconds"] >= 0 and summary["check_seconds"] >= 0


def test_worker_pool_matches_sequential():
    seq = run_suite("t-free", SuiteOptions(workers=1))
    par = run_suite("t-free", SuiteOptions(workers=3))
    assert [(v.case, v.status) for v in seq.verdicts] == [
        (v.case, v.status) for v in par.verdicts
    ]
    assert seq.failed == 0
    # every spec of these suites must pickle across the pool
    for name, opts in (
        ("identities", SuiteOptions()),
        ("lemma-reduction", SuiteOptions(lemma_reduction_max=7)),
        ("lemma-key", SuiteOptions(lemma_key_max=9)),
        ("closure", SuiteOptions()),
    ):
        seq = run_suite(name, opts)
        par = run_suite(name, replace(opts, workers=2))
        assert [(v.case, v.status, v.note) for v in seq.verdicts] == [
            (v.case, v.status, v.note) for v in par.verdicts
        ]


def test_exhaustive_members_equal_full_search(connected_levels):
    # the parent rule drops a graph unsearched when its parent holds a
    # forbidden pattern; the full membership search on every graph is the oracle
    for suite in ("lemma-key", "lemma-reduction", "closure"):
        universe = _universe(LEMMAS[suite])
        for n in range(1, 11):
            chunks = [args[1:] for _, _, args in _exhaustive(suite, n, n)]
            level = connected_levels[n]
            assert sum(size for size, _ in chunks) == len(level), (suite, n)
            got = [g.adj for _, members in chunks for g in members]
            assert got == [g.adj for g in level if _member(g, *universe) is not None], (suite, n)


def _record_searches(monkeypatch) -> list:
    """The (pattern rows, host rows) of every suites.find_induced_embedding call."""
    calls = []
    search = suites.find_induced_embedding

    def recorded(pattern, host, *args, **kwargs):
        calls.append((pattern.adj, host.adj))
        return search(pattern, host, *args, **kwargs)

    monkeypatch.setattr(suites, "find_induced_embedding", recorded)
    return calls


def test_exhaustive_searches_each_pattern_once_per_graph(monkeypatch):
    # membership is decided while the specs are built, each parent's freeness
    # read from the level below; the chunks only run the claim
    calls = _record_searches(monkeypatch)
    for suite in ("lemma-key", "lemma-reduction", "closure"):
        forbidden = {h.adj for h in _universe(LEMMAS[suite])[0]}
        calls.clear()
        specs = _exhaustive(suite, 1, 9)
        assert any(key[0] in forbidden for key in calls), suite
        assert len(calls) == len(set(calls)), suite
        calls.clear()
        for spec in specs:
            assert suites._exec_spec(spec).status == "ok", (suite, spec[0])
        assert calls == [], suite


def test_spot_cases_search_each_pattern_once(monkeypatch):
    # a spot case decides membership from the universe searches it already ran
    calls = _record_searches(monkeypatch)
    spots = [
        spec
        for suite in ("lemma-key", "lemma-reduction")
        for spec in suites._SUITES[suite](SuiteOptions())
        if spec[0].startswith("spot/")
    ]
    assert len(spots) == 4
    for spec in spots:
        calls.clear()
        assert suites._exec_spec(spec).status == "ok", spec[0]
        assert calls and len(calls) == len(set(calls)), spec[0]


def _unpruned_grid_permutation(m: int) -> Permutation | None:
    """The grid-permutation DFS without degree pruning: inversion counts only."""
    g, _ = universal_grid(m, m)
    target = g.edge_count
    n = m * m
    total_pairs = n * (n - 1) // 2
    hit: list[Permutation] = []

    def rec(prefix: list[int], remaining: set[int], inv: int) -> None:
        p = len(prefix)
        if hit or inv > target or inv + total_pairs - p * (p - 1) // 2 < target:
            return
        if not remaining:
            cand = Permutation(tuple(prefix))
            if are_isomorphic(permutation_graph(cand), g):
                hit.append(cand)
            return
        for v in sorted(remaining):
            rec(prefix + [v], remaining - {v}, inv + sum(1 for u in prefix if u > v))

    rec([], set(range(1, n + 1)), 0)
    return hit[0] if hit else None


def test_degree_pruned_grid_search_matches_unpruned():
    for m in (1, 2, 3):
        assert brute_grid_permutation(m) == _unpruned_grid_permutation(m), m
    assert brute_grid_permutation(3).oneline == (2, 4, 6, 7, 1, 8, 3, 9, 5)


def test_placement_degree_matches_inversion_graph():
    for size in range(1, 7):
        for p in itertools.permutations(range(1, size + 1)):
            degrees = [row.bit_count() for row in permutation_graph(Permutation(p)).adj]
            for pos, v in enumerate(p):
                bigger = sum(1 for u in p[:pos] if u > v)
                assert _placement_degree(v, pos, bigger) == degrees[v - 1], (p, v)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("definitely-not-a-suite")


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_and_parse(capsys, tmp_path):
    assert cli.main(["gen", "path", "5"]) == 0
    g, b = parse_graph(capsys.readouterr().out)
    assert g == path(5) and b is None

    out = tmp_path / "t6.graph"
    assert cli.main(["gen", "t-graph", "6", "--out", str(out)]) == 0
    g, b = parse_graph(out.read_text())
    assert g.n == 24 and b is not None

    assert cli.main(["gen", "perm-graph", "(2,1)"]) == 0
    g, _ = parse_graph(capsys.readouterr().out)
    assert g.edge_count == 1

    assert cli.main(["gen", "no-such-family"]) == 2
    assert cli.main(["gen", "path", "0"]) == 2
    assert cli.main(["gen", "path", "x"]) == 2


def test_cli_perm_ops(capsys):
    assert cli.main(["perm", "star-t", "6"]) == 0
    assert capsys.readouterr().out.strip() == "(4,2,6,1,5,3)"
    assert cli.main(["perm", "compose", "(2,1,3)", "(3,1,2)"]) == 0
    assert capsys.readouterr().out.strip() == "(3,2,1)"
    assert cli.main(["perm", "inverse", "(3,1,2)"]) == 0
    assert capsys.readouterr().out.strip() == "(2,3,1)"
    assert cli.main(["perm", "contains", "(2,3,1)", "(1,2)"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert cli.main(["perm", "convex", "(2,1,3)"]) == 0
    assert capsys.readouterr().out.strip() == "no"
    assert cli.main(["perm", "star-t", "7"]) == 2


def test_cli_embed_and_check(capsys):
    assert cli.main(["embed", "path:3", "cycle:5"]) == 0
    assert "->" in capsys.readouterr().out
    assert cli.main(["embed", "cycle:4", "path:4"]) == 1
    assert capsys.readouterr().out.strip() == "none"
    assert cli.main(["check", "free", "path:6", "--forbid", "path:7", "cycle:4"]) == 0
    assert cli.main(["check", "free", "path:7", "--forbid", "path:7"]) == 1
    # a starving budget must surface as undecided, exit 3
    assert cli.main(["embed", "t-graph:6", "t-graph:8", "--budget", "3"]) == 3
    assert cli.main(["check", "free", "t-graph:10", "--forbid", "two-p3", "sun4", "--budget", "5"]) == 3
    assert capsys.readouterr().out.strip().endswith("UNDECIDED step budget exhausted")


def test_cli_embed_answers_past_the_recursion_limit(capsys):
    assert cli.main(["embed", "path:1100", "path:1100"]) == 0
    assert capsys.readouterr().out.strip().endswith("1100->1100")


def test_cli_searches_are_bounded_by_default():
    parser = cli.build_parser()
    for argv in (
        ["check", "free", "path:3", "--forbid", "path:2"],
        ["embed", "path:2", "path:3"],
        ["paths", "path:3", "2"],
        ["verify", "all"],
    ):
        budget = parser.parse_args(argv).budget
        assert budget == DEFAULT_BUDGET and budget is not None, argv


def test_cli_paths_decompose_letter_biconvex(capsys):
    assert cli.main(["paths", "cycle:9", "9"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert cli.main(["paths", "s123", "9"]) == 0
    assert capsys.readouterr().out.strip() == "no"
    # the tree text, byte for byte: each vertex named once, at its leaf
    assert cli.main(["decompose", "path:6"]) == 0
    assert capsys.readouterr().out == (
        "(join (union (leaf 1 X) (union (join (leaf 3 X) (leaf 4 Y)) (leaf 6 Y))) (union (leaf 2 Y) (leaf 5 X)))\n"
    )
    assert cli.main(["decompose", "kab:3,4"]) == 0
    assert capsys.readouterr().out == (
        "(join (leaf 1 X) (join (leaf 2 X) (join (leaf 3 X)"
        " (union (leaf 4 Y) (union (leaf 5 Y) (union (leaf 6 Y) (leaf 7 Y)))))))\n"
    )
    # README's example of the tree text
    assert cli.main(["decompose", "path:3"]) == 0
    assert capsys.readouterr().out == "(join (leaf 1 X) (join (leaf 2 Y) (leaf 3 X)))\n"
    assert cli.main(["decompose", "path:7"]) == 1
    assert capsys.readouterr().out == "none\n"
    assert cli.main(["decompose", "t-graph:6"]) == 1
    assert capsys.readouterr().out.strip() == "none"
    for command in ("decompose", "biconvex"):
        assert cli.main([command, "cycle:5"]) == 1
        assert capsys.readouterr().out == "FAIL graph is not bipartite\n"
    assert cli.main(["letter", "grid", "2", "2", "--verify", "grid:2,2"]) == 0
    capsys.readouterr()
    assert cli.main(["biconvex", "path:4"]) == 0
    assert capsys.readouterr().out == "A: 1 3\nB: 2 4\n"
    assert cli.main(["biconvex", "cycle:6"]) == 1
    assert capsys.readouterr().out == "none\n"


def test_cli_stdin_graph(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("p 2\ne 1 2\n"))
    assert cli.main(["paths", "-", "2"]) == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_cli_verify_identities(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert all(line.startswith("ok identities/") for line in lines[:-1])
    summary = json.loads(lines[-1])
    assert summary["fail"] == 0 and summary["undecided"] == 0


def test_cli_verify_failure_writes_witness(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # an equal pair is not an antichain: T6 embeds into itself, so this must fail
    code = cli.main(["verify", "t-antichain", "--t-pair", "6,6"])
    assert code == 1
    out = capsys.readouterr().out
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail_lines, out
    witness_path = fail_lines[0].split()[-1]
    text = (tmp_path / witness_path).read_text()
    assert reverify_witness(text)


def test_cli_verify_lines_match_pinned_verdicts(capsys, tmp_path, connected_levels):
    lines = []
    for suite in SUITE_NAMES:
        argv = ["verify", suite, "--workers", "1", "--nmax", "10", "--witness-dir", str(tmp_path)]
        assert cli.main(argv) == 0, suite
        lines += [line for line in capsys.readouterr().out.splitlines() if not line.startswith("{")]
    assert lines == PINNED_VERDICTS.read_text(encoding="utf-8").splitlines()


def test_cli_verify_defaults_are_the_suite_options(monkeypatch):
    args = cli.build_parser().parse_args(["verify", "all"])
    defaults = SuiteOptions()
    assert (args.budget, args.nmax, args.reduction_nmax, args.workers) == (
        defaults.budget,
        defaults.lemma_key_max,
        defaults.lemma_reduction_max,
        defaults.workers,
    )
    # a changed default reaches the parser without a second edit
    monkeypatch.setattr(cli, "SuiteOptions", lambda: SuiteOptions(lemma_key_max=12, lemma_reduction_max=11))
    args = cli.build_parser().parse_args(["verify", "all"])
    assert (args.nmax, args.reduction_nmax) == (12, 11)


def test_cli_verify_rejects_unknown_suite():
    assert cli.main(["verify", "bogus"]) == 2


def test_cli_verify_checks_ranges_before_any_suite_runs(capsys):
    assert cli.main(["verify", "all", "--nmax", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lemma-key range must end between 9 and 12" in captured.err
    assert cli.main(["verify", "all", "--reduction-nmax", "3"]) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError, match="lemma-key range"):
        SuiteOptions(lemma_key_max=8)
    with pytest.raises(ValueError, match="lemma-reduction range"):
        SuiteOptions(lemma_reduction_max=13)


def test_cli_rejects_negative_budgets_and_workers(capsys):
    for argv in (
        ["verify", "identities", "--workers", "-3"],
        ["verify", "identities", "--workers", "0"],
        ["verify", "t-free", "--budget", "-1"],
        ["check", "free", "path:3", "--forbid", "path:2", "--budget", "-1"],
        ["embed", "path:2", "path:3", "--budget", "-1"],
        ["paths", "path:3", "2", "--budget", "-1"],
    ):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
    # verify's --budget is read like the other commands', at the command line
    for text in ("-1", "x", "2.5"):
        assert cli.main(["verify", "t-free", "--budget", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"budget must be a non-negative integer, got {text!r}" in captured.err
    with pytest.raises(ValueError, match="workers"):
        SuiteOptions(workers=0)
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError, match="budget"):
            SuiteOptions(budget=bad)
    # a zero budget and an unlimited one stay valid: a zero budget runs the
    # search and reports it undecided
    assert SuiteOptions(budget=0).budget == 0 and SuiteOptions(budget=None).budget is None
    assert cli.main(["embed", "path:2", "path:3", "--budget", "0"]) == 3
    assert cli.main(["verify", "t-free", "--budget", "0"]) == 3
    assert "UNDECIDED" in capsys.readouterr().out


def test_cli_verify_range_help_names_the_enumerator_bound(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_VERTICES", 14)
    assert cli.main(["verify", "--help"]) == 0
    text = capsys.readouterr().out
    assert "(9..14)" in text and "(4..14)" in text


def test_cli_verify_undecided_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a starving budget turns the graph-pair and permutation-pair searches
    # undecided, never failed
    code = cli.main(["verify", "t-antichain", "--budget", "3"])
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "UNDECIDED t-antichain/graph/T6-into-T8" in out
    assert "UNDECIDED t-antichain/perm/6-into-8" in out

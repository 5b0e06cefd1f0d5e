from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from conftest import parent_rows

import bipkit
from bipkit.graphs import Graph, find_bipartition, parse_graph, serialize_graph
from bipkit.families import (
    GRAPH_FAMILIES,
    PERM_FAMILIES,
    cycle,
    path,
    sun1,
    t_graph_star,
    two_p3,
    universal_grid,
)
from bipkit.harness import cli, enumeration, suites
from bipkit.harness.suites import (
    DEFAULT_BUDGET,
    LEMMAS,
    SUITE_NAMES,
    SuiteOptions,
    brute_grid_permutation,
    grid_permutation,
    make_witness,
    reverify_witness,
    run_suite,
    _case_free,
    _case_pair,
    _exhaustive,
    _member,
    _placement_degree,
)
from bipkit.matching import (
    Embedding,
    FreenessResult,
    StepBudgetExceeded,
    are_isomorphic,
    find_induced_embedding,
    has_path_subgraph,
    is_free,
    verify_embedding,
)
from bipkit.perms import Permutation, permutation_graph, star_perm_S, star_perm_T
from bipkit import structure
from bipkit.structure import decompose, format_tree, recompose

PINNED_VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "verify_verdicts.txt"


def test_case_pair_checks_registered_families():
    # Ding's antichain h1..h4, every ordered pair, and the suites' pairs of
    # the generator permutations and the T graphs, each through the one case
    # function the antichain suites run
    for family, indices in (("h", (1, 2, 3, 4)), ("star-t", (6, 8)), ("star-s", (8, 10)), ("t-graph", (6, 8))):
        for i, j in itertools.permutations(indices, 2):
            verdict = _case_pair(f"{family}/{i}-into-{j}", family, i, j, None)
            assert (verdict.status, verdict.witness_text) == ("ok", None), (family, i, j)


def test_every_pinned_case_name_is_distinct():
    names = [line.split()[1] for line in PINNED_VERDICTS.read_text(encoding="utf-8").splitlines()]
    assert len(names) == len(set(names))


def test_case_pair_fails_on_a_planted_defect(monkeypatch):
    # a defect in the subject: a builder that gives one member for every
    # index fails with a witness that re-verifies
    monkeypatch.setitem(PERM_FAMILIES, "star-s", lambda n: star_perm_S(8))
    t_graph = GRAPH_FAMILIES["t-graph"][1]
    monkeypatch.setitem(GRAPH_FAMILIES, "t-graph", (1, lambda n: t_graph(6)))
    subject = [_case_pair("planted", "star-s", 8, 10, None), _case_pair("planted", "t-graph", 6, 8, None)]
    # a defect in the checker: a search that reports a copy that is not there
    monkeypatch.setattr(suites, "contains_pattern", lambda host, pattern, budget=None: True)
    monkeypatch.setattr(suites, "find_induced_embedding", lambda pattern, host, budget=None: Embedding((1,) * pattern.n))
    checker = [_case_pair("planted", "star-t", 6, 8, None), _case_pair("planted", "h", 1, 2, None)]
    monkeypatch.undo()  # reverify_witness reads the same names
    assert [v.status for v in subject + checker] == ["FAIL"] * 4
    assert [reverify_witness(v.witness_text) for v in subject + checker] == [True, True, False, False]
    assert _case_pair("planted", "t-graph", 6, 8, None).status == "ok"


def test_case_free_fails_on_a_planted_defect(monkeypatch):
    forbidden = suites._T_FORBIDDEN
    t8 = t_graph_star(8)
    # a defect in the subject: a host that holds 2P3 beside T8
    host, _ = structure.disjoint_union(t8.graph, t8.bipartition, two_p3(), find_bipartition(two_p3()))
    subject = _case_free("planted", host, forbidden, None)
    assert subject.status == "FAIL" and reverify_witness(subject.witness_text)
    # a defect in the checker: a search that reports a copy of 2P3 in T8 with a bogus map
    monkeypatch.setattr(
        suites, "is_free", lambda g, patterns, budget=None: FreenessResult(False, 0, Embedding((1,) * patterns[0].n))
    )
    checker = _case_free("planted", t8.graph, forbidden, None)
    monkeypatch.undo()  # reverify_witness reads the same names
    assert checker.status == "FAIL" and not reverify_witness(checker.witness_text)
    assert _case_free("planted", t8.graph, forbidden, None).status == "ok"


def test_failing_case_produces_reverifiable_witness():
    # a member trivially contains itself, so an equal pair must fail loudly
    verdict = _case_pair("self", "star-t", 6, 6, None)
    assert verdict.status == "FAIL"
    assert reverify_witness(verdict.witness_text)

    verdict = _case_pair("self", "h", 2, 2, None)
    assert verdict.status == "FAIL"
    assert reverify_witness(verdict.witness_text)


def test_witness_kinds_reverify():
    from bipkit.graphs import find_bipartition
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
    not_canonical = "holds an id that is not an integer in canonical form"
    with pytest.raises(ValueError, match=f"'embedding' section @map {not_canonical}"):
        reverify_witness(not_ids)
    # ids are read in canonical decimal form only, like the graph, tree and
    # permutation parsers read theirs
    for spelling in ("+2", "02", "\u0662", "2.0", "1_0"):
        odd = emb.replace("@map\n1 2", f"@map\n1 {spelling}")
        assert odd != emb
        with pytest.raises(ValueError, match=f"section @map {not_canonical}"):
            reverify_witness(odd)
    # a repeated section is refused by name, not read as the last one given
    twice = emb + "@map\n1 3\n"
    with pytest.raises(ValueError, match="'embedding' repeats section @map"):
        reverify_witness(twice)
    with pytest.raises(ValueError, match="repeats section @pattern"):
        reverify_witness(emb.replace("@host", "@pattern"))
    p4 = serialize_graph(path(4), find_bipartition(path(4))).rstrip()
    orders = {"order_a": "1 3", "order_b": "2 4"}
    assert reverify_witness(make_witness("biconvex-orders-found", {"graph": p4, **orders}))
    not_order = make_witness("biconvex-orders-found", {"graph": p4, **orders, "order_b": "2 y"})
    with pytest.raises(ValueError, match=f"section @order_b {not_canonical}"):
        reverify_witness(not_order)
    # a biconvex witness needs the parts: a graph with no b line names the section
    no_parts = serialize_graph(path(4)).rstrip()
    for kind in ("biconvex-orders-found", "biconvex-orders-rejected"):
        unsplit = make_witness(kind, {"graph": no_parts, **orders})
        with pytest.raises(ValueError, match=f"'{kind}' section @graph has no bipartition"):
            reverify_witness(unsplit)

    # a lemma witness is its suite's kind, the graph and the claim's note
    p9 = "(P7,C4)-free graph with a 9-vertex path"
    # s123 is (P7,C4)-free and has no 9-vertex path, so the note is not the claim's
    not_p9 = make_witness("lemma-key", {"graph": serialize_graph(s123()).rstrip(), "note": p9})
    assert not reverify_witness(not_p9)
    # K_{5,4} has a 9-vertex path but is not C4-free, so it does not re-verify either
    not_free = make_witness(
        "lemma-key", {"graph": serialize_graph(complete_bipartite(5, 4)).rstrip(), "note": p9}
    )
    assert not reverify_witness(not_free)
    # the chord half is not the suite's claim (LEMMAS docstring), and P7 is
    # not (P7,C4)-free either, so a chord note does not re-verify
    p7 = serialize_graph(path(7)).rstrip()
    chords = make_witness("lemma-key", {"graph": p7, "note": "7-path (1, 2, 3, 4, 5, 6, 7) has chords []"})
    assert not reverify_witness(chords)

    with pytest.raises(ValueError):
        reverify_witness("kind mystery\n")
    with pytest.raises(ValueError):
        reverify_witness("no header\n")
    # a missing section names the witness kind and the section
    with pytest.raises(ValueError, match="'tree-not-free' lacks section @tree"):
        reverify_witness("kind tree-not-free\n")
    with pytest.raises(ValueError, match="'lemma-key' lacks section @graph"):
        reverify_witness("kind lemma-key\n")
    with pytest.raises(ValueError, match="'lemma-key' lacks section @note"):
        reverify_witness(make_witness("lemma-key", {"graph": p7}))


def test_lemma_witness_reverifies_when_the_claim_yields_its_note(monkeypatch):
    # every lemma holds, so a false claim stands in for a violated one
    def false_claim(g, b, budget):
        if g.n > 6:
            yield f"{g.n} vertices"

    monkeypatch.setitem(suites.LEMMAS, "closure", replace(LEMMAS["closure"], claim=false_claim))
    [(case, _, args)] = _exhaustive("closure", 7, 7)
    # the false claim fails on P7 and S123 too, so the walk searches them and
    # keeps them out of the members
    assert args[2] and all(_member(g, LEMMAS["closure"]) is not None for g in args[2])
    verdict = suites._case_lemma_chunk(case, *args)
    assert verdict.status == "FAIL" and verdict.note == "7 vertices"
    assert verdict.witness_text.startswith("kind closure\n@graph\n")
    assert verdict.witness_text.endswith("@note\n7 vertices\n")
    assert reverify_witness(verdict.witness_text)
    # another note, or a graph outside the universe, does not re-verify
    assert not reverify_witness(verdict.witness_text.replace("7 vertices", "8 vertices"))
    graph = verdict.witness_text.split("@graph\n", 1)[1].split("@note", 1)[0]
    outside = verdict.witness_text.replace(graph, serialize_graph(path(7)))
    assert outside != verdict.witness_text
    assert not reverify_witness(outside)


def test_incomparability_witness_reverifies_by_isomorphism_type(monkeypatch):
    from bipkit.families import complete_bipartite

    def witness(expected: Graph, inc: Graph) -> str:
        blocks = {"expected": serialize_graph(expected).rstrip(), "incomparability": serialize_graph(inc).rstrip()}
        return make_witness("incomparability-mismatch", blocks)

    # the incomparability graph is relabelled 1..k, so a relabelled path is no mismatch
    relabelled = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert relabelled != path(3)
    assert not reverify_witness(witness(path(3), relabelled))
    assert reverify_witness(witness(path(4), complete_bipartite(1, 3)))
    # a witness that records two values without the inputs that give them
    # cannot be recomputed, so those kinds are gone: these forgeries are refused
    letters = {"expected": serialize_graph(path(3)).rstrip(), "decoded": serialize_graph(cycle(4)).rstrip()}
    for forged in (
        make_witness("value-mismatch", {"expected": "1", "actual": "2"}),
        make_witness("letter-mismatch", letters),
    ):
        with pytest.raises(ValueError, match="unknown witness kind"):
            reverify_witness(forged)
    # the case writes that kind, and a real mismatch re-verifies
    monkeypatch.setattr(suites, "permutation_graph", lambda p: path(p.size))
    verdict = suites._case_incomparability_iso("inc", 8)
    assert verdict.status == "FAIL" and verdict.witness_text.startswith("kind incomparability-mismatch\n")
    assert reverify_witness(verdict.witness_text)


def test_letter_decode_case_decodes_each_grid_once(monkeypatch):
    # it decoded each grid a second time through verify_letter: 128 decodes
    calls = []
    real = suites.decode_letter

    def counting(rep):
        calls.append(rep)
        return real(rep)

    monkeypatch.setattr(suites, "decode_letter", counting)
    monkeypatch.setattr(structure, "decode_letter", counting)
    verdict = suites._case_letters_decode("letters/decode-grids", 8)
    assert (verdict.status, verdict.note) == ("ok", "all grids up to 8x8")
    assert len(calls) == 64


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
    # forbidden pattern, and closure admits a graph with a build tree
    # unsearched; the full membership search on every graph is the oracle
    for suite in ("lemma-key", "lemma-reduction", "closure"):
        for n in range(1, 11):
            chunks = [args[1:] for _, _, args in _exhaustive(suite, n, n)]
            level = connected_levels[n]
            assert sum(size for size, *_ in chunks) == len(level), (suite, n)
            assert all(undecided == 0 and violation is None for *_, undecided, violation in chunks), (suite, n)
            got = [g.adj for _, members, *_ in chunks for g in members]
            assert got == [g.adj for g in level if _member(g, LEMMAS[suite]) is not None], (suite, n)


def test_closure_walk_keeps_only_the_trees_it_will_grow(connected_levels):
    # the walk holds a checked tree, with its _spans lists, only until its
    # children are grown, and none at the last level: keeping the 1,645
    # trees of n=10 as well peaks at 2.6 MB
    tracemalloc.start()
    try:
        specs = _exhaustive("closure", 1, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(specs) == sum(-(-len(connected_levels[n]) // suites._CHUNK) for n in range(1, 11))
    assert peak < 1 << 20, peak


def _class_levels(suite: str, nmax: int) -> dict[int, list[Graph]]:
    """Levels 1..nmax of the hereditary half of a lemma's universe (its
    forbidden patterns, no required one), each the children that
    ``enumeration._build_level`` grows from the level below, filtered with
    ``_member``."""
    universe = replace(LEMMAS[suite], required=None)
    levels = {1: [g for g in enumeration.bipartite_level(1) if _member(g, universe) is not None]}
    for n in range(2, nmax + 1):
        levels[n] = [g for g in enumeration._build_level(levels[n - 1])[0] if _member(g, universe) is not None]
    return levels


def test_class_levels_equal_the_full_levels_filtered(connected_levels):
    # the enumerator docstring's argument: on a hereditary class, the
    # children of the class's level below, filtered, are the full level
    # filtered, in order; and building them leaves the full levels' one
    # record (graphs, child starts, statistics) as it was
    starts = {n: list(enumeration._child_starts(n)) for n in connected_levels}
    stats = enumeration.level_stats()
    copies = {n: list(level) for n, level in connected_levels.items()}
    for suite, members in (("lemma-key", 66), ("lemma-reduction", 70), ("closure", 1_645)):
        universe = replace(LEMMAS[suite], required=None)
        levels = _class_levels(suite, 10)
        for n in range(1, 11):
            want = [g.adj for g in connected_levels[n] if _member(g, universe) is not None]
            assert [g.adj for g in levels[n]] == want, (suite, n)
        assert len(levels[10]) == members, suite
    for n, level in connected_levels.items():
        assert enumeration.bipartite_level(n) is level and level == copies[n], n
        assert enumeration._child_starts(n) == starts[n], n
    assert enumeration.level_stats() == stats


def test_class_level_counts_past_the_verify_range():
    # regression pins, not an independent check: the class levels come from
    # the same builder that the test above checks against the full levels
    # up to n=10, here grown past them at a fraction of their cost
    key = _class_levels("lemma-key", 12)
    assert [len(key[n]) for n in (11, 12)] == [103, 174]
    reduction = _class_levels("lemma-reduction", 12)
    assert [len(reduction[n]) for n in (11, 12)] == [107, 179]
    with_c4 = [sum(find_induced_embedding(cycle(4), g) is not None for g in reduction[n]) for n in (11, 12)]
    assert with_c4 == [4, 5]


def test_sun1_embeds_in_every_connected_bipartite_graph_with_a_c4_that_is_not_complete_bipartite(connected_levels):
    # lemma-reduction's support argument (LEMMAS docstring) for every size,
    # with no P7-freeness assumed
    checked = 0
    for n in range(1, 11):
        for g in connected_levels[n]:
            if find_induced_embedding(cycle(4), g) is None:
                continue
            b = find_bipartition(g)
            if g.edge_count == len(b.part_a) * len(b.part_b):
                continue
            checked += 1
            assert find_induced_embedding(sun1(), g) is not None, g.edges()
    assert checked == 4702


def test_seven_vertex_path_has_one_chord_in_every_member():
    # the 7 vertices of a path in a bipartite (P7,C4)-free graph induce the
    # path and some of its chords, each at odd distance 3 or 5, and that
    # graph is (P7,C4)-free again: these 64 graphs cover every member of
    # every size (LEMMAS docstring)
    odd = [(i, j) for i in range(1, 8) for j in range(i + 3, 8, 2)]
    assert len(odd) == 6
    free = []
    for k in range(len(odd) + 1):
        for chords in itertools.combinations(odd, k):
            g = Graph.from_edges(7, [(i, i + 1) for i in range(1, 7)] + list(chords))
            if all(find_induced_embedding(h, g) is None for h in (cycle(4), path(7))):
                free.append(chords)
    assert free == [((1, 6),), ((2, 7),)]


def test_no_nine_vertex_member_has_a_nine_vertex_path(connected_levels):
    # the base case of lemma-key's path half for every n: a 9-vertex path of
    # a member of any size induces a 9-vertex member holding it (LEMMAS
    # docstring), and none of the 36 has one
    members = [g for g in connected_levels[9] if _member(g, LEMMAS["lemma-key"]) is not None]
    assert len(members) == 36
    assert not any(has_path_subgraph(g, 9) for g in members)
    assert any(has_path_subgraph(g, 8) for g in members)


def _record_searches(monkeypatch) -> list:
    """The (pattern rows, host rows) of every ``find_induced_embedding`` call in suites."""
    calls = []
    search = suites.find_induced_embedding

    def recorded(pattern, host, *args, **kwargs):
        calls.append((pattern.adj, host.adj))
        return search(pattern, host, *args, **kwargs)

    monkeypatch.setattr(suites, "find_induced_embedding", recorded)
    return calls


def test_exhaustive_searches_each_pattern_once_per_graph(monkeypatch):
    # membership and the claim are decided while the specs are built, each
    # parent's freeness read from the level below and only a child of a free
    # parent searched; the chunks only report.  The two lemma suites share
    # one walk over (Sun1,P7)-free parents: Sun1 on each graph it reads, P7
    # on the Sun1-free ones, C4 on the free ones, and no search twice
    calls = _record_searches(monkeypatch)
    names = {sun1().adj: "Sun1", path(7).adj: "P7", cycle(4).adj: "C4"}
    for suites_walked, n_max, forbidden in (
        (("lemma-key", "lemma-reduction"), 10, LEMMAS["lemma-reduction"].forbidden),
        (("closure",), 9, LEMMAS["closure"].forbidden),
    ):
        calls.clear()
        specs = [spec for suite in suites_walked for spec in _exhaustive(suite, 1, n_max)]
        assert any(key[0] in {h.adj for h in forbidden} for key in calls), suites_walked
        assert len(calls) == len(set(calls)), suites_walked
        parents = {parent_rows(Graph(len(host), host)) for _, host in calls}
        assert all(is_free(Graph(len(rows), rows), list(forbidden)).free for rows in parents), suites_walked
        if suites_walked != ("closure",):
            assert Counter(names[pattern] for pattern, _ in calls) == {"Sun1": 1038, "P7": 181, "C4": 167}
            assert len(calls) == 1386
        calls.clear()
        for spec in specs:
            assert suites._exec_spec(spec).status == "ok", spec[0]
        assert calls == [], suites_walked


def test_c4_embeds_in_sun1():
    # the nesting the lemma walk rests on: every (P7,C4)-free graph is
    # (P7,Sun1)-free, so lemma-key's members are the walk's free graphs
    # without C4 and lemma-reduction's those with one
    emb = find_induced_embedding(cycle(4), sun1())
    assert emb is not None and verify_embedding(emb, cycle(4), sun1())


def test_lemma_walk_hands_each_run_out_and_error_to_its_suites(monkeypatch):
    # the budget and error rule of the module docstring, planted on a
    # lemma-reduction member of level 8 that has a member child
    both = ("lemma-key", "lemma-reduction")
    clean = {suite: {n: args for n in (8, 9) for _, _, args in _exhaustive(suite, n, n)} for suite in both}
    level, starts = enumeration.bipartite_level(8), enumeration._child_starts(9)
    nine = enumeration.bipartite_level(9)
    [t, *_] = [
        i
        for i, g in enumerate(level)
        if g in clean["lemma-reduction"][8][2] and set(nine[starts[i] : starts[i + 1]]) & set(clean["lemma-reduction"][9][2])
    ]
    target, children = level[t], nine[starts[t] : starts[t + 1]]
    search = suites.find_induced_embedding

    def walk(fault, pattern=None, claim=None):
        suites._LEMMA_LEVELS.clear()
        original = LEMMAS[claim].claim if claim is not None else None

        def planted(h, g, budget):
            if g == target and h == pattern:
                raise fault
            return search(h, g, budget=budget)

        def faulty(g, b, budget):
            if g == target:
                raise fault
            yield from original(g, b, budget)

        monkeypatch.setattr(suites, "find_induced_embedding", planted)
        if claim is not None:
            monkeypatch.setitem(suites.LEMMAS, claim, replace(LEMMAS[claim], claim=faulty))
        got = {suite: {n: args for n in (8, 9) for _, _, args in _exhaustive(suite, n, n)} for suite in both}
        monkeypatch.undo()
        return got

    def changed(args, **fields):
        """``_case_lemma_chunk`` arguments after the case, with ``fields`` replaced."""
        names = ("suite", "size", "members", "error", "undecided", "violation")
        return tuple(fields.get(name, arg) for name, arg in zip(names, args))

    without = [g for g in clean["lemma-reduction"][8][2] if g != target]
    error = (target, "RuntimeError: planted")
    # a C4 search that runs out or fails leaves the graph in the walk,
    # undecided or failed in both suites, and its children searched whole
    got = walk(StepBudgetExceeded(), cycle(4))
    assert got["lemma-key"][8] == changed(clean["lemma-key"][8], undecided=1)
    assert got["lemma-reduction"][8] == changed(clean["lemma-reduction"][8], members=without, undecided=1)
    assert all(got[suite][9] == clean[suite][9] for suite in both)
    got = walk(RuntimeError("planted"), cycle(4))
    assert got["lemma-key"][8] == changed(clean["lemma-key"][8], error=error)
    assert got["lemma-reduction"][8] == changed(clean["lemma-reduction"][8], members=without, error=error)
    assert all(got[suite][9] == clean[suite][9] for suite in both)
    # a claim's error reaches its own suite alone
    got = walk(RuntimeError("planted"), claim="lemma-reduction")
    assert got["lemma-key"] == clean["lemma-key"]
    assert got["lemma-reduction"][8] == changed(clean["lemma-reduction"][8], error=error)
    assert got["lemma-reduction"][9] == clean["lemma-reduction"][9]
    # a Sun1 search that runs out leaves the graph and its children
    # undecided in both suites
    got = walk(StepBudgetExceeded(), sun1())
    members9 = [g for g in clean["lemma-reduction"][9][2] if g not in children]
    assert len(members9) < len(clean["lemma-reduction"][9][2])
    assert got["lemma-key"][8] == changed(clean["lemma-key"][8], undecided=1)
    assert got["lemma-reduction"][8] == changed(clean["lemma-reduction"][8], members=without, undecided=1)
    assert got["lemma-key"][9] == changed(clean["lemma-key"][9], undecided=len(children))
    assert got["lemma-reduction"][9] == changed(clean["lemma-reduction"][9], members=members9, undecided=len(children))


def test_closure_searches_only_graphs_without_a_build_tree(monkeypatch):
    # closure's claim certifies membership (LEMMAS docstring): a graph with a
    # build tree that recomposes is a member unsearched, so the walk searches
    # only the graphs with a member parent and no tree
    calls = _record_searches(monkeypatch)
    _exhaustive("closure", 1, 10)
    hosts = {host for _, host in calls}
    for rows in hosts:
        g = Graph(len(rows), rows)
        tree = decompose(g, find_bipartition(g))
        assert tree is None or recompose(tree) != g, g.edges()
    assert len(hosts) == 207


def test_walks_visit_only_children_of_free_parents_and_check_each_tree_once(monkeypatch):
    # each walk reads a graph of a level only when its parent, by the
    # enumerator's child ranges, is free; closure's walk makes one checked
    # pass (``structure._spans``) per build tree it keeps, shared by the
    # tree's recompose re-check and the growth of its children
    reads = []

    class Level(list):
        def __getitem__(self, key):
            if key.__class__ is int:
                reads.append(key)
            return super().__getitem__(key)

    level = suites.bipartite_level
    monkeypatch.setattr(suites, "bipartite_level", lambda n: Level(level(n)))
    passes = []
    spans = structure._spans

    def counted(t):
        passes.append(t)
        return spans(t)

    monkeypatch.setattr(suites, "_spans", counted)
    monkeypatch.setattr(structure, "_spans", counted)
    visits = {}
    for suite, n_min in (("lemma-key", 9), ("lemma-reduction", 4), ("closure", 1)):
        reads.clear()
        passes.clear()
        _exhaustive(suite, n_min, 10)
        visits[suite] = (len(reads), len(passes))
    # the lemma suites share one walk, which the first of them makes
    assert visits == {"lemma-key": (1038, 0), "lemma-reduction": (0, 0), "closure": (2534, 2327)}


def test_a_walk_error_fails_its_chunk_alone(monkeypatch, capsys, tmp_path):
    # an unexpected error in the walk's claim on one graph fails that graph's
    # chunk with a note and no witness; its children are still decided on
    # their own, and every other chunk reports as without the error
    grow = suites._extend_tree
    planted = []

    def faulty(tree, spans, g):
        if g.n == 9 and not planted:
            planted.append(g)
            raise RuntimeError("planted")
        return grow(tree, spans, g)

    monkeypatch.setattr(suites, "_extend_tree", faulty)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "all", "--workers", "1", "--nmax", "9", "--reduction-nmax", "7", "--verbose"]) == 1
    out, err = capsys.readouterr()
    assert "RuntimeError: planted" in err
    summaries = [json.loads(line) for line in out.splitlines() if line.startswith('{"suite"')]
    assert [(row["suite"], row["fail"]) for row in summaries] == [(name, int(name == "closure")) for name in SUITE_NAMES]
    lines = [line for line in out.splitlines() if line.startswith(("ok closure/", "FAIL", "UNDECIDED"))]
    [g] = planted
    note = f"walk error on the graph with edges {g.edges()}: RuntimeError: planted"
    assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL closure/exhaustive/n9/part00  # {note}"]
    pinned = PINNED_VERDICTS.read_text().splitlines()
    assert [line.split("  # ")[0] for line in lines if "FAIL" not in line] == [
        line for line in pinned if line.startswith("ok closure/") and line != "ok closure/exhaustive/n9/part00"
    ]
    assert "ok closure/exhaustive/n10/part00  # 2000 graphs, 1354 in class" in lines
    assert not list(tmp_path.iterdir())


def test_a_claim_out_of_budget_leaves_its_chunk_undecided(monkeypatch):
    # membership searches run unbounded here, so only the claim, lemma-key's
    # 9-vertex path search, meets the budget of one step
    search = suites.find_induced_embedding
    monkeypatch.setattr(suites, "find_induced_embedding", lambda h, g, budget: search(h, g))
    [spec] = _exhaustive("lemma-key", 9, 9, budget=1)
    note = "730 graphs, 36 in universe, 20 undecided: step budget exhausted"
    assert suites._exec_spec(spec) == suites.CaseVerdict(spec[0], "UNDECIDED", note)
    # the other 16 members have parts too lopsided to hold the path, unsearched
    [spec] = _exhaustive("lemma-key", 9, 9)
    assert suites._exec_spec(spec) == suites.CaseVerdict(spec[0], "ok", "730 graphs, 36 in universe")


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


def test_grid_permutation_realises_the_grid():
    perm, _ = grid_permutation(3, 3)
    assert perm.oneline == (5, 1, 7, 2, 9, 3, 4, 6, 8)
    for k in range(1, 9):
        for m in range(1, 9):
            perm, value = grid_permutation(k, m)
            g, _ = universal_grid(k, m)
            assert sorted(value) == sorted(value.values()) == list(g.vertices()), (k, m)
            # the value map is an isomorphism onto the permutation graph
            moved = [(min(value[u], value[v]), max(value[u], value[v])) for u, v in g.edges()]
            assert Graph.from_edges(g.n, moved) == permutation_graph(perm), (k, m)
    with pytest.raises(ValueError):
        grid_permutation(0, 3)


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


# sha256 of each README CLI example's stdout, in the block's order
README_CLI_DIGESTS = (
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "200f70256f7faa24f8a9244f6bc4808bd319331dbc076f468ea1982f37c37bbf",
    "45e1689b85f498f6084e3a237174ad544b41adb0536cb0342e793f141cdea9f4",
    "97e753b3885629f9e2c17e71e131838d8992faa94702f0aff06794ebaa6d1f17",
    "5040625b1fb6fa4af07226683f6e6003b29e5e70b16f8cfb24be7a752393f0ee",
    "b8c10bef68c752f539133a35fd3033366dfb448ead77929423bda1f8c965d520",
    "2ab150d0ce68e19feed8ca7441f6ff42293edf97e5183435edaee1f075ccfb77",
    "5040625b1fb6fa4af07226683f6e6003b29e5e70b16f8cfb24be7a752393f0ee",
    "47fc7b506d8c0372f34722214d5232a85d913befc77c78eb92fafb74dcf4045e",
    "23bf47deead84a754c7df59faab6b4c5e6751df745bb011f8762432299c509ff",
    "f6f9ac0104060a8bd15403969288fe65de4599fa9c799ab6494f348f567e7231",
)


def test_readme_cli_examples_run_and_print_pinned_text(capsys, tmp_path, monkeypatch):
    # the first bash block under "## CLI", one command a line; `gen ... --out
    # t6.graph` writes the file the `check free` line reads, in tmp_path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(commands) == len(README_CLI_DIGESTS)
    monkeypatch.chdir(tmp_path)
    for argv, digest in zip(commands, README_CLI_DIGESTS):
        assert argv[0] == "bipkit", argv
        assert cli.main(argv[1:]) == 0, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


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
    # a planted defect: every generator permutation is the n=6 one, so each
    # ordered pair of the suite holds its pattern and must fail
    monkeypatch.setitem(PERM_FAMILIES, "star-t", lambda n: star_perm_T(6))
    code = cli.main(["verify", "t-antichain"])
    assert code == 1
    out = capsys.readouterr().out
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 12, out
    for line in fail_lines:
        assert reverify_witness((tmp_path / line.split()[-1]).read_text()), line


def test_cli_verify_lines_match_pinned_verdicts(capsys, tmp_path, connected_levels):
    lines = []
    for suite in SUITE_NAMES:
        argv = ["verify", suite, "--workers", "1", "--nmax", "10", "--witness-dir", str(tmp_path)]
        assert cli.main(argv) == 0, suite
        lines += [line for line in capsys.readouterr().out.splitlines() if not line.startswith("{")]
    assert lines == PINNED_VERDICTS.read_text(encoding="utf-8").splitlines()


def test_lemma_suites_print_the_same_lines_in_any_order(capsys, tmp_path, monkeypatch):
    # the lemma walk is made by whichever lemma suite runs first in a
    # process: each suite prints the same lines alone, after the other in
    # either order and inside verify all
    monkeypatch.chdir(tmp_path)
    argv = {"lemma-key": ["--nmax", "10"], "lemma-reduction": [], "all": ["--nmax", "10"]}

    def run(*commands: str) -> dict[str, list[str]]:
        """Each lemma suite's lines over ``verify`` runs of ``commands``, the walk's record cleared first."""
        suites._LEMMA_LEVELS.clear()
        lines = []
        for name in commands:
            assert cli.main(["verify", name, "--workers", "1", "--verbose", *argv[name]]) == 0
            lines += capsys.readouterr().out.splitlines()
        return {name: [line for line in lines if line.split(" ", 1)[-1].startswith(f"{name}/")] for name in argv if name != "all"}

    alone = {name: run(name)[name] for name in ("lemma-key", "lemma-reduction")}
    pinned = PINNED_VERDICTS.read_text(encoding="utf-8").splitlines()
    for name, lines in alone.items():
        assert [line.split("  # ")[0] for line in lines] == [line for line in pinned if line.split()[1].startswith(f"{name}/")]
    assert run("lemma-key", "lemma-reduction") == alone
    assert run("lemma-reduction", "lemma-key") == alone
    assert run("all") == alone


def test_cli_verify_checks_the_witness_dir_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    assert cli.main(["verify", "all", "--witness-dir", "afile"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --witness-dir afile is not a directory\n"
    # a directory that does not exist is made only for a witness
    assert cli.main(["verify", "identities", "--witness-dir", "new"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile"]


def test_cli_verify_defaults_are_the_suite_options(capsys, monkeypatch):
    # the knobs match one to one: every field has a flag and every flag but
    # the suite, the witness directory and --verbose sets a field
    knobs = {"budget": "budget", "lemma_key_max": "nmax", "lemma_reduction_max": "reduction_nmax", "workers": "workers"}
    [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in subparsers.choices["verify"]._actions} - {"help", "suite", "witness_dir", "verbose"}
    assert {f.name for f in fields(SuiteOptions)} == set(knobs)
    assert flags == set(knobs.values())
    # the antichain suites' graph pairs are fixed: no flag widens them
    assert cli.main(["verify", "t-antichain", "--t-pair", "8,10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --t-pair 8,10" in captured.err
    args = cli.build_parser().parse_args(["verify", "all"])
    defaults = SuiteOptions()
    for field, flag in knobs.items():
        assert getattr(args, flag) == getattr(defaults, field), flag
    # each flag reaches its field
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda name, opts: seen.append(opts) or suites.SuiteReport(name, []))
    argv = ["verify", "identities", "--budget", "7", "--nmax", "11", "--reduction-nmax", "5", "--workers", "3"]
    assert cli.main(argv) == 0
    assert seen == [SuiteOptions(budget=7, lemma_key_max=11, lemma_reduction_max=5, workers=3)]
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
    assert captured.err == "error: lemma-key range end must be an int in 9..12, got 13\n"
    assert cli.main(["verify", "all", "--reduction-nmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lemma-reduction range end must be an int in 4..12, got 3\n"
    with pytest.raises(ValueError, match="^lemma-key range end must be an int in 9..12, got 8$"):
        SuiteOptions(lemma_key_max=8)
    with pytest.raises(ValueError, match="^lemma-reduction range end must be an int in 4..12, got 13$"):
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
    # --budget is read as an integer like every count at the command line,
    # and its range is the searches' own check
    assert cli.main(["verify", "t-free", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: budget must be an int of at least 0, got -1\n"
    for text in ("x", "2.5"):
        assert cli.main(["verify", "t-free", "--budget", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument --budget: not an integer in canonical form: {text!r}" in captured.err
    with pytest.raises(ValueError, match="workers"):
        SuiteOptions(workers=0)
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError, match="budget"):
            SuiteOptions(budget=bad)
    # a count that is no int fails here, not as a TypeError once a suite runs
    for field, rule in (
        ("workers", "workers must be an int of at least 1"),
        ("lemma_key_max", "lemma-key range end must be an int in 9..12"),
        ("lemma_reduction_max", "lemma-reduction range end must be an int in 4..12"),
    ):
        for bad in (2.5, 9.5, True, "9", None):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{rule}, got {bad!r}')}$"):
                SuiteOptions(**{field: bad})
    # a zero budget and an unlimited one stay valid: a zero budget runs the
    # search and reports it undecided
    assert SuiteOptions(budget=0).budget == 0 and SuiteOptions(budget=None).budget is None
    assert cli.main(["embed", "path:2", "path:3", "--budget", "0"]) == 3
    assert cli.main(["verify", "t-free", "--budget", "0"]) == 3
    assert "UNDECIDED" in capsys.readouterr().out


def test_cli_reads_integers_in_canonical_form_only(capsys, tmp_path, monkeypatch):
    # int() would read each of these as the integer after it
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gen", "path", "07"],
        ["gen", "path", "+7"],
        ["gen", "grid", "5", "5_0"],
        ["perm", "star-t", "08"],
        ["paths", "path:7", "+7"],
        ["embed", "path:03", "path:\u0667"],
        ["check", "free", "kab:3,04", "--forbid", "path:2"],
        ["letter", "grid", "02", "2"],
        ["letter", "grid", "2", "\u0662"],
        ["verify", "identities", "--budget", "1_000"],
        ["verify", "identities", "--budget", "+5"],
        ["verify", "identities", "--nmax", "09"],
        ["verify", "identities", "--reduction-nmax", "+5"],
        ["verify", "identities", "--workers", "01"],
    ):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
    assert not (tmp_path / "witnesses").exists()
    # an empty field in a family spec is no parameter, not one to skip
    for spec in ("path:,3", "path:3,", "kab:2,,2"):
        assert cli.main(["embed", spec, "path:4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be integers in canonical form" in captured.err, spec
    # the canonical spellings still work
    for argv in (
        ["gen", "path", "7"],
        ["perm", "star-t", "8"],
        ["paths", "path:7", "7"],
        ["embed", "path:3", "path:7"],
        ["letter", "grid", "2", "2"],
        ["embed", "cycle:4", "sun1"],
        ["embed", "perm-graph:(2,1)", "path:3"],
    ):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out, argv
    args = cli.build_parser().parse_args(
        ["verify", "all", "--budget", "1000", "--nmax", "10", "--reduction-nmax", "9", "--workers", "2"]
    )
    assert (args.budget, args.nmax, args.reduction_nmax, args.workers) == (1000, 10, 9, 2)


def test_cli_file_errors_are_usage_errors(capsys, tmp_path, monkeypatch):
    # a file that cannot be read or written is the user's to fix: exit 2 and
    # one line naming the path, not a traceback and the failure exit
    monkeypatch.chdir(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    # the verify row's defect: every generator permutation is the n=6 one
    monkeypatch.setitem(PERM_FAMILIES, "star-t", lambda n: star_perm_T(6))
    for argv, name in (
        (["gen", "path", "3", "--out", str(tmp_path / "missing" / "x.graph")], "x.graph"),
        (["gen", "grid", "2", "2", "--out", str(tmp_path)], str(tmp_path)),
        (["embed", str(tmp_path), "path:3"], str(tmp_path)),
        # the planted defect fails, and its witness cannot be written under a file
        (["verify", "t-antichain", "--witness-dir", str(afile)], str(afile)),
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err, argv


def test_cli_a_closed_pipe_exits_141_without_a_message(tmp_path):
    # ``bipkit verify identities | head -1``: the reader is gone, which is no
    # usage error; the read end closes before the run writes, so every
    # write fails, from a print (unbuffered) or from main's flush, also the
    # UNDECIDED line of a search that runs out of budget
    src = os.path.dirname(os.path.dirname(os.path.abspath(bipkit.__file__)))
    for argv in (["verify", "identities"], ["paths", "kab:5,4", "9", "--budget", "1"]):
        for unbuffered in ("1", ""):
            env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "bipkit.harness.cli", *argv],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    cwd=tmp_path,
                    env=env,
                    text=True,
                )
            finally:
                os.close(write_end)
            assert (run.returncode, run.stderr) == (141, ""), (argv, unbuffered)


def _raise_runtime_error(case: str):
    raise RuntimeError("boom")


def test_an_unexpected_error_fails_its_case_and_the_run_goes_on(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    builder = suites._SUITES["identities"]
    monkeypatch.setitem(
        suites._SUITES, "identities", lambda opts: [("boom", _raise_runtime_error, ()), *builder(opts)]
    )
    monkeypatch.setattr(cli, "SUITE_NAMES", ("identities", "t-free"))
    assert cli.main(["verify", "all", "--verbose"]) == 1
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if not line.startswith("{")]
    assert lines[0] == "FAIL identities/boom  # RuntimeError: boom"
    assert all(line.startswith("ok ") for line in lines[1:])
    assert any(line.startswith("ok t-free/") for line in lines)
    assert "RuntimeError: boom" in captured.err  # the traceback


def test_row_occupancy_fails_located_when_no_path_embeds(monkeypatch):
    # a matcher that finds nothing leaves no longest path: a located FAIL,
    # not max() of an empty sequence
    monkeypatch.setattr(suites, "find_induced_embedding", lambda *args, **kwargs: None)
    verdict = suites._exec_spec(("embed/row-occupancy", suites._case_row_occupancy, (6, None)))
    assert (verdict.status, verdict.note) == ("FAIL", "(2, 1) needs more than 1 rows")


def test_cli_verify_range_help_names_the_enumerator_bound(capsys, monkeypatch):
    # main reads a parser built once per process: it is built afresh under
    # the patch, and dropped again so later tests build it unpatched
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "MAX_VERTICES", 14)
    try:
        assert cli.main(["verify", "--help"]) == 0
    finally:
        cli._parser.cache_clear()
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


def test_cli_verify_budget_bounds_the_lemma_suites(capsys, tmp_path, monkeypatch):
    # membership, spot, claim and random-tree searches all take --budget; a
    # graph whose search runs out is undecided, so are its children, and so
    # is every chunk that holds one, the same for any worker count; each run
    # makes the lemma walk afresh
    monkeypatch.chdir(tmp_path)
    lines = {}
    for suite, budget in (("lemma-key", "1"), ("lemma-reduction", "1"), ("closure", "10")):
        outs = []
        for workers in ("1", "2"):
            suites._LEMMA_LEVELS.clear()
            assert cli.main(["verify", suite, "--budget", budget, "--workers", workers, "--verbose"]) == 3
            outs.append([line for line in capsys.readouterr().out.splitlines() if not line.startswith("{")])
        assert outs[0] == outs[1], suite
        assert not any(line.startswith("FAIL") for line in outs[0]), suite
        lines[suite] = outs[0]
        chunks = [line for line in outs[0] if line.startswith(f"UNDECIDED {suite}/exhaustive/")]
        assert chunks and all(line.endswith(" undecided: step budget exhausted") for line in chunks), suite
    assert "UNDECIDED lemma-key/spot/cycle8  # step budget exhausted" in lines["lemma-key"]
    assert "UNDECIDED lemma-reduction/spot/k33  # step budget exhausted" in lines["lemma-reduction"]
    assert "UNDECIDED closure/random-trees/300  # step budget exhausted" in lines["closure"]
    # levels below P7's and S123's size need no search and stay decided
    assert "ok closure/exhaustive/n6/part00  # 17 graphs, 17 in class" in lines["closure"]

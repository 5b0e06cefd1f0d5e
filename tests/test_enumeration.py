from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from math import comb, factorial, prod
from types import SimpleNamespace

import pytest
from conftest import all_bipartite, parent_rows, round_one_keys

import bipkit
from bipkit.graphs import Graph, connected_components, find_bipartition, is_connected
from bipkit.matching import _automorphism_generators, _Budget, _refinement_colors, _search, are_isomorphic
from bipkit.families import complete_bipartite, cycle, path
from bipkit.harness import enumeration
from bipkit.harness.enumeration import (
    _attachment_sets,
    _orbit_representatives,
    _round_one,
    brute_force_bipartite_counts,
    bipartite_level,
    euler_transform,
    level_stats,
)

A033995 = [1, 2, 3, 7, 13, 35, 88, 303, 1119]  # all bipartite graphs on 1..9 vertices


def _edge_subset_counts_reference(n: int) -> tuple[int, int]:
    """(all, connected) bipartite class counts from every edge subset on n
    vertices: a 2-colouring search rejects the non-bipartite ones, and each
    class counts at its first code, with every relabelled code marked seen."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen: set[int] = set()
    count_all = count_conn = 0
    for code in range(1 << len(pairs)):
        if code in seen:
            continue
        edges = [pairs[i] for i in range(len(pairs)) if (code >> i) & 1]
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        color: list[int | None] = [None] * n
        bipartite = True
        components = 0
        for start in range(n):
            if color[start] is not None:
                continue
            components += 1
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v in nbrs[u]:
                    if color[v] is None:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        bipartite = False
        if not bipartite:
            continue
        count_all += 1
        count_conn += components == 1
        for perm in perms:
            seen.add(sum(1 << pairs.index(tuple(sorted((perm[u], perm[v])))) for u, v in edges))
    return count_all, count_conn


def test_colouring_oracle_matches_edge_subset_reference():
    for n in range(1, 7):
        assert brute_force_bipartite_counts(n) == _edge_subset_counts_reference(n), n
    # A033995 and A005142 at seven vertices
    assert brute_force_bipartite_counts(7) == (88, 44)


def test_colouring_oracle_arguments():
    # refused before any pair or permutation is built
    for bad in (0, -1, True, 3.0):
        with pytest.raises(ValueError, match="n must be an int of at least 1"):
            brute_force_bipartite_counts(bad)
    # the counts its Euler transform is checked against follow the same rule
    for bad in ([-1, "x"], [1, True], [1, 2.0]):
        with pytest.raises(ValueError, match="connected count must be an int of at least 0"):
            euler_transform(bad)


def test_colouring_oracle_refuses_more_than_eight_vertices(monkeypatch):
    # its relabel table holds n! * n(n-1)/2 masks, about 320 MB at n = 8 and
    # nine times that at n = 9, so 9 and above are refused before any pair
    # or permutation is built
    def build(*args):
        raise AssertionError("oracle table built")

    monkeypatch.setattr(enumeration, "itertools", SimpleNamespace(combinations=build, permutations=build))
    for bad in (9, 10, 13):
        with pytest.raises(ValueError, match=r"n must be an int in 1\.\.8, got"):
            brute_force_bipartite_counts(bad)


def test_counts_match_bruteforce_oracle():
    conn = [len(bipartite_level(n)) for n in range(1, 7)]
    for n in range(1, 7):
        want_all, want_conn = brute_force_bipartite_counts(n)
        assert conn[n - 1] == want_conn
        assert euler_transform(conn[:n])[-1] == want_all
        assert len(all_bipartite(n)) == want_all


def test_frozen_small_counts():
    # values pinned from the brute-force oracle
    assert [len(bipartite_level(n)) for n in range(1, 7)] == [1, 1, 1, 3, 5, 17]
    assert euler_transform([1, 1, 1, 3, 5, 17]) == [1, 2, 3, 7, 13, 35]
    assert [len(all_bipartite(n)) for n in range(1, 7)] == [1, 2, 3, 7, 13, 35]


def test_counts_match_published_values_and_euler_transform(connected_levels):
    conn = [len(connected_levels[n]) for n in range(1, 12)]
    assert conn[6:] == [44, 182, 730, 4032, 25598]  # OEIS A005142
    # a graph is a multiset of connected graphs, so the all-graph counts are
    # the Euler transform of the connected counts
    assert euler_transform(conn[:9]) == A033995
    assert [len(all_bipartite(n)) for n in range(1, 9)] == A033995[:8]


def test_level_order_is_deterministic_across_interpreters():
    # case chunks and witness ids follow the level order
    script = "from bipkit.harness.enumeration import bipartite_level; print([g.adj for g in bipartite_level(9)])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(bipkit.__file__))))
    runs = [subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].count("(") == 730


# sha256 of repr([g.adj for g in bipartite_level(n)]), recorded before
# orbit pruning and the early accept/reject entered the enumerator
LEVEL_DIGESTS = {
    9: "10694f308b85dd387e8204f1db4628ecc546d45ba4eee9bf137b52deba40a303",
    10: "2c650dcd430f5b25a91fbebf989779fbd9244c9d546826b4efffd5b31de5b00a",
    11: "a36c6475f20b58e63beaee8634afb9a493af282651fe4a5af1b3bf040a7c84e9",
}


def test_level_order_is_pinned(connected_levels):
    # case chunks and witness ids follow the level order, so the
    # representatives must stay byte-identical, in the same order
    for n, want in LEVEL_DIGESTS.items():
        assert hashlib.sha256(repr([g.adj for g in connected_levels[n]]).encode()).hexdigest() == want, n


def _attachment_sets_reference(parent) -> list[int]:
    """Nonempty attachment sets from vertex tuples: every subset of each
    component's colour sides by ``itertools.combinations``, then a
    set-and-sort pass."""
    coloring = find_bipartition(parent)
    per_component: list[list[int]] = []
    for comp in connected_components(parent):
        choices = {0}
        for side in ([v for v in comp if v in coloring.part_a], [v for v in comp if v in coloring.part_b]):
            for r in range(1, len(side) + 1):
                for combo in itertools.combinations(side, r):
                    choices.add(sum(1 << (v - 1) for v in combo))
        per_component.append(sorted(choices))
    masks = [0]
    for choices in per_component:
        masks = [m | c for m in masks for c in choices]
    return sorted(set(masks) - {0})


def test_attachment_sets_match_reference(connected_levels):
    for n in range(1, 10):
        for g in connected_levels[n]:
            want = _attachment_sets_reference(g)
            for floor in range(1, n + 2):
                assert _attachment_sets(g, floor) == [m for m in want if m.bit_count() >= floor], (g.adj, floor)


def _deletable_mask(adj: tuple[int, ...]) -> int:
    """The vertices v whose removal leaves the graph connected, each found by
    a search from another vertex."""
    n = len(adj)
    full = (1 << n) - 1
    out = 0
    for v in range(n):
        rest = full & ~(1 << v)
        seen = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & rest & ~seen
            seen |= frontier
        if seen == rest:
            out |= 1 << v
    return out


def _rounds_zero_and_one(adj: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Refinement rounds 0 and 1 of the graph: the degrees, then the ranks of
    the (degree, sorted neighbour degrees) keys."""
    n = len(adj)
    degrees = [row.bit_count() for row in adj]
    keys = [(degrees[v], tuple(sorted(degrees[u] for u in range(n) if (adj[v] >> u) & 1))) for v in range(n)]
    ranking = {k: r for r, k in enumerate(sorted(set(keys)))}
    return degrees, [ranking[k] for k in keys]


def _children_by_rounds_zero_and_one(parent):
    """``(mask, adj, deletable, verdict, twins)`` for every attachment set of
    the independent reference, judged on the built child: ``deletable`` is
    found by search, ``verdict`` is None when a deletable vertex has a higher
    degree than the new vertex, and otherwise what rounds 0 and 1 decide (-1
    reject, 1 lone top, 0 tied); ``twins`` are the deletable vertices tied at
    round 1, kept when each has the new vertex's neighbours and 0 otherwise."""
    n = parent.n
    for mask in _attachment_sets_reference(parent):
        adj = tuple(row | (1 << n) if (mask >> v) & 1 else row for v, row in enumerate(parent.adj)) + (mask,)
        deletable = _deletable_mask(adj) & ~(1 << n)
        dels = [v for v in range(n) if (deletable >> v) & 1]
        verdict = twins = 0
        if any(adj[v].bit_count() > mask.bit_count() for v in dels):
            verdict = None
        else:
            for colors in _rounds_zero_and_one(adj):
                best = max([colors[v] for v in dels], default=-1)
                if best != colors[n]:
                    verdict = 1 if best < colors[n] else -1
                    break
            else:
                tied = [v for v in dels if colors[v] == colors[n]]
                if all(adj[v] == mask for v in tied):
                    twins = sum(1 << v for v in tied)
        yield mask, adj, deletable, verdict, twins


def test_round_one_matches_refinement_of_the_child(connected_levels):
    # On every parent of levels <= 9, built children are judged from scratch.
    # _round_one keeps exactly the sets that neither the degree test nor
    # round 1 rejects.  It reports a child as a new class (tied 0) when
    # round 1 makes the new vertex the lone top, or ties it only with twins
    # of the new vertex: there the stable colouring ties the new vertex with
    # exactly those twins among the deletable vertices, and puts them on
    # top.  Any other child is tied, with the deletable vertices of the new
    # vertex's degree.
    twin_settled = 0
    for n in range(1, 10):
        for parent in connected_levels[n]:
            got, keys = _round_one(parent)
            assert keys == round_one_keys(parent.adj), parent.adj
            for mask, adj, deletable, verdict, twins in _children_by_rounds_zero_and_one(parent):
                if verdict is None or verdict < 0:
                    assert mask not in got, (parent.adj, mask)
                    continue
                want = 0
                if twins:
                    twin_settled += 1
                    colors = _refinement_colors(adj)[0]
                    dels = [v for v in range(n) if (deletable >> v) & 1]
                    assert max(colors[v] for v in dels) == colors[n], (parent.adj, mask)
                    assert sum(1 << v for v in dels if colors[v] == colors[n]) == twins, (parent.adj, mask)
                elif verdict == 0:
                    want = sum(1 << v for v in range(n) if (deletable >> v) & 1 and adj[v].bit_count() == mask.bit_count())
                assert got.pop(mask) == want, (parent.adj, mask)
            assert not got, parent.adj
    assert twin_settled > 0


def _first_separating_round(adj: tuple[int, ...], deletable: int) -> int:
    """Refinement round by round from the degrees, each round's colours the
    ranks of (colour, sorted neighbour colours) keys, until the number of
    colours stops growing: 1 when the first round that separates the last
    vertex from the top ``deletable`` vertex puts the last vertex above, -1
    when it puts it below, and 0 when no round separates them."""
    n = len(adj)
    nbrs = [[u for u in range(n) if (adj[v] >> u) & 1] for v in range(n)]
    colors = [len(nb) for nb in nbrs]
    while True:
        best = max(colors[v] for v in range(n) if (deletable >> v) & 1)
        if best != colors[-1]:
            return 1 if best < colors[-1] else -1
        keys = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)]
        ranking = {k: r for r, k in enumerate(sorted(set(keys)))}
        refined = [ranking[k] for k in keys]
        if len(ranking) == len(set(colors)):
            return 0
        colors = refined


def test_stable_colouring_decides_a_tied_child_as_the_first_separating_round(connected_levels):
    # _build_level decides a child that round 1 leaves tied once, at its
    # stable colouring, from the tied vertices only: the new vertex below
    # the top tied vertex rejects the child, above it makes a new class, and
    # level with it goes to the registry.  On every such child of at most
    # 10 vertices, that decision is the one of the first refinement round
    # that separates the new vertex from the top deletable vertex (found by
    # search), as refinement keeps each round's strict colour order.
    decisions = {-1: 0, 0: 0, 1: 0}
    for n in range(1, 10):
        for parent in connected_levels[n]:
            for mask, tied in _round_one(parent)[0].items():
                if not tied:
                    continue
                adj = tuple(row | (1 << n) if (mask >> v) & 1 else row for v, row in enumerate(parent.adj)) + (mask,)
                colors = _refinement_colors(adj)[0]
                best = max(colors[v] for v in range(n) if (tied >> v) & 1)
                stable = (best < colors[n]) - (best > colors[n])
                assert stable == _first_separating_round(adj, _deletable_mask(adj) & ~(1 << n)), (parent.adj, mask)
                decisions[stable] += 1
    # all three outcomes occur, over the kept sets before orbit pruning
    assert decisions == {-1: 401, 0: 1176, 1: 288}


def _automorphism_images(adj: tuple[int, ...], v: int) -> int:
    """The images of v under the automorphisms of the graph: for each
    candidate image, a backtracking search over partial bijections that send
    v there first and keep every adjacency and non-adjacency."""
    n = len(adj)
    order = [v] + [x for x in range(n) if x != v]

    def extend(images: list[int], used: int) -> bool:
        if len(images) == n:
            return True
        x = order[len(images)]
        return any(
            extend(images + [y], used | 1 << y)
            for y in range(n)
            if not (used >> y) & 1 and all((adj[x] >> order[i] & 1) == (adj[y] >> images[i] & 1) for i in range(len(images)))
        )

    return sum(1 << y for y in range(n) if extend([y], 1 << y))


def test_twin_settled_new_vertex_is_one_orbit_with_its_twins(connected_levels):
    # The premise of settling twin ties from the parent, on every child of at
    # most 9 vertices tied at round 1 only with twins of its new vertex: the
    # orbit of the new vertex under Aut(child), found by brute force, is the
    # new vertex and its twins, and is the top deletable class of the stable
    # colouring
    checked = 0
    for n in range(1, 9):
        for parent in connected_levels[n]:
            for mask, adj, deletable, verdict, twins in _children_by_rounds_zero_and_one(parent):
                if not twins:
                    continue
                checked += 1
                orbit = twins | 1 << n
                assert _automorphism_images(adj, n) == orbit, (parent.adj, mask)
                colors = _refinement_colors(adj)[0]
                top = max(colors[v] for v in range(n + 1) if (deletable | 1 << n) >> v & 1)
                assert sum(1 << v for v in range(n + 1) if (deletable | 1 << n) >> v & 1 and colors[v] == top) == orbit
    assert checked == 438


def _permuted(mask: int, perm: tuple[int, ...]) -> int:
    return sum(1 << perm[x] for x in range(len(perm)) if (mask >> x) & 1)


def test_orbit_pruning_against_brute_force_automorphisms(connected_levels):
    # Aut(G) by trying all n! relabellings; a mask is kept when no
    # automorphism maps it to a smaller one
    for n in range(1, 8):
        for g in connected_levels[n]:
            auts = [
                perm
                for perm in itertools.permutations(range(n))
                if all(_permuted(g.adj[x], perm) == g.adj[perm[x]] for x in range(n))
            ]
            masks = _attachment_sets(g, 1)
            want = [m for m in masks if all(m <= _permuted(m, a) for a in auts)]
            # the enumerator starts the chain from round-1 keys, patterns
            # from stable colours: the orbits must not depend on the start
            for colors in (round_one_keys(g.adj), _refinement_colors(g.adj)[0]):
                gens = _automorphism_generators(g.adj, _Budget(None), colors)[0]
                assert list(_orbit_representatives(masks, gens)) == want, g.adj


def _labelled_connected_bipartite(nmax: int) -> list[int]:
    """Labelled connected bipartite graphs on 0..nmax vertices.  b(n) counts
    2-coloured graphs, the connected ones c(n) follow from
    b(n) = sum over k of C(n-1, k-1) c(k) b(n-k) (the component of vertex 1
    has k vertices), and a connected bipartite graph has two 2-colourings."""
    b = [sum(comb(n, k) * 2 ** (k * (n - k)) for k in range(n + 1)) for n in range(nmax + 1)]
    c = [0] * (nmax + 1)
    for n in range(1, nmax + 1):
        c[n] = b[n] - sum(comb(n - 1, k - 1) * c[k] * b[n - k] for k in range(1, n))
    return [x // 2 for x in c]


def test_levels_satisfy_the_orbit_stabiliser_identity(connected_levels):
    # sum over a level of n!/|Aut(G)| counts its labelled graphs, |Aut(G)| the
    # product of the chain's orbit sizes; a missing or duplicated class, a
    # missed generator or a wrong one each moves the sum
    want = _labelled_connected_bipartite(10)
    assert want[10] == 5_254_054_111
    for n in range(1, 11):
        total = 0
        for g in connected_levels[n]:
            orbits = _automorphism_generators(g.adj, _Budget(None), _refinement_colors(g.adj)[0])[1]
            aut = prod(orbit.bit_count() for orbit in orbits)
            assert factorial(n) % aut == 0, g.adj
            total += factorial(n) // aut
        assert total == want[n], n


def test_every_representative_grows_from_a_parent_representative(connected_levels):
    # minus its last vertex, a connected representative is, row for row, a
    # representative of the level below: the lemma suites decide membership
    # by these rows, so a relabelling enumerator must keep this
    for n in range(2, 11):
        parents = {g.adj for g in connected_levels[n - 1]}
        for g in connected_levels[n]:
            assert parent_rows(g) in parents, g.adj


def test_child_ranges_hold_exactly_each_parents_children(connected_levels):
    # the walks read each graph's parent off these ranges, not off its rows
    assert enumeration._child_starts(1) == [0, 1]
    for n in range(2, 12):
        parents, level = connected_levels[n - 1], connected_levels[n]
        starts = enumeration._child_starts(n)
        assert len(starts) == len(parents) + 1, n
        assert starts[0] == 0 and starts[-1] == len(level), n
        assert all(a <= b for a, b in zip(starts, starts[1:])), n
        for i, parent in enumerate(parents):
            for g in level[starts[i] : starts[i + 1]]:
                assert parent_rows(g) == parent.adj, (n, i)


def test_a_level_holds_one_int_per_row_value(connected_levels):
    # level n is _build_level of level n-1, which gives each row value one
    # int object; a fresh int per joined row gives level 10 17,991 ints for
    # its 300 values
    for n in range(2, 12):
        rows = [row for g in connected_levels[n] for row in g.adj]
        assert len({id(row) for row in rows}) == len(set(rows)), n


def test_representatives_pass_full_validation(connected_levels):
    # the enumerator builds its children without Graph's checks
    for n in range(1, 10):
        for g in connected_levels[n]:
            assert g == Graph(n, g.adj), g.adj


# level_stats() per level, seconds left out: candidates, passed, refined,
# exact, automorphism_steps, classes
LEVEL_STATS = {
    1: (1, 1, 0, 0, 0, 1),
    2: (1, 1, 1, 0, 0, 1),
    3: (2, 1, 0, 0, 2, 1),
    4: (4, 3, 2, 0, 0, 3),
    5: (20, 5, 1, 0, 5, 5),
    6: (56, 17, 7, 0, 7, 17),
    7: (280, 44, 10, 0, 67, 44),
    8: (1_118, 182, 61, 0, 131, 182),
    9: (6_598, 730, 148, 1, 965, 730),
    10: (38_854, 4_033, 976, 10, 3_203, 4_032),
    11: (304_418, 25_600, 4_704, 33, 23_393, 25_598),
}


def test_level_stats(connected_levels):
    # the counts pin which children each step of the deletion rule settles,
    # so a refactor that sends other children to refinement, the registry
    # or the automorphism search fails here even when the levels agree
    stats = level_stats()
    for n, want in LEVEL_STATS.items():
        s = stats[n]
        assert set(s) == {"candidates", "passed", "refined", "exact", "automorphism_steps", "classes", "seconds"}
        got = (s["candidates"], s["passed"], s["refined"], s["exact"], s["automorphism_steps"], s["classes"])
        assert got == want, n
        assert s["classes"] == len(connected_levels[n])


def _colour_class_isomorphic(g: Graph, h: Graph) -> bool:
    """The registry's former exact test, for two graphs with one refinement
    certificate: a search of g into h with one domain per colour class, whose
    induced embedding is then a bijection that keeps colours."""
    classes = [0] * h.n
    for x, c in enumerate(_refinement_colors(h.adj)[0]):
        classes[c] |= 1 << x
    domains = [classes[c] for c in _refinement_colors(g.adj)[0]]
    return next(_search(g.adj, h.adj, _Budget(None), domains), None) is not None


# 16 certificates of levels 1..10 hold two classes each: with a relabelled
# copy of each class, 96 pairs, 32 of them isomorphic
PAIRS_SHARING_A_CERTIFICATE = (96, 32)


def test_registry_isomorphism_test_against_colour_class_search(connected_levels):
    # Every pair of graphs of levels 1..10 that share a certificate, each
    # beside a relabelled copy of every graph of its bucket, so that both
    # answers occur: are_isomorphic agrees with the colour-class search.
    rng = random.Random(50)
    buckets: dict[tuple, list[Graph]] = {}
    for n in range(1, 11):
        for g in connected_levels[n]:
            buckets.setdefault(_refinement_colors(g.adj)[1], []).append(g)
    answers = []
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        copies = []
        for g in bucket:
            perm = list(range(g.n))
            rng.shuffle(perm)
            copies.append(Graph.from_edges(g.n, [(perm[u - 1] + 1, perm[v - 1] + 1) for u, v in g.edges()]))
        for g, h in itertools.combinations(bucket + copies, 2):
            want = _colour_class_isomorphic(g, h)
            assert are_isomorphic(g, h) == want, (g.edges(), h.edges())
            answers.append(want)
    assert (len(answers), sum(answers)) == PAIRS_SHARING_A_CERTIFICATE


def test_registry_drops_the_one_isomorphic_child_at_n10(monkeypatch):
    # planted defect: a registry whose test never finds an isomorphism keeps
    # the one repeated class among level 10's tied children
    parents = bipartite_level(9)
    monkeypatch.setattr(enumeration, "are_isomorphic", lambda g, h: False)
    assert len(enumeration._build_level(parents)[0]) == 4_033


def test_connected_four_vertex_classes():
    level = bipartite_level(4)
    expected = [path(4), complete_bipartite(1, 3), cycle(4)]
    assert len(level) == 3
    for want in expected:
        assert sum(1 for g in level if are_isomorphic(g, want)) == 1


def test_level_arguments(monkeypatch):
    with pytest.raises(ValueError):
        bipartite_level(0)
    with pytest.raises(ValueError):
        bipartite_level(13)
    # only connected levels are built
    with pytest.raises(ValueError):
        bipartite_level(4, False)
    # n is an int: a bool or a float is refused before any level is looked
    # up or built; levels 1..4 are built first, so the cached ones below
    # hold when this test runs alone
    for n in range(1, 5):
        bipartite_level(n)

    def build(n):
        raise AssertionError(f"level {n!r} built")

    monkeypatch.setattr(enumeration, "_build_level", build)
    for bad in (True, 3.0, 2.5):
        with pytest.raises(ValueError, match="must be an int"):
            bipartite_level(bad)
    for n in range(1, 5):
        assert bipartite_level(n, True) is bipartite_level(n)


def test_enumerated_graphs_satisfy_constraints():
    for g in all_bipartite(7):
        assert find_bipartition(g) is not None
    for g in bipartite_level(7):
        assert find_bipartition(g) is not None
        assert is_connected(g)


def test_no_two_representatives_isomorphic():
    for level in (all_bipartite(6), bipartite_level(7)):
        for i, g in enumerate(level):
            for h in level[i + 1 :]:
                assert not are_isomorphic(g, h)


def test_certificate_is_invariant_and_discriminating():
    # relabelled copies share a certificate
    g = path(5)
    relabeled = path(5)
    import random

    rng = random.Random(1)
    from bipkit.graphs import Graph

    perm = list(range(1, 6))
    rng.shuffle(perm)
    relabeled = Graph.from_edges(5, [(min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])) for u, v in g.edges()])
    assert _refinement_colors(g.adj)[1] == _refinement_colors(relabeled.adj)[1]
    # different classes usually separate already at the certificate
    assert _refinement_colors(path(4).adj)[1] != _refinement_colors(cycle(4).adj)[1]

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Exhaustive criteria consume the session-scoped enumeration fixtures; every
tolerance here is exact (equality or zero violations).
"""

from __future__ import annotations

import itertools

from bipkit.graphs import find_bipartition
from bipkit.matching import (
    Embedding,
    find_induced_embedding,
    has_path_subgraph,
    is_free,
    are_isomorphic,
    verify_embedding,
)
from bipkit.perms import (
    Permutation,
    compose,
    contains_pattern,
    format_permutation,
    inverse,
    is_convex,
    mu_star,
    permutation_graph,
    rho_star,
    star_perm_S,
    star_perm_T,
)
from bipkit.families import (
    cycle,
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
from bipkit.structure import (
    decode_letter,
    decompose,
    find_biconvex_order,
    incomparability_graph,
    letter_representation_grid,
    recompose,
    verify_biconvex_order,
    verify_letter,
)
from bipkit.harness.enumeration import brute_force_bipartite_counts, bipartite_level, euler_transform
from bipkit.harness.suites import proof_biconvex_orders, random_leaf_tree

DEFAULT_BUDGET = 10**9


def _report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion:02d}: {detail}")


def test_criterion_01_identity_suite():
    for n in range(8, 42, 2):
        assert compose(mu_star(n), inverse(rho_star(n))) == star_perm_S(n)
        assert is_convex(rho_star(n))
        assert is_convex(mu_star(n))
    for n in range(6, 42, 2):
        assert inverse(star_perm_T(n)) == star_perm_T(n)
    _report(1, "composition, convexity, involution identities hold on even 6..40")


def test_criterion_02_printed_instances():
    assert format_permutation(star_perm_T(6)) == "(4,2,6,1,5,3)"
    assert format_permutation(star_perm_T(8)) == "(4,2,6,1,8,3,7,5)"
    assert format_permutation(star_perm_S(8)) == "(2,3,5,1,8,4,7,6)"
    assert format_permutation(star_perm_S(10)) == "(2,3,5,1,7,4,10,6,9,8)"
    assert format_permutation(star_perm_S(12)) == "(2,3,5,1,7,4,9,6,12,8,11,10)"
    _report(2, "generator families reproduce all printed instances byte-exactly")


def test_criterion_03_freeness():
    for n in range(6, 16, 2):
        assert is_free(t_graph_star(n).graph, [two_p3(), sun4()], budget=DEFAULT_BUDGET).free
    for n in range(8, 18, 2):
        assert is_free(s_graph_star(n).graph, [path(8), p_tilde(8)], budget=DEFAULT_BUDGET).free
    _report(3, "four-zone graphs avoid {2P3, Sun4} (n<=14); three-zone avoid {P8, ~P8} (n<=16)")


def test_criterion_04_permutation_antichains():
    for gen, idxs in ((star_perm_T, (6, 8, 10, 12)), (star_perm_S, (8, 10, 12, 14))):
        for i in idxs:
            for j in idxs:
                if i != j:
                    assert not contains_pattern(gen(j), gen(i)), (i, j)
    _report(4, "generator permutations are pairwise incomparable in both directions")


def test_criterion_05_graph_antichains():
    t6, t8 = t_graph_star(6).graph, t_graph_star(8).graph
    s8, s10 = s_graph_star(8).graph, s_graph_star(10).graph
    # budget given; StepBudgetExceeded would fail the test, so no undecided slips through
    assert find_induced_embedding(t6, t8, budget=DEFAULT_BUDGET) is None
    assert find_induced_embedding(t8, t6, budget=DEFAULT_BUDGET) is None
    assert find_induced_embedding(s8, s10, budget=DEFAULT_BUDGET) is None
    assert find_induced_embedding(s10, s8, budget=DEFAULT_BUDGET) is None
    _report(5, "T pair (6,8) and S pair (8,10) mutually non-embeddable within budget")


def test_criterion_06_inversion_graph_fidelity():
    g = permutation_graph(star_perm_T(10))
    assert g.edge_count == 14
    assert g.neighbors(2) == (1, 4)
    assert g.neighbors(9) == (7, 10)
    _report(6, "10-element inversion graph has 14 edges with the pinned adjacencies")


def test_criterion_07_incomparability_graphs():
    for n in (8, 10, 12):
        layout = s_graph_star(n)
        inc = incomparability_graph(layout.graph, set(layout.zone_vertices("B")))
        assert are_isomorphic(inc, permutation_graph(star_perm_S(n))), n
    layout = s_graph_star(8)
    inc = incomparability_graph(layout.graph, set(layout.zone_vertices("B")))
    assert set(inc.edges()) == {
        (1, 8), (2, 8), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 6),
    }
    _report(7, "middle-zone incomparability graphs match the inversion graphs (n=8,10,12)")


def test_criterion_08_biconvexity():
    for n in range(8, 18, 2):
        layout = s_graph_star(n)
        order_ac, order_b = proof_biconvex_orders(n)
        assert verify_biconvex_order(layout.graph, layout.bipartition, order_ac, order_b)
    assert find_biconvex_order(cycle(6), find_bipartition(cycle(6))) is None
    _report(8, "explicit order pair verifies for n<=16; cycle(6) admits no biconvex order")


def test_criterion_09_lemma_key_exhaustive(connected_levels):
    p7, c4 = path(7), cycle(4)
    checked = in_universe = 0
    for n in (9, 10, 11):
        for g in connected_levels[n]:
            checked += 1
            if find_induced_embedding(c4, g) is not None:
                continue
            if find_induced_embedding(p7, g) is not None:
                continue
            in_universe += 1
            assert not has_path_subgraph(g, 9), g.edges()
    _report(9, f"no 9-vertex path over {checked} graphs ({in_universe} in universe)")


def test_criterion_10_lemma_reduction_exhaustive(connected_levels):
    p7, s1, c4 = path(7), sun1(), cycle(4)
    hits = 0
    for n in range(2, 11):
        for g in connected_levels[n]:
            if find_induced_embedding(p7, g) is not None:
                continue
            if find_induced_embedding(s1, g) is not None:
                continue
            if find_induced_embedding(c4, g) is None:
                continue
            hits += 1
            b = find_bipartition(g)
            assert g.edge_count == len(b.part_a) * len(b.part_b), g.edges()
    _report(10, f"every C4-carrying member is complete bipartite ({hits} graphs checked)")


def test_criterion_11_closure(connected_levels):
    p7, s = path(7), s123()
    members = 0
    for n in range(1, 11):
        for g in connected_levels[n]:
            if find_induced_embedding(p7, g) is not None:
                continue
            if find_induced_embedding(s, g) is not None:
                continue
            members += 1
            b = find_bipartition(g)
            tree = decompose(g, b)
            assert tree is not None, g.edges()
            assert recompose(tree) == g
    assert decompose(path(7), find_bipartition(path(7))) is None
    import random

    rng = random.Random(20250808)
    for _ in range(300):
        tree = random_leaf_tree(rng)
        assert is_free(recompose(tree), [p7, s]).free
    _report(11, f"{members} class members decompose exactly; path(7) does not; 300 random trees stay in class")


def test_criterion_12_letter_graphs():
    for k in range(1, 9):
        for m in range(1, 9):
            rep = letter_representation_grid(k, m)
            g, _ = universal_grid(k, m)
            assert decode_letter(rep) == g
            assert verify_letter(rep, g)
    _report(12, "grid letter representations decode exactly for all k,m <= 8")


def test_criterion_13_universality():
    big, _ = universal_grid(6, 6)
    embedded = 0
    for m in range(1, 7):
        host, _ = universal_grid(m, m)
        for p in itertools.permutations(range(1, m + 1)):
            gp = permutation_graph(Permutation(p))
            if find_bipartition(gp) is None:
                continue
            emb = find_induced_embedding(gp, host, budget=DEFAULT_BUDGET)
            assert emb is not None, p
            # lift through the inclusion into the 6x6 grid and re-verify there
            lifted = Embedding(
                tuple(((x - 1) // m) * 6 + ((x - 1) % m) + 1 for x in emb.mapping)
            )
            assert verify_embedding(lifted, gp, big), p
            embedded += 1
    assert embedded == 196
    _report(13, f"all {embedded} bipartite inversion graphs of sizes 1..6 embed in the 6x6 grid")


def test_criterion_14_enumerator_calibration():
    for n in range(1, 7):
        want = brute_force_bipartite_counts(n)
        connected = [len(bipartite_level(k)) for k in range(1, n + 1)]
        assert (euler_transform(connected)[-1], connected[-1]) == want, n
    _report(14, "connected class counts for n <= 6 and their Euler transform match the all-edge-subsets oracle exactly")

from __future__ import annotations

import itertools
import random

import pytest

from bipkit.graphs import Graph
from bipkit.matching import (
    Embedding,
    StepBudgetExceeded,
    are_isomorphic,
    count_induced_embeddings,
    find_induced_embedding,
    has_path_subgraph,
    is_free,
    verify_embedding,
)
from bipkit.families import (
    complete,
    complete_bipartite,
    cycle,
    h_antichain,
    p_tilde,
    path,
    s123,
    s_graph_star,
    sun4,
    t_graph_star,
    two_p3,
    universal_grid,
)
from bipkit.perms import Permutation, contains_pattern, permutation_graph


def brute_force_embedding_count(pattern: Graph, host: Graph) -> int:
    """Oracle: count all injective induced maps, with incremental consistency checks."""
    p, h = pattern.n, host.n
    mapping = [0] * p
    used = [False] * (h + 1)

    def rec(i: int) -> int:
        if i == p:
            return 1
        total = 0
        for x in range(1, h + 1):
            if used[x]:
                continue
            if all(
                pattern.has_edge(j + 1, i + 1) == host.has_edge(mapping[j], x)
                for j in range(i)
            ):
                mapping[i] = x
                used[x] = True
                total += rec(i + 1)
                used[x] = False
        return total

    return rec(0)


def _all_graph_classes(n: int) -> list[Graph]:
    """Every graph on n vertices up to isomorphism, by brute-force collapse."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    out: list[Graph] = []
    for code in range(1 << len(pairs)):
        g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (code >> i) & 1])
        if not any(are_isomorphic(g, other) for other in out):
            out.append(g)
    return out


def test_find_embedding_examples():
    emb = find_induced_embedding(path(3), path(4))
    assert emb is not None and verify_embedding(emb, path(3), path(4))
    assert find_induced_embedding(cycle(4), path(4)) is None
    assert find_induced_embedding(sun4(), t_graph_star(6).graph) is None
    assert find_induced_embedding(t_graph_star(6).graph, t_graph_star(8).graph) is None


def test_is_free_examples():
    assert is_free(path(6), [path(7)]).free
    assert is_free(s_graph_star(8).graph, [path(8), p_tilde(8)]).free
    assert is_free(t_graph_star(10).graph, [two_p3(), sun4()]).free
    hit = is_free(path(5), [cycle(3), path(3)])
    assert not hit.free and hit.pattern_index == 1
    assert verify_embedding(hit.witness, path(3), path(5))


def test_are_isomorphic_examples():
    relabeled = Graph.from_edges(4, [(2, 4), (4, 1), (1, 3)])
    assert are_isomorphic(path(4), relabeled)
    assert not are_isomorphic(cycle(6), two_p3())
    assert are_isomorphic(p_tilde(7), path(7))


def test_count_embeddings_examples():
    k1 = Graph.from_edges(1, [])
    assert count_induced_embeddings(k1, path(3), 10) == 3
    assert count_induced_embeddings(path(2), cycle(4), 10) == 8
    assert count_induced_embeddings(path(3), cycle(4), 100) == 8
    assert count_induced_embeddings(path(2), cycle(4), 3) == 3  # limit respected
    with pytest.raises(ValueError):
        count_induced_embeddings(k1, k1, 0)


def test_has_path_subgraph_examples():
    assert has_path_subgraph(cycle(9), 9)
    assert not has_path_subgraph(s123(), 9)
    assert has_path_subgraph(complete_bipartite(5, 4), 9)
    assert has_path_subgraph(path(2), 1)
    assert not has_path_subgraph(two_p3(), 4)  # component-size pruning path
    with pytest.raises(ValueError):
        has_path_subgraph(path(2), 0)


def test_has_path_subgraph_dp_route_matches_dfs():
    # hosts above 16 vertices take the subset-DP route
    assert has_path_subgraph(path(18), 18)
    assert not has_path_subgraph(path(18), 19)
    assert has_path_subgraph(complete_bipartite(9, 9), 18)
    g, _ = universal_grid(3, 6)
    for k in (2, 10, 18):
        assert has_path_subgraph(g, k) == _dfs_path_reference(g, k), k


def _dfs_path_reference(g: Graph, k: int) -> bool:
    if k == 1:
        return g.n >= 1

    def extend(v: int, visited: int, length: int) -> bool:
        if length == k:
            return True
        rest = g.adj[v] & ~visited
        while rest:
            low = rest & -rest
            rest ^= low
            if extend(low.bit_length() - 1, visited | low, length + 1):
                return True
        return False

    return any(extend(s, 1 << s, 1) for s in range(g.n))


def test_budget_exhaustion_is_loud():
    pattern = t_graph_star(6).graph
    host = t_graph_star(8).graph
    with pytest.raises(StepBudgetExceeded):
        find_induced_embedding(pattern, host, budget=3)
    with pytest.raises(StepBudgetExceeded):
        has_path_subgraph(complete_bipartite(6, 6), 12, budget=5)


def test_completeness_against_bruteforce_oracle(all_levels):
    patterns = _all_graph_classes(3) + _all_graph_classes(4)
    hosts = list(all_levels[6]) + list(all_levels[7])
    hosts += [complete(4), complete(5), cycle(5), cycle(7)]
    for pattern in patterns:
        for host in hosts:
            mine = find_induced_embedding(pattern, host)
            expected = brute_force_embedding_count(pattern, host)
            assert (mine is not None) == (expected > 0), (pattern.edges(), host.edges())
            if mine is not None:
                assert verify_embedding(mine, pattern, host)
            assert count_induced_embeddings(pattern, host, 10**9) == expected


def _quasi_order_pool() -> list[Graph]:
    pool = [path(n) for n in range(1, 8)]
    pool += [cycle(n) for n in range(3, 8)]
    pool += [complete_bipartite(a, b) for a, b in ((1, 3), (2, 2), (2, 3), (3, 3))]
    pool += [two_p3(), sun4(), s123(), h_antichain(2), p_tilde(8)]
    pool += [universal_grid(2, 3)[0], universal_grid(3, 3)[0]]
    pool += [permutation_graph(Permutation(p)) for p in ((2, 1, 4, 3), (3, 1, 4, 2))]
    assert len(pool) <= 30
    return pool


def test_quasi_order_laws_on_pool():
    pool = _quasi_order_pool()
    embeddings: dict[tuple[int, int], Embedding] = {}
    for i, g in enumerate(pool):
        emb = find_induced_embedding(g, g)
        assert emb is not None, "reflexivity"
        for j, h in enumerate(pool):
            found = find_induced_embedding(g, h)
            if found is not None:
                assert verify_embedding(found, g, h)
                embeddings[(i, j)] = found
    # transitivity by composing witnesses
    for (i, j), first in embeddings.items():
        for (jj, k), second in embeddings.items():
            if jj != j:
                continue
            composed = Embedding(tuple(second.mapping[x - 1] for x in first.mapping))
            assert verify_embedding(composed, pool[i], pool[k])


def test_consistency_with_pattern_containment():
    perms = []
    for m in range(1, 7):
        perms.extend(Permutation(p) for p in itertools.permutations(range(1, m + 1)))
    graphs = {p: permutation_graph(p) for p in perms}
    for host in perms:
        for pat in perms:
            if pat.size > host.size:
                continue
            if contains_pattern(host, pat):
                assert find_induced_embedding(graphs[pat], graphs[host]) is not None


def test_embedding_checker_rejects_bad_maps():
    emb = Embedding((1, 2, 2))
    assert not verify_embedding(emb, path(3), path(4))  # not injective
    emb = Embedding((1, 3, 2))
    assert not verify_embedding(emb, path(3), path(4))  # breaks induced condition
    emb = Embedding((1, 2, 9))
    assert not verify_embedding(emb, path(3), path(4))  # out of range
    emb = Embedding((1, 2))
    assert not verify_embedding(emb, path(3), path(4))  # wrong arity


def test_deterministic_witness():
    a = find_induced_embedding(path(4), cycle(8))
    b = find_induced_embedding(path(4), cycle(8))
    assert a == b


def test_random_agreement_with_oracle():
    rng = random.Random(20250808)
    for _ in range(600):
        np_, nh = rng.randint(1, 5), rng.randint(1, 7)
        pat = _random_graph(rng, np_)
        host = _random_graph(rng, nh)
        assert (find_induced_embedding(pat, host) is not None) == (brute_force_embedding_count(pat, host) > 0)


def _random_graph(rng: random.Random, n: int) -> Graph:
    density = rng.choice([0.2, 0.5, 0.8])
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < density
    ]
    return Graph.from_edges(n, edges)

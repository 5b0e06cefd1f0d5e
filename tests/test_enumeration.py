from __future__ import annotations

import pytest

from bipkit.graphs import find_bipartition, is_connected
from bipkit.matching import are_isomorphic
from bipkit.families import complete_bipartite, cycle, path
from bipkit.harness.enumeration import (
    brute_force_bipartite_counts,
    bipartite_level,
    enumerate_bipartite,
    refinement_certificate,
)


def test_counts_match_bruteforce_oracle():
    for n in range(1, 7):
        want_all, want_conn = brute_force_bipartite_counts(n)
        assert len(bipartite_level(n, False)) == want_all
        assert len(bipartite_level(n, True)) == want_conn


def test_frozen_small_counts():
    # values pinned from the brute-force oracle
    assert [len(bipartite_level(n, False)) for n in range(1, 7)] == [1, 2, 3, 7, 13, 35]
    assert [len(bipartite_level(n, True)) for n in range(1, 7)] == [1, 1, 1, 3, 5, 17]


def test_counts_match_published_values_and_euler_transform(connected_levels, all_levels):
    conn = [0] + [len(connected_levels[n]) for n in range(1, 12)]
    assert conn[7:] == [44, 182, 730, 4032, 25598]  # OEIS A005142
    # a graph is a multiset of connected graphs, so the all-graph counts are
    # the Euler transform of the connected counts
    c = [0] + [sum(d * conn[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, 9)]
    total = [1]
    for n in range(1, 9):
        total.append(sum(c[k] * total[n - k] for k in range(1, n + 1)) // n)
    assert total[1:] == [len(all_levels[n]) for n in range(1, 9)]


def test_connected_four_vertex_classes():
    level = bipartite_level(4, True)
    expected = [path(4), complete_bipartite(1, 3), cycle(4)]
    assert len(level) == 3
    for want in expected:
        assert sum(1 for g in level if are_isomorphic(g, want)) == 1


def test_stream_protocol():
    stream = enumerate_bipartite(4, connected_only=True)
    assert iter(stream) is stream
    graphs = list(stream)
    assert len(graphs) == 3
    for want in (path(4), complete_bipartite(1, 3), cycle(4)):
        assert sum(1 for g in graphs if are_isomorphic(g, want)) == 1
    with pytest.raises(ValueError):
        enumerate_bipartite(0)
    with pytest.raises(ValueError):
        enumerate_bipartite(13)


def test_enumerated_graphs_satisfy_constraints():
    for g in bipartite_level(7, False):
        assert find_bipartition(g) is not None
    for g in bipartite_level(7, True):
        assert find_bipartition(g) is not None
        assert is_connected(g)


def test_no_two_representatives_isomorphic():
    level = bipartite_level(6, False)
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
    assert refinement_certificate(g) == refinement_certificate(relabeled)
    # different classes usually separate already at the certificate
    assert refinement_certificate(path(4)) != refinement_certificate(cycle(4))

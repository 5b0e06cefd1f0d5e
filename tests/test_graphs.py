from __future__ import annotations

import random

import pytest

from bipkit.graphs import (
    Bipartition,
    Graph,
    GraphParseError,
    bipartite_complement,
    connected_components,
    find_bipartition,
    induced_subgraph,
    parse_graph,
    serialize_graph,
    validate_bipartition,
)
from bipkit.families import (
    complete_bipartite,
    cycle,
    p_tilde,
    path,
    sun4,
    t_graph_star,
    two_p3,
)
from bipkit.matching import are_isomorphic


def test_graph_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong adjacency length
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b10,))  # neighbour out of range
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 3)])


def test_equality_ignores_labels():
    g1 = Graph.from_edges(2, [(1, 2)], labels=["x", "y"])
    g2 = Graph.from_edges(2, [(1, 2)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1.label(1) == "x" and g2.label(1) is None


def test_from_edges_collapses_duplicates():
    g = Graph.from_edges(3, [(1, 2), (2, 1), (1, 2)])
    assert g.edge_count == 1


def test_induced_subgraph_examples():
    assert induced_subgraph(path(5), {1, 2, 3}) == path(3)
    assert induced_subgraph(cycle(4), {1, 2, 3}) == path(3)
    # deleting the central vertex of a 7-path leaves two 3-paths
    assert induced_subgraph(path(7), {1, 2, 3, 5, 6, 7}) == two_p3()
    g = t_graph_star(6).graph
    assert induced_subgraph(g, g.vertices()) == g
    with pytest.raises(ValueError):
        induced_subgraph(path(3), {0, 1})


def test_induced_subgraph_carries_labels():
    g = Graph.from_edges(3, [(1, 2)], labels=["a", "b", "c"])
    sub = induced_subgraph(g, {1, 3})
    assert sub.labels == ("a", "c")


def test_bipartite_complement_examples():
    g = complete_bipartite(3, 4)
    b = Bipartition.of({1, 2, 3}, {4, 5, 6, 7})
    assert bipartite_complement(g, b).edge_count == 0

    assert are_isomorphic(p_tilde(7), path(7))
    assert p_tilde(8).edge_count == 9


def test_bipartite_complement_is_involution_and_counts():
    rng = random.Random(4242)
    for _ in range(50):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        n = na + nb
        edges = [
            (u, na + v)
            for u in range(1, na + 1)
            for v in range(1, nb + 1)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        b = Bipartition.of(set(range(1, na + 1)), set(range(na + 1, n + 1)))
        comp = bipartite_complement(g, b)
        assert bipartite_complement(comp, b) == g
        assert g.edge_count + comp.edge_count == na * nb


def test_bipartite_complement_rejects_invalid_parts():
    with pytest.raises(ValueError):
        bipartite_complement(path(3), Bipartition.of({1, 2}, {3}))
    with pytest.raises(ValueError):
        bipartite_complement(path(3), Bipartition.of({1}, {2}))


def test_find_bipartition_examples():
    assert find_bipartition(cycle(4)) == Bipartition.of({1, 3}, {2, 4})
    assert find_bipartition(cycle(5)) is None
    b = find_bipartition(sun4())
    assert b is not None
    assert len(b.part_a) == 4 and len(b.part_b) == 4
    validate_bipartition(sun4(), b)


def _two_colorable_bruteforce(g: Graph) -> bool:
    n = g.n
    for coloring in range(1 << n):
        ok = True
        for u, v in g.edges():
            if ((coloring >> (u - 1)) & 1) == ((coloring >> (v - 1)) & 1):
                ok = False
                break
        if ok:
            return True
    return False


def test_find_bipartition_matches_bruteforce_two_coloring():
    # exhaustive over all labelled graphs on up to 5 vertices
    for n in range(1, 6):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        for code in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (code >> i) & 1]
            g = Graph.from_edges(n, edges)
            assert (find_bipartition(g) is not None) == _two_colorable_bruteforce(g)
    # seeded samples at 6 and 7 vertices
    rng = random.Random(99)
    for n in (6, 7):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        for _ in range(400):
            edges = [p for p in pairs if rng.random() < 0.3]
            g = Graph.from_edges(n, edges)
            assert (find_bipartition(g) is not None) == _two_colorable_bruteforce(g)


def test_find_bipartition_result_is_valid():
    for g in (path(6), cycle(6), sun4(), two_p3(), complete_bipartite(2, 5)):
        b = find_bipartition(g)
        validate_bipartition(g, b)


def test_connected_components_examples():
    assert connected_components(two_p3()) == [(1, 2, 3), (4, 5, 6)]
    assert connected_components(Graph.from_edges(1, [])) == [(1,)]
    comps = connected_components(t_graph_star(6).graph)
    assert len(comps) == 1 and len(comps[0]) == 24


def test_parse_and_serialize_round_trip():
    g, b = parse_graph("p 2\ne 1 2\n")
    assert g == path(2) and b is None

    text = "# comment\np 3\nb 1 3\ne 1 2\ne 2 3\n"
    g, b = parse_graph(text)
    assert g == path(3)
    assert b == Bipartition.of({1, 3}, {2})

    canonical = serialize_graph(g, b)
    assert canonical == "p 3\nb 1 3\ne 1 2\ne 2 3\n"
    g2, b2 = parse_graph(canonical)
    assert (g2, b2) == (g, b)
    # serialization is deterministic regardless of edge input order
    shuffled = Graph.from_edges(3, [(2, 3), (1, 2)])
    assert serialize_graph(shuffled, b) == canonical


def test_parse_errors_carry_line_numbers():
    cases = [
        ("p 3\ne 1 2\ne 1 2\n", 3, "duplicate edge"),
        ("p x\n", 1, "not an integer"),
        # only canonical decimals: int() would read these as 10, 1 and 3
        ("p 1_0\n", 1, "vertex count is not an integer in canonical form"),
        ("p 4\ne +1 0003\n", 2, "edge endpoint is not an integer in canonical form"),
        ("p 4\ne 1 \u0663\n", 2, "edge endpoint is not an integer in canonical form"),
        ("p 4\nb 01\n", 2, "id in 'b' line is not an integer in canonical form"),
        ("e 1 2\n", 1, "before header"),
        ("p 2\ne 2 1\n", 2, "u < v"),
        ("p 2\ne 1 5\n", 2, "out of range"),
        ("p 2\nq 1\n", 2, "unknown line"),
        ("p 2\nb 1\nb 2\n", 3, "duplicate 'b'"),
        ("", 1, "missing"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line_no == line
        assert fragment in str(err.value)


def test_parse_rejects_invalid_bipartition():
    with pytest.raises(ValueError):
        parse_graph("p 2\nb 1 2\ne 1 2\n")

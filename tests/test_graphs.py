from __future__ import annotations

import dataclasses
import pickle
import random
import tracemalloc

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
from bipkit.perms import Permutation


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


def test_graph_constructors_refuse_values_of_the_wrong_type():
    # each of these failed with a TypeError before any check was reached
    for build, message in (
        (lambda: Graph("2", (0, 0)), "vertex count must be an int of at least 0, got '2'"),
        (lambda: Graph(True, (0,)), "vertex count must be an int of at least 0, got True"),
        (lambda: Graph(-1, ()), "vertex count must be an int of at least 0, got -1"),
        (lambda: Graph(2, (0.0, 0)), "vertex 1 row must be an int bitmask, got 0.0"),
        (lambda: Graph(2, (0, True)), "vertex 2 row must be an int bitmask, got True"),
        # a list constructed, and then hash() raised TypeError; None failed at len
        (lambda: Graph(2, [0, 0]), "adjacency must be a tuple of int bitmasks, got a list"),
        (lambda: Graph(2, None), "adjacency must be a tuple of int bitmasks, got a NoneType"),
        (lambda: Graph.from_edges(3, [1]), "edge 1 must be a pair of vertex ids, got 1"),
        (lambda: Graph.from_edges(3, [(1, 2), (1, 2, 3)]), "edge 2 must be a pair of vertex ids, got (1, 2, 3)"),
        (lambda: Graph.from_edges("3", []), "vertex count must be an int of at least 0, got '3'"),
        (lambda: Graph.from_edges(3, [(1, 2.0)]), "edge endpoints must be ints in 1..3, got 1,2.0"),
        (lambda: Graph.from_edges(3, [("1", 2)]), "edge endpoints must be ints in 1..3, got '1',2"),
        (lambda: Graph.from_edges(2, [(1, 3)]), "edge endpoints must be ints in 1..2, got 1,3"),
        (lambda: induced_subgraph(path(3), ["1"]), "vertex must be an int in 1..3, got '1'"),
        (lambda: induced_subgraph(path(3), [1.0, 2]), "vertex must be an int in 1..3, got 1.0"),
        (lambda: induced_subgraph(path(3), ["1", 2]), "vertex must be an int in 1..3, got '1'"),
        (lambda: induced_subgraph(path(3), [4]), "vertex must be an int in 1..3, got 4"),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    assert Graph(0, ()) == Graph.from_edges(0, []) == induced_subgraph(path(3), [])


@pytest.mark.parametrize("bad", [0, -1, 5, "1", True, 2.5])
def test_vertex_and_position_accessors_refuse_a_bad_id(bad):
    # unchecked, 0 and -1 read the last row or entry, True read the first,
    # and the rest raised an IndexError, a TypeError or an unlocated
    # "negative shift count"
    g, p = path(4), Permutation((2, 1, 4, 3))
    for read in (g.neighbors, g.degree, lambda v: g.has_edge(v, 1), lambda v: g.has_edge(1, v)):
        with pytest.raises(ValueError) as info:
            read(bad)
        assert str(info.value) == f"vertex must be an int in 1..4, got {bad!r}"
    with pytest.raises(ValueError) as info:
        p(bad)
    assert str(info.value) == f"position must be an int in 1..4, got {bad!r}"
    assert (g.neighbors(1), g.degree(2), g.has_edge(3, 4), p(4)) == ((2,), 2, True, 3)


def test_equality_and_hash_go_by_rows(connected_levels):
    # every way of making a graph, the worker pool's pickle round trip
    # included, gives one value per (n, rows)
    rows = (0b010, 0b101, 0b010)
    made = [
        Graph(3, rows),
        Graph.from_edges(3, [(2, 3), (1, 2), (2, 1)]),
        Graph._trusted(3, rows),
        pickle.loads(pickle.dumps(Graph._trusted(3, rows))),
        pickle.loads(pickle.dumps(path(3))),
    ]
    for g in made:
        assert g == path(3) and hash(g) == hash(path(3))
        assert (g.n, g.adj) == (3, rows)
    assert len(set(made)) == 1
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj"]
    # a level's graphs hold their fields in slots, with no dict, and agree
    # with the checked constructor through a pickle round trip
    for g in connected_levels[9][::100]:
        assert not hasattr(g, "__dict__")
        same = Graph(g.n, g.adj)
        for other in (g, pickle.loads(pickle.dumps(g))):
            assert other == same and hash(other) == hash(same) and repr(other) == repr(same)
            assert other.__class__ is Graph
    # other rows, another vertex count or another type are not equal
    assert Graph(3, (0b110, 0b001, 0b001)) != path(3)
    assert Graph(4, rows + (0,)) != path(3)
    assert Graph(3, rows) != (3, rows)


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


def test_bipartition_parts_are_frozensets_of_ints():
    # each part is a frozenset of int vertex ids, a bool refused, as Graph
    # and Permutation refuse what they do not declare: 1.0 reached
    # validate_bipartition's mask_of as a TypeError, True was taken as
    # vertex 1, and a list or None raised TypeError at construction; an id
    # below 1 has no bit in the part's mask
    for part in ({1.0, 3}, {True, 3}, {"1", 3}, {None}, {0, 3}, {-1, 3}):
        with pytest.raises(ValueError, match="part A must be a frozenset of int vertex ids"):
            Bipartition.of(part, {2, 4})
        with pytest.raises(ValueError, match="part B must be a frozenset of int vertex ids"):
            Bipartition.of({2, 4}, part)
    for a, b in (([1], [2]), (None, None), ({1}, frozenset({2})), (frozenset({1}), (2,))):
        with pytest.raises(ValueError, match="part [AB] must be a frozenset of int vertex ids"):
            Bipartition(a, b)
    b = Bipartition(frozenset({1, 3}), frozenset({2, 4}))
    assert b == Bipartition.of([1, 3], (2, 4)) and b.flipped() == Bipartition.of({2, 4}, {1, 3})
    validate_bipartition(path(4), b)
    # validate_bipartition keeps its messages for parts of ints
    with pytest.raises(ValueError, match="parts do not cover the vertex set"):
        validate_bipartition(path(4), Bipartition.of({1, 3}, {2}))
    # a valid bipartition names ids 1..|A| + |B|; a larger id is refused
    # before its mask is built, which for 10**7 takes 1.33 MB
    for part_b, top, size in (({2, 5}, 5, 4), ({10**7}, 10**7, 3)):
        with pytest.raises(ValueError, match=rf"^vertex id {top} is above \|A\| \+ \|B\| = {size}$"):
            Bipartition.of({1, 3}, part_b)


def test_bipartition_is_two_masks(connected_levels):
    graphs = [g for n in range(1, 11) for g in connected_levels[n]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parts = [find_bipartition(g) for g in graphs]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # two masks take about 100 B a bipartition, two frozensets about 1.2 kB
    assert len(parts) == 5016 and held < 1 << 20, held
    assert not hasattr(parts[0], "__dict__")
    for b in parts[::250]:
        same = Bipartition.of(b.part_a, b.part_b)
        for other in (same, pickle.loads(pickle.dumps(b))):
            assert other == b and hash(other) == hash(b) and other.__class__ is Bipartition
        assert b != (b.mask_a, b.mask_b) and b != (b.part_a, b.part_b)
    b = Bipartition.of({1, 3}, {2, 4})
    assert (b.mask_a, b.mask_b) == (0b0101, 0b1010)
    assert repr(b) == "Bipartition(part_a=frozenset({1, 3}), part_b=frozenset({2, 4}))"


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

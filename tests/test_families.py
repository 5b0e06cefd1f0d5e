from __future__ import annotations

import random
import re

import pytest

from bipkit.graphs import mask_of, validate_bipartition
from bipkit.matching import (
    are_isomorphic,
    count_induced_embeddings,
    find_induced_embedding,
    has_path_subgraph,
    is_free,
)
from bipkit.perms import (
    BiconvexWitness,
    identity,
    mu_star,
    rho_star,
    star_perm_S,
    star_perm_T,
)
from bipkit.families import (
    GRAPH_FAMILIES,
    PERM_FAMILIES,
    build_family,
    complete,
    complete_bipartite,
    cycle,
    h_antichain,
    p_tilde,
    path,
    s123,
    s_graph,
    s_graph_star,
    sun1,
    sun4,
    t_graph,
    t_graph_star,
    two_p3,
    universal_grid,
)
from bipkit.harness.enumeration import bipartite_level
from bipkit.harness.suites import SuiteOptions, brute_grid_permutation, grid_permutation, random_leaf_tree
from bipkit.structure import letter_representation_grid


def _zone_checks(layout, n):
    g = layout.graph
    zones = {z: layout.zone_vertices(z) for z in "ABCD"}
    for z, vs in zones.items():
        assert len(vs) == n
        zmask = mask_of(vs)
        for v in vs:
            assert g.adj[v - 1] & zmask == 0, f"zone {z} not independent"
    a, b, c, d = (zones[z] for z in "ABCD")
    pi = star_perm_T(n)
    # matching between A and B follows the permutation
    for i in range(1, n + 1):
        nbrs_b = [u for u in g.neighbors(a[i - 1]) if u in set(b)]
        assert nbrs_b == [b[pi(i) - 1]]
    # C against D is a biclique
    for ci in c:
        assert set(d) <= set(g.neighbors(ci))
    # staircase neighbourhoods
    for i in range(1, n + 1):
        nbrs_d = [u for u in g.neighbors(a[i - 1]) if u in set(d)]
        assert nbrs_d == list(d[:i])
        nbrs_c = [u for u in g.neighbors(b[i - 1]) if u in set(c)]
        assert nbrs_c == list(c[:i])
        assert g.degree(a[i - 1]) == i + 1


def test_t_graph_layout_invariants():
    for n in range(6, 18, 2):
        layout = t_graph_star(n)
        _zone_checks(layout, n)
        validate_bipartition(layout.graph, layout.bipartition)


def test_t_graph_counts_and_labels():
    layout = t_graph_star(6)
    g = layout.graph
    assert g.n == 24 and g.edge_count == 84
    assert layout.zones[1] == ("A", 1) and layout.zones[7] == ("B", 1) and layout.zones[24] == ("D", 6)


def test_t_graph_accepts_any_permutation():
    layout = t_graph(identity(3))
    assert layout.graph.n == 12
    # matching is a_i ~ b_i under the identity
    assert layout.graph.has_edge(1, 4) and layout.graph.has_edge(2, 5)


def test_s_graph_layout_invariants():
    for n in range(8, 18, 2):
        layout = s_graph_star(n)
        g = layout.graph
        validate_bipartition(g, layout.bipartition)
        a = layout.zone_vertices("A")
        b = layout.zone_vertices("B")
        c = layout.zone_vertices("C")
        rho, mu = rho_star(n), mu_star(n)
        aset, cset = set(a), set(c)
        for i in range(1, n + 1):
            nbrs_a = [u for u in g.neighbors(b[i - 1]) if u in aset]
            assert nbrs_a == list(a[: rho(i)])
            nbrs_c = [u for u in g.neighbors(b[i - 1]) if u in cset]
            assert nbrs_c == list(c[: mu(i)])
            assert g.degree(b[i - 1]) == rho(i) + mu(i)
        # the prefix structure reflected from the outer zones
        for i in range(1, n + 1):
            assert set(g.neighbors(a[i - 1])) == {b[j - 1] for j in range(1, n + 1) if rho(j) >= i}
            assert set(g.neighbors(c[i - 1])) == {b[j - 1] for j in range(1, n + 1) if mu(j) >= i}


def test_s_graph_counts():
    g = s_graph_star(8).graph
    assert g.n == 24 and g.edge_count == 72
    assert g.degree(9) == 3  # first vertex of the middle zone


def test_s_graph_rejects_bad_witness():
    with pytest.raises(ValueError):
        s_graph(star_perm_S(10), BiconvexWitness(mu=rho_star(10), rho=rho_star(10)))


def test_universal_grid():
    g, b = universal_grid(5, 5)
    assert g.n == 25 and g.edge_count == 60
    validate_bipartition(g, b)
    assert universal_grid(1, 7)[0].edge_count == 0
    g22, _ = universal_grid(2, 2)
    assert set(g22.edges()) == {(1, 3), (2, 3), (2, 4)}
    assert are_isomorphic(g22, path(4))
    with pytest.raises(ValueError):
        universal_grid(0, 3)


def test_named_small_graphs():
    assert sun4().n == 8 and sun4().edge_count == 8
    assert sun1().n == 5 and sun1().edge_count == 5
    tree = s123()
    assert tree.n == 7 and tree.edge_count == 6
    assert sorted((tree.degree(v) for v in tree.vertices()), reverse=True) == [3, 2, 2, 2, 1, 1, 1]
    assert two_p3().edge_count == 4
    assert h_antichain(3).n == 8
    assert complete(4).edge_count == 6
    assert complete_bipartite(2, 3).edge_count == 6
    assert are_isomorphic(p_tilde(7), path(7))
    for builder, bad in ((path, 0), (cycle, 2), (complete, 0), (h_antichain, 0)):
        with pytest.raises(ValueError):
            builder(bad)


def test_sun_graphs_shape():
    # sun4: every cycle vertex has exactly one pendant
    g = sun4()
    cycle_vertices = [v for v in g.vertices() if g.degree(v) == 3]
    pendants = [v for v in g.vertices() if g.degree(v) == 1]
    assert len(cycle_vertices) == 4 and len(pendants) == 4
    assert find_induced_embedding(cycle(4), g) is not None
    # sun1 arises from sun4 by deleting three pendants
    assert find_induced_embedding(sun1(), g) is not None


def test_h_family_is_an_antichain_prefix():
    members = [h_antichain(i) for i in range(1, 7)]
    for x in members:
        for y in members:
            if x is y:
                continue
            assert find_induced_embedding(x, y) is None


def test_family_freeness_spot_checks():
    assert is_free(t_graph_star(6).graph, [two_p3(), sun4()]).free
    assert is_free(s_graph_star(8).graph, [path(8), p_tilde(8)]).free


@pytest.mark.parametrize(
    "build, args, message",
    [
        (path, (2.5,), "n must be an int of at least 1, got 2.5"),
        (path, (True,), "n must be an int of at least 1, got True"),
        (path, (0,), "n must be an int of at least 1, got 0"),
        (cycle, (4.0,), "n must be an int of at least 3, got 4.0"),
        (cycle, (True,), "n must be an int of at least 3, got True"),
        (complete, (True,), "n must be an int of at least 1, got True"),
        (complete_bipartite, (True, 2), "a must be an int of at least 1, got True"),
        (complete_bipartite, (2, 1.5), "b must be an int of at least 1, got 1.5"),
        (h_antichain, (2.0,), "i must be an int of at least 1, got 2.0"),
        (universal_grid, (2.5, 2), "k must be an int of at least 1, got 2.5"),
        (universal_grid, (2, True), "m must be an int of at least 1, got True"),
        (letter_representation_grid, (True, 3), "k must be an int of at least 1, got True"),
        (grid_permutation, (3, 2.0), "m must be an int of at least 1, got 2.0"),
        (star_perm_T, (6.0,), "n must be an int of at least 6, got 6.0"),
        (star_perm_T, (7,), "defined for even n >= 6"),
        (star_perm_S, (8.0,), "n must be an int of at least 8, got 8.0"),
        (rho_star, (10.0,), "n must be an int of at least 8, got 10.0"),
        (mu_star, (9,), "defined for even n >= 8"),
        (mu_star, (True,), "n must be an int of at least 8, got True"),
    ],
)
def test_family_sizes_are_ints(build, args, message):
    # a float size raised TypeError deep in the build, and True built the
    # size-1 member; every size goes through ``graphs._int_in``, type first
    # and then the family's least size, and only the parity messages are the
    # builders' own
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(*args)


BAD_COUNTS = ("3", None, 2.5, True, 0, -1)


def _least_size(name: str, count: int) -> int:
    """The least n at which the family builds with every parameter n."""
    for n in range(1, 13):
        try:
            build_family(name, *[n] * count)
        except ValueError:
            continue
        return n
    raise AssertionError(f"family {name} builds at no size up to 12")


def _count_sites():
    """(label, call, least) for every count the package reads through
    ``graphs._int_in``: each parameter of each registered family (the others
    at the family's least size), each perm family, and each builder, option
    and search parameter outside the registries."""
    sites = []
    for name, (count, _) in GRAPH_FAMILIES.items():
        if name == "perm-graph":  # takes a Permutation, not a count
            continue
        least = _least_size(name, count)
        for at in range(count):
            call = lambda bad, name=name, at=at, count=count, least=least: build_family(
                name, *[least] * at, bad, *[least] * (count - at - 1)
            )
            sites.append((f"{name}#{at + 1}", call, 1))
    for name, member in PERM_FAMILIES.items():
        sites.append((f"perm-{name}", member, 1))
    sites += [
        ("letter-grid#1", lambda bad: letter_representation_grid(bad, 2), 1),
        ("letter-grid#2", lambda bad: letter_representation_grid(2, bad), 1),
        ("grid_permutation#1", lambda bad: grid_permutation(bad, 2), 1),
        ("grid_permutation#2", lambda bad: grid_permutation(2, bad), 1),
        ("brute_grid_permutation", brute_grid_permutation, 1),
        ("random_leaf_tree.max_depth", lambda bad: random_leaf_tree(random.Random(1), max_depth=bad), 0),
        ("random_leaf_tree.max_leaves", lambda bad: random_leaf_tree(random.Random(1), max_leaves=bad), 1),
        ("SuiteOptions.lemma_key_max", lambda bad: SuiteOptions(lemma_key_max=bad), 1),
        ("SuiteOptions.lemma_reduction_max", lambda bad: SuiteOptions(lemma_reduction_max=bad), 1),
        ("SuiteOptions.workers", lambda bad: SuiteOptions(workers=bad), 1),
        ("bipartite_level", bipartite_level, 1),
        # checked before the graphs are read, so None stands in for them
        ("has_path_subgraph.k", lambda bad: has_path_subgraph(None, bad), 1),
        ("count_induced_embeddings.limit", lambda bad: count_induced_embeddings(None, None, bad), 1),
    ]
    return sites


@pytest.mark.parametrize(
    "call, bad",
    [
        pytest.param(call, bad, id=f"{label}-{bad!r}")
        for label, call, least in _count_sites()
        for bad in BAD_COUNTS
        if bad.__class__ is not int or bad < least
    ],
)
def test_every_count_refuses_bad_values(call, bad):
    # one rule for every count: a non-int or an out-of-range value raises a
    # ValueError that names it, never a TypeError from a comparison or a
    # build; a family added to a registry is covered here without an edit
    with pytest.raises(ValueError) as info:
        call(bad)
    rule = rf".+ must be an int (of at least \d+|in \d+\.\.\d+), got {re.escape(repr(bad))}"
    assert re.fullmatch(rule, str(info.value)), str(info.value)

from __future__ import annotations

import hashlib
import itertools
import random
import re

import pytest
from conftest import all_bipartite, round_one_keys

import bipkit.matching
import bipkit.perms
from bipkit.graphs import Graph
from bipkit.matching import (
    Embedding,
    StepBudgetExceeded,
    _Budget,
    _automorphism_generators,
    _parts,
    _pattern_symmetry,
    _refinement_colors,
    _search,
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
    sun1,
    sun4,
    t_graph_star,
    two_p3,
    universal_grid,
)
from bipkit.perms import (
    Permutation,
    contains_pattern,
    mu_star,
    permutation_graph,
    rho_star,
    star_perm_S,
    star_perm_T,
)


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


def test_has_path_subgraph_large_hosts_match_dfs():
    assert has_path_subgraph(path(18), 18)
    assert not has_path_subgraph(path(18), 19)
    assert has_path_subgraph(complete_bipartite(9, 9), 18)
    for rows, cols, ks in ((3, 6, (2, 10, 18)), (4, 5, (9, 12)), (5, 5, (9, 12))):
        g, _ = universal_grid(rows, cols)
        for k in ks:
            assert has_path_subgraph(g, k) == _dfs_path_reference(g, k), (rows, cols, k)
    # parts of 15 and 10 vertices hold no path longer than 21: answered without search
    assert not has_path_subgraph(universal_grid(5, 5)[0], 25, budget=1000)


def test_has_path_subgraph_matches_dfs_on_small_connected_graphs(connected_levels):
    for n in range(1, 10):
        for g in connected_levels[n]:
            for k in range(2, 11):
                assert has_path_subgraph(g, k) == _dfs_path_reference(g, k), (g.edges(), k)


def test_has_path_subgraph_matches_dfs_on_small_graphs():
    # disconnected hosts: each component gets its own size and parity bound
    for n in range(1, 9):
        for g in all_bipartite(n):
            for k in range(1, n + 2):
                assert has_path_subgraph(g, k) == _dfs_path_reference(g, k), (g.edges(), k)


def test_has_path_subgraph_bounds_bipartite_components_of_a_non_bipartite_host():
    # K1,20 on 1..21 holds no path on 4 vertices, though C5 on 22..26 makes
    # the host non-bipartite: the star is skipped unsearched
    star = [(1, leaf) for leaf in range(2, 22)]
    c5 = [(v, v + 1) for v in range(22, 26)] + [(26, 22)]
    g = Graph.from_edges(26, star + c5)
    assert has_path_subgraph(g, 4, budget=100)
    assert not has_path_subgraph(g, 6, budget=100)
    # a component with an odd cycle gets the size bound only: K4's search
    # layers {1} and {2, 3, 4} would wrongly allow 3 path vertices
    assert has_path_subgraph(complete(4), 4)


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
    # the order constraints are paid from the pattern's budget too
    with pytest.raises(StepBudgetExceeded):
        is_free(t_graph_star(10).graph, [two_p3(), sun4()], budget=5)


def test_search_entries_reject_a_bad_budget_before_their_graphs():
    # None stands in for every graph and permutation, so an entry that looked
    # at them before its budget would fail with another error
    entries = {
        "find_induced_embedding": lambda b: find_induced_embedding(None, None, budget=b),
        "count_induced_embeddings": lambda b: count_induced_embeddings(None, None, 5, budget=b),
        "is_free": lambda b: is_free(None, [None], budget=b),
        "are_isomorphic": lambda b: are_isomorphic(None, None, budget=b),
        "has_path_subgraph": lambda b: has_path_subgraph(None, 3, budget=b),
        "contains_pattern": lambda b: contains_pattern(None, None, budget=b),
    }
    for entry in entries.values():
        for bad in (-1, True, 2.5, "7"):
            with pytest.raises(ValueError, match=f"^budget must be an int of at least 0, got {bad!r}$"):
                entry(bad)
    with pytest.raises(ValueError, match="budget"):
        is_free(None, [], budget=-1)
    # a zero budget is valid, and the first step runs it out
    relabeled = Graph.from_edges(4, [(2, 4), (4, 1), (1, 3)])
    for run in (
        lambda: find_induced_embedding(path(3), path(4), budget=0),
        lambda: count_induced_embeddings(path(2), cycle(4), 3, budget=0),
        lambda: is_free(path(4), [path(3)], budget=0),
        lambda: are_isomorphic(path(4), relabeled, budget=0),
        lambda: has_path_subgraph(path(3), 2, budget=0),
        lambda: contains_pattern(Permutation((2, 1, 3)), Permutation((2, 1)), budget=0),
    ):
        with pytest.raises(StepBudgetExceeded):
            run()


def test_path_length_and_count_limit_must_be_ints_of_at_least_one():
    # checked before the graphs are read, so None stands in for them; a float
    # length ran a full search and a string one raised TypeError
    for bad in (2.5, True, "3", 0):
        with pytest.raises(ValueError, match=re.escape(f"path length k must be an int of at least 1, got {bad!r}")):
            has_path_subgraph(None, bad)
        with pytest.raises(ValueError, match=re.escape(f"limit must be an int of at least 1, got {bad!r}")):
            count_induced_embeddings(None, None, bad)


def test_cached_order_constraints_charge_their_steps_on_every_call():
    host, pattern = t_graph_star(10).graph, two_p3()
    larger, cost = _pattern_symmetry(pattern, _Budget(None).limit)
    tracker = _Budget(None)
    tracker.spent = cost
    assert next(_search(pattern.adj, host.adj, tracker, larger=larger), None) is None
    total = tracker.spent
    assert cost > 0 and total > cost
    _pattern_symmetry.cache_clear()
    with pytest.raises(StepBudgetExceeded):
        is_free(host, [pattern], budget=cost - 1)
    assert _pattern_symmetry.cache_info().currsize == 0  # a build that runs out is not kept
    assert is_free(host, [pattern], budget=total).free
    assert _pattern_symmetry.cache_info().currsize == 1
    assert _pattern_symmetry(pattern, total) == (larger, cost)
    for budget in (cost - 1, total - 1):
        for _ in range(2):  # a miss, then for total - 1 a hit, which charges the build again
            with pytest.raises(StepBudgetExceeded):
                is_free(host, [pattern], budget=budget)
    info = _pattern_symmetry.cache_info()
    assert (info.hits, info.currsize) == (2, 2)
    assert is_free(host, [pattern], budget=total).free
    assert _pattern_symmetry.cache_info().hits == 3


def test_has_path_subgraph_finds_paths_longer_than_the_recursion_limit():
    assert has_path_subgraph(path(1500), 1500)
    assert not has_path_subgraph(path(1500), 1501)


def test_embedding_search_is_deeper_than_the_recursion_limit():
    emb = find_induced_embedding(path(1100), path(1100))
    assert emb is not None and verify_embedding(emb, path(1100), path(1100))


def test_completeness_against_bruteforce_oracle():
    patterns = _all_graph_classes(3) + _all_graph_classes(4)
    hosts = list(all_bipartite(6)) + list(all_bipartite(7))
    hosts += [complete(4), complete(5), cycle(5), cycle(7)]
    for pattern in patterns:
        for host in hosts:
            mine = find_induced_embedding(pattern, host)
            expected = brute_force_embedding_count(pattern, host)
            assert (mine is not None) == (expected > 0), (pattern.edges(), host.edges())
            if mine is not None:
                assert verify_embedding(mine, pattern, host)
            assert count_induced_embeddings(pattern, host, 10**9) == expected
            # walked to the end, the search yields every embedding once, the
            # first of them being find_induced_embedding's
            walked = list(_search(pattern.adj, host.adj, _Budget(None)))
            assert len(set(walked)) == len(walked) == expected, (pattern.edges(), host.edges())
            assert all(verify_embedding(Embedding(found), pattern, host) for found in walked)
            assert walked[:1] == ([] if mine is None else [mine.mapping])


def _disjoint(*graphs: Graph) -> Graph:
    """Disjoint union, the vertices of each graph numbered after the previous ones."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)


def test_component_and_parity_filter_against_bruteforce_oracle():
    # hosts mixing an odd-cycle component with a bipartite one, both ways round
    mixed = [(cycle(5), path(4)), (complete(3), cycle(6)), (cycle(5), complete_bipartite(1, 3))]
    hosts = [_disjoint(a, b) for a, b in mixed] + [_disjoint(b, a) for a, b in mixed]
    two_k2 = _disjoint(path(2), path(2))
    patterns = [two_k2, _disjoint(path(3), path(1)), _disjoint(path(2), path(3))]
    patterns += [_disjoint(complete(3), path(1)), path(3), path(4), cycle(5)]
    for pattern in patterns:
        for host in hosts:
            expected = brute_force_embedding_count(pattern, host)
            mine = find_induced_embedding(pattern, host)
            assert (mine is not None) == (expected > 0), (pattern.edges(), host.edges())
            if mine is not None:
                assert verify_embedding(mine, pattern, host)
            assert count_induced_embeddings(pattern, host, 10**9) == expected


def test_odd_cycle_into_bipartite_host_needs_no_step():
    assert find_induced_embedding(cycle(5), universal_grid(4, 4)[0], budget=0) is None


def test_lemma_pattern_search_steps_are_pinned(connected_levels):
    # Budget steps of the first-embedding search over every connected
    # bipartite graph on 1..9 vertices (1,211 hosts) and on 1..10 (5,016
    # hosts), as the module docstring states them.  Steps are exact where
    # wall time is noisy, so a change that loses pruning fails here.  Before
    # the component-and-parity filter the 1..9 totals were C4 5,949, P7
    # 43,097, Sun1 6,089 and S123 27,368.
    pinned = {
        9: {"C4": 5913, "P7": 15470, "Sun1": 6051, "S123": 10666},
        10: {"C4": 30257, "P7": 106534, "Sun1": 31552, "S123": 80411},
    }
    patterns = {"C4": cycle(4), "P7": path(7), "Sun1": sun1(), "S123": s123()}
    totals = {9: {}, 10: {}}
    for name, pattern in patterns.items():
        total = 0
        for n in range(1, 11):
            for host in connected_levels[n]:
                # the second search into the host reads its cached set-up and
                # must find the same embedding with the same steps, and an
                # unbounded budget counts the steps a bounded one does
                runs = []
                for limit in (None, 10**12):
                    tracker = _Budget(limit)
                    runs.append((next(_search(pattern.adj, host.adj, tracker), None), tracker.spent))
                assert runs[0] == runs[1], (name, host.adj)
                total += runs[0][1]
            if n in totals:
                totals[n][name] = total
    assert totals == pinned


def test_cached_search_set_up_runs_out_of_budget_at_the_same_step(connected_levels):
    host = connected_levels[10][-1]
    for pattern in (cycle(4), path(7), sun1(), s123()):
        tracker = _Budget(None)
        found = next(_search(pattern.adj, host.adj, tracker), None)
        steps = tracker.spent
        assert steps > 0
        for cold in (True, False):  # a cache miss, then a hit
            if cold:
                _parts.cache_clear()
            with pytest.raises(StepBudgetExceeded):
                find_induced_embedding(pattern, host, budget=steps - 1)
            emb = find_induced_embedding(pattern, host, budget=steps)
            assert (None if emb is None else emb.mapping) == found


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
    # an image that is not an int is no host vertex: a string or a float
    # raised TypeError, and True passed as vertex 1
    for bad in ((1, "2"), (1, 2.0), (True, 2)):
        assert not verify_embedding(Embedding(bad), path(2), path(3)), bad


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


# ---------------------------------------------------------------------------
# symmetry-breaking order constraints (is_free)

SYMMETRIC_PATTERNS = {
    "C4": cycle(4),
    "P7": path(7),
    "P8": path(8),
    "P~8": p_tilde(8),
    "2P3": two_p3(),
    "Sun1": sun1(),
    "Sun4": sun4(),
    "S123": s123(),
    "K3,3": complete_bipartite(3, 3),
    "K1,4": complete_bipartite(1, 4),
    "C6": cycle(6),
    "4K1": Graph.from_edges(4, []),
    "T6": t_graph_star(6).graph,
    "S8": s_graph_star(8).graph,
}


def _constrained_count(pattern: Graph, host: Graph) -> int:
    larger = _pattern_symmetry(pattern, _Budget(None).limit)[0]
    return sum(1 for _ in _search(pattern.adj, host.adj, _Budget(None), larger=larger))


def test_order_constraints_follow_the_orbit_stabiliser_theorem():
    # base point u's orbit under the stabiliser of the earlier base points is
    # u plus the vertices that must map above it; the orbit sizes multiply to |Aut|
    for name, pattern in SYMMETRIC_PATTERNS.items():
        larger = _pattern_symmetry(pattern, _Budget(None).limit)[0] or []
        product = 1
        for mask in larger:
            product *= 1 + mask.bit_count()
        assert product == count_induced_embeddings(pattern, pattern, 10**9), name


LEMMA_PATTERNS = ("C4", "P7", "Sun1", "S123", "2P3", "Sun4", "P8", "P~8")


def _brute_force_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Every relabelling of the n! that keeps the rows, as 0-based images."""
    n = g.n
    return {
        perm
        for perm in itertools.permutations(range(n))
        if all(sum(1 << perm[y] for y in range(n) if g.adj[x] >> y & 1) == g.adj[perm[x]] for x in range(n))
    }


def _closure(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """The group the generators generate, closed by products."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for gen in gens:
            b = tuple(gen[x] for x in a)
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def test_automorphism_generators_generate_the_whole_group():
    # every bipartite graph on up to 7 vertices, the connected level graphs
    # row for row among them; disconnected ones such as 3K2 need two
    # searches at one base point.  The chain starts from round-1 keys (the
    # enumerator's parents) or stable colours (patterns) and must give the
    # same group and orbits from either.
    graphs = [g for n in range(1, 8) for g in all_bipartite(n)]
    graphs += [SYMMETRIC_PATTERNS[name] for name in LEMMA_PATTERNS]
    for g in graphs:
        auts = _brute_force_automorphisms(g)
        for colors in (round_one_keys(g.adj), _refinement_colors(g.adj)[0]):
            gens, orbits = _automorphism_generators(g.adj, _Budget(None), colors)
            assert _closure(gens, g.n) == auts, g.adj
            # orbits[u]: u's orbit under the automorphisms that fix 0..u-1
            for u in range(g.n):
                want = sum({1 << a[u] for a in auts if a[:u] == tuple(range(u))})
                assert orbits[u] == want, (g.adj, u)


def test_order_constraints_are_pinned():
    # the masks that is_free searches with, recorded before the chain was
    # pruned by orbits
    pinned = {
        "C4": [0b1110, 0b1000, 0, 0],
        "P7": [0b1000000, 0, 0, 0, 0, 0, 0],
        "Sun1": [0, 0b1000, 0, 0, 0],
        "S123": None,
        "2P3": [0b101100, 0, 0, 0b100000, 0, 0],
        "Sun4": [0b1110, 0b1000, 0, 0, 0, 0, 0, 0],
        "P8": [0b10000000, 0, 0, 0, 0, 0, 0, 0],
        "P~8": [0b10000000, 0, 0, 0, 0, 0, 0, 0],
    }
    for name, want in pinned.items():
        assert _pattern_symmetry(SYMMETRIC_PATTERNS[name], _Budget(None).limit)[0] == want, name


def test_pattern_symmetry_starts_from_stable_colours():
    # the steps is_free is charged for a pattern's symmetry record; from
    # round-1 keys, which leave a long path or a large grid in a few coarse
    # classes, the chain spends 30,861 and 9,559
    for pattern, want in ((path(60), 495), (universal_grid(8, 8)[0], 399)):
        assert _pattern_symmetry(pattern, _Budget(None).limit)[1] == want, pattern.n


def test_constrained_search_keeps_one_embedding_per_automorphism_orbit(connected_levels):
    hosts = [g for n in range(4, 10) for g in connected_levels[n][::9]]
    hosts += [universal_grid(3, 3)[0], cycle(8)]
    for name, pattern in SYMMETRIC_PATTERNS.items():
        if pattern.n > 9:
            continue
        aut = count_induced_embeddings(pattern, pattern, 10**9)
        for host in hosts:
            assert _constrained_count(pattern, host) * aut == count_induced_embeddings(pattern, host, 10**9), (
                name,
                host.edges(),
            )


def test_is_free_agrees_with_unconstrained_search(connected_levels):
    patterns = [h for h in SYMMETRIC_PATTERNS.values() if h.n <= 9]
    for n in range(1, 10):
        for g in connected_levels[n]:
            for h in patterns:
                result = is_free(g, [h])
                assert result.free == (find_induced_embedding(h, g) is None), (h.edges(), g.edges())
                if not result.free:
                    assert result.pattern_index == 0 and verify_embedding(result.witness, h, g)
    forbidden_t, forbidden_s = [two_p3(), sun4()], [path(8), p_tilde(8)]
    for n in range(6, 17, 2):
        assert is_free(t_graph_star(n).graph, forbidden_t).free
        assert all(find_induced_embedding(h, t_graph_star(n).graph) is None for h in forbidden_t)
    for n in range(8, 19, 2):
        assert is_free(s_graph_star(n).graph, forbidden_s).free
        assert all(find_induced_embedding(h, s_graph_star(n).graph) is None for h in forbidden_s)


CONSTRAINED_SEARCH_DIGEST = (1193, "4ff1e11f005277e91846be6436e27ab6cbf4f6bb5afa015ef953ffa5356414ba")


def test_constrained_search_witnesses_and_steps_are_pinned(connected_levels, monkeypatch):
    # Every search run with order constraints, as (first embedding or None,
    # budget steps when it stops): is_free's orbit constraints and
    # contains_pattern's position chain.  Steps are exact, so a change to how
    # the constrained domains are narrowed or ranked that alters the search
    # tree fails here, even when every verdict stays the same.
    log = []
    real = bipkit.matching._search

    def spy(padj, hadj, budget, domains=None, larger=None):
        for found in real(padj, hadj, budget, domains, larger):
            if larger is not None:
                log.append((found, budget.spent))
            yield found
        if larger is not None:
            log.append((None, budget.spent))

    monkeypatch.setattr(bipkit.matching, "_search", spy)
    monkeypatch.setattr(bipkit.perms, "_search", spy)
    for n in range(6, 17, 2):
        is_free(t_graph_star(n).graph, [two_p3(), sun4()])
    for n in range(8, 19, 2):
        is_free(s_graph_star(n).graph, [path(8), p_tilde(8)])
    hosts = [g for n in range(4, 10) for g in connected_levels[n][::9]]
    for pattern in SYMMETRIC_PATTERNS.values():
        if pattern.n <= 9:
            for host in hosts:
                is_free(host, [pattern])
    rng = random.Random(40)
    perm_patterns = [star_perm_T(8), star_perm_S(8), rho_star(8), mu_star(8)]
    for _ in range(8):
        seq = list(range(1, 41))
        rng.shuffle(seq)
        for pattern in perm_patterns:
            contains_pattern(Permutation(tuple(seq)), pattern)
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert (len(log), digest) == CONSTRAINED_SEARCH_DIGEST

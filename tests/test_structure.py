from __future__ import annotations

import functools
import hashlib
import itertools
import pickle
import random

import pytest
from conftest import all_bipartite

from bipkit.graphs import (
    Bipartition,
    Graph,
    bipartite_complement,
    find_bipartition,
    induced_subgraph,
    mask_of,
    mask_vertices,
    serialize_graph,
)
from bipkit.matching import are_isomorphic, is_free
from bipkit.perms import permutation_graph, star_perm_S
from bipkit.families import (
    complete,
    complete_bipartite,
    cycle,
    path,
    s123,
    s_graph_star,
    t_graph_star,
    two_p3,
    universal_grid,
)
from bipkit.structure import (
    DecompositionTree,
    LetterRepresentation,
    decode_letter,
    decompose,
    disjoint_union,
    find_biconvex_order,
    format_letter,
    format_tree,
    incomparability_graph,
    join,
    letter_representation_grid,
    neighborhoods_nested,
    parse_tree,
    recompose,
    skew_join,
    verify_biconvex_order,
    verify_letter,
)
from bipkit.harness.suites import proof_biconvex_orders, random_leaf_tree


TWO_K2 = Graph.from_edges(4, [(1, 2), (3, 4)])


def test_neighborhoods_nested_examples():
    ok, chain = neighborhoods_nested(complete_bipartite(3, 4), {1, 2, 3})
    assert ok and chain == (1, 2, 3)
    ok, chain = neighborhoods_nested(complete_bipartite(3, 4), {4, 5, 6, 7})
    assert ok
    ok, chain = neighborhoods_nested(path(5), {1, 3, 5})
    assert not ok and chain is None
    with pytest.raises(ValueError):
        neighborhoods_nested(path(3), {1, 2})


def test_staircase_zones_are_chain_graphs():
    for n in (6, 10, 16):
        layout = t_graph_star(n)
        a, b = layout.zone_vertices("A"), layout.zone_vertices("B")
        c, d = layout.zone_vertices("C"), layout.zone_vertices("D")
        lower = induced_subgraph(layout.graph, a + d)
        ok, chain = neighborhoods_nested(lower, set(range(1, n + 1)))
        assert ok and chain == tuple(range(1, n + 1))
        upper = induced_subgraph(layout.graph, b + c)
        ok, chain = neighborhoods_nested(upper, set(range(1, n + 1)))
        assert ok and chain == tuple(range(1, n + 1))


def test_nestedness_equals_two_k2_freeness():
    for n in range(2, 9):
        for g in all_bipartite(n):
            b = find_bipartition(g)
            nested_a, _ = neighborhoods_nested(g, b.part_a)
            nested_b, _ = neighborhoods_nested(g, b.part_b)
            free = is_free(g, [TWO_K2]).free
            assert (nested_a and nested_b) == free, serialize_graph(g)
            # one part nested already forces the other
            assert nested_a == nested_b


def test_incomparability_examples():
    assert incomparability_graph(complete_bipartite(3, 4), {1, 2, 3}).edge_count == 0
    layout = s_graph_star(8)
    inc = incomparability_graph(layout.graph, set(layout.zone_vertices("B")))
    assert set(inc.edges()) == {
        (1, 8), (2, 8), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 6),
    }
    assert are_isomorphic(inc, permutation_graph(star_perm_S(8)))
    with pytest.raises(ValueError):
        incomparability_graph(path(3), {1, 2})


def test_part_ids_outside_the_graph_are_located():
    # bad ids end in a ValueError naming them, never in an IndexError
    for check in (neighborhoods_nested, incomparability_graph):
        for bad in (0, 4):
            with pytest.raises(ValueError, match=f"vertex {bad} outside 1..3"):
                check(path(3), {1, bad})


def test_incomparability_isolated_vertices():
    g = path(6)
    b = find_bipartition(g)
    inc = incomparability_graph(g, b.part_a)
    part = sorted(b.part_a)
    for idx, v in enumerate(part, start=1):
        others = [u for u in part if u != v]
        comparable_with_all = all(
            not (g.adj[v - 1] & ~g.adj[u - 1]) or not (g.adj[u - 1] & ~g.adj[v - 1])
            for u in others
        )
        assert (inc.degree(idx) == 0) == comparable_with_all


def test_verify_biconvex_order_examples():
    g = path(4)
    b = Bipartition.of({1, 3}, {2, 4})
    assert verify_biconvex_order(g, b, (1, 3), (2, 4))
    c6 = cycle(6)
    b6 = find_bipartition(c6)
    for order_a in itertools.permutations(sorted(b6.part_a)):
        for order_b in itertools.permutations(sorted(b6.part_b)):
            assert not verify_biconvex_order(c6, b6, order_a, order_b)
    with pytest.raises(ValueError):
        verify_biconvex_order(g, b, (1, 2), (3, 4))


def test_proof_order_for_three_zone_graphs():
    for n in (8, 10, 12):
        layout = s_graph_star(n)
        order_ac, order_b = proof_biconvex_orders(n)
        assert verify_biconvex_order(layout.graph, layout.bipartition, order_ac, order_b)


def test_find_biconvex_order():
    assert find_biconvex_order(path(6), find_bipartition(path(6))) is not None
    assert find_biconvex_order(cycle(6), find_bipartition(cycle(6))) is None
    assert find_biconvex_order(cycle(4), find_bipartition(cycle(4))) is not None
    # the guard allows 8 vertices per part and refuses 9
    assert find_biconvex_order(path(16), find_bipartition(path(16))) is not None
    with pytest.raises(ValueError, match="parts exceed the search guard of 8"):
        find_biconvex_order(path(17), find_bipartition(path(17)))
    found = find_biconvex_order(path(6), find_bipartition(path(6)))
    assert verify_biconvex_order(path(6), find_bipartition(path(6)), *found)
    big = complete_bipartite(9, 2)
    with pytest.raises(ValueError):
        find_biconvex_order(big, find_bipartition(big))


def test_operations_examples():
    k1 = Graph.from_edges(1, [])
    g, b = skew_join(k1, Bipartition.of({1}, set()), k1, Bipartition.of(set(), {1}))
    assert g == Graph.from_edges(2, [(1, 2)])
    assert b == Bipartition.of({1}, {2})

    edge = Graph.from_edges(2, [(1, 2)])
    eb = Bipartition.of({1}, {2})
    joined, jb = join(edge, eb, edge, eb)
    assert are_isomorphic(joined, cycle(4))

    g, _ = disjoint_union(path(3), find_bipartition(path(3)), path(3), find_bipartition(path(3)))
    assert g == two_p3()


def test_join_matches_direct_formula():
    rng = random.Random(5150)
    for _ in range(60):
        g1, b1 = _random_bipartite(rng)
        g2, b2 = _random_bipartite(rng)
        joined, jb = join(g1, b1, g2, b2)
        union, ub = disjoint_union(g1, b1, g2, b2)
        shift = g1.n
        extra = {(min(x, y + shift), max(x, y + shift)) for x in b1.part_a for y in b2.part_b}
        extra |= {(min(x + shift, y), max(x + shift, y)) for x in b2.part_a for y in b1.part_b}
        assert set(joined.edges()) == set(union.edges()) | extra
        assert jb == ub
        # the definition: cross-complement of the union of the cross-complements
        c1, c2 = bipartite_complement(g1, b1), bipartite_complement(g2, b2)
        literal = bipartite_complement(*disjoint_union(c1, b1, c2, b2))
        assert joined == literal and joined.labels == literal.labels


def _random_bipartite(rng: random.Random) -> tuple[Graph, Bipartition]:
    na, nb = rng.randint(1, 3), rng.randint(1, 3)
    n = na + nb
    edges = [
        (u, na + v)
        for u in range(1, na + 1)
        for v in range(1, nb + 1)
        if rng.random() < 0.5
    ]
    labels = [f"v{v}" for v in range(1, n + 1)] if rng.random() < 0.5 else None
    return Graph.from_edges(n, edges, labels), Bipartition.of(
        set(range(1, na + 1)), set(range(na + 1, n + 1))
    )


def test_decompose_examples():
    k1 = Graph.from_edges(1, [])
    assert decompose(k1, Bipartition.of({1}, set())) == (1,)
    assert decompose(k1, Bipartition.of(set(), {1})) == (-1,)

    p6 = path(6)
    t = decompose(p6, find_bipartition(p6))
    assert t is not None and recompose(t) == p6

    assert decompose(path(7), find_bipartition(path(7))) is None

    # exact above 16 vertices: no guard, no search
    assert decompose(t_graph_star(6).graph, t_graph_star(6).bipartition) is None
    k99 = complete_bipartite(9, 9)
    t = decompose(k99, find_bipartition(k99))
    assert t is not None and recompose(t) == k99
    rng = random.Random(20)
    tree = random_leaf_tree(rng, max_depth=8, max_leaves=24)
    while len(tree.vertices()) <= 16:
        tree = random_leaf_tree(rng, max_depth=8, max_leaves=24)
    g = recompose(tree)
    t = decompose(g, Bipartition.of(set(tree.part_x), set(tree.part_y)))
    assert t is not None and recompose(t) == g

    # a build tree 1,200 levels deep, past Python's recursion limit
    k600 = complete_bipartite(600, 600)
    t = decompose(k600, find_bipartition(k600))
    assert t is not None and recompose(t) == k600
    text = format_tree(t)
    again = parse_tree(text)
    assert again == t and hash(again) == hash(t) and repr(again) == repr(t)
    unpickled = pickle.loads(pickle.dumps(t))
    assert unpickled == t and type(unpickled) is DecompositionTree
    assert format_tree(again) == text and recompose(again) == k600
    assert k600.edges() == sorted(_tree_edges_reference(t))


def test_decompose_skew_orientation():
    # a graph needing the flipped orientation at the root still decomposes
    g = Graph.from_edges(2, [(1, 2)])
    for b in (Bipartition.of({1}, {2}), Bipartition.of({2}, {1})):
        t = decompose(g, b)
        assert t is not None and recompose(t) == g


def _tree(*entries) -> DecompositionTree:
    return DecompositionTree(entries)


def test_recompose_of_hand_built_tree():
    hand = _tree("skew", 1, -2)
    assert recompose(hand) == Graph.from_edges(2, [(1, 2)])
    # the parts are read off the leaves, a negative leaf being on side Y
    assert (hand.part_x, hand.part_y, hand.vertices()) == ((1,), (2,), (1, 2))
    deeper = _tree("join", "union", -3, 1, "skew", 4, -2)
    assert (deeper.part_x, deeper.part_y, deeper.vertices()) == ((1, 4), (2, 3), (1, 2, 3, 4))
    assert recompose(deeper) == Graph.from_edges(4, [(1, 2), (2, 4), (3, 4)])


_KINDS = ("union", "join", "skew")


def _span_end(t: DecompositionTree, i: int) -> int:
    """End (exclusive) of the subtree whose preorder starts at index i: the
    first point at which the leaves read outnumber the binary nodes read."""
    need = 1
    while need:
        need += 1 if t[i] in _KINDS else -1
        i += 1
    return i


def _sides(entries: tuple) -> tuple[list[int], list[int]]:
    """The X ids and the Y ids of the leaves among ``entries``."""
    leaves = [e for e in entries if e not in _KINDS]
    return [v for v in leaves if v > 0], [-v for v in leaves if v < 0]


def _tree_edges_reference(t: DecompositionTree) -> set[tuple[int, int]]:
    """Oracle for ``recompose``: every cross pair of every node, one pair at
    a time, with each node's operands cut out of the preorder by counting."""
    acc: set[tuple[int, int]] = set()
    for i, kind in enumerate(t):
        if kind not in _KINDS:
            continue
        mid = _span_end(t, i + 1)
        left, right = t[i + 1 : mid], t[mid : _span_end(t, mid)]
        (lx, ly), (rx, ry) = _sides(left), _sides(right)
        if kind == "union":
            pairs = []
        elif kind == "join":
            pairs = [(lx, ry), (rx, ly)]
        else:
            pairs = [(lx, ry)]
        for xs, ys in pairs:
            for x in xs:
                for y in ys:
                    acc.add((min(x, y), max(x, y)))
    return acc


def test_recompose_rejects_malformed_trees():
    assert recompose(_tree("union", 1, -2)) == Graph.from_edges(2, [])
    for show in (format_tree, recompose):
        with pytest.raises(ValueError, match="unknown node kind 'meet'"):
            show(_tree("meet", 1, -2))
        # a well-formed node above a malformed one
        with pytest.raises(ValueError, match="unknown node kind 'meet'"):
            show(_tree("union", 3, "meet", 1, -2))


def test_format_tree_rejects_malformed_trees():
    # every flat tuple that is no tree, with the same message from both and
    # never an IndexError; the ids are checked before recompose builds any
    # mask, so 10**12 never becomes one
    for bad, message in (
        ((), "0 entries do not make one tree"),
        (("union", 1, -2, 3), "4 entries do not make one tree"),
        ((1, -2), "2 entries do not make one tree"),
        (("join",), "binary node without two children"),
        (("join", 1), "binary node without two children"),
        (("union", "join", 1, -2), "binary node without two children"),
        (("union", 1, "leaf"), "unknown node kind 'leaf'"),
        (("union", 1, True), "unknown node kind True"),
        (("union", 1, 2.0), "unknown node kind 2.0"),
        (("union", 1, None), "unknown node kind None"),
        (("union", 1, 1), "leaf ids must be 1..2, each once"),
        (("union", 1, -1), "leaf ids must be 1..2, each once"),
        (("union", 1, "union", 2, -4), "leaf ids must be 1..3, each once"),
        ((3,), "leaf ids must be 1..1, each once"),
        (("union", 0, -1), "leaf ids must be 1..2, each once"),
        (("union", 1, -(10**12)), "leaf ids must be 1..2, each once"),
    ):
        for show in (format_tree, recompose):
            with pytest.raises(ValueError) as err:
                show(DecompositionTree(bad))
            assert str(err.value) == f"malformed tree: {message}", (show, bad)


def test_tree_round_trip_and_errors():
    p6 = path(6)
    t = decompose(p6, find_bipartition(p6))
    text = format_tree(t)
    again = parse_tree(text)
    assert again == t and format_tree(again) == text and recompose(again) == p6
    assert format_tree(_tree("union", -2, 1)) == "(union (leaf 2 Y) (leaf 1 X))"
    assert parse_tree("(union (leaf 2 Y) (leaf 1 X))") == ("union", -2, 1)
    with pytest.raises(ValueError, match="got 'Z' at token 3$"):
        parse_tree("(leaf 1 Z)")
    with pytest.raises(ValueError, match="unknown node kind 'meet' at token 1$"):
        parse_tree("(meet (leaf 1 X) (leaf 2 Y))")
    for bad in (
        "(union (leaf 1 X) (leaf 2 X)) extra",
        "(union (leaf 1 X) (leaf 2 X) (leaf 3 X))",
        "(skew (leaf 1",
        "(leaf",
        "(union (leaf 1 X)",
        "(",
        "",
    ):
        with pytest.raises(ValueError):
            parse_tree(bad)
    # the old text with per-node part lists is not read, and the error is located
    with pytest.raises(ValueError, match="near token 2$"):
        parse_tree("(skew [1|2] (leaf 1 X) (leaf 2 Y))")
    # a non-integer vertex id is located like every other malformed token, and
    # so is one not in canonical decimal form, which int() would read as 1 or
    # 10 and format_tree would write back differently
    for bad, at in (
        ("(leaf x X)", 2),
        ("(union (leaf 1 X) (leaf x Y))", 9),
        ("(leaf +1 X)", 2),
        ("(leaf 0001 X)", 2),
        ("(leaf \u0661 X)", 2),  # an Arabic-Indic digit one
        ("(leaf -0 X)", 2),
        ("(union (leaf 1_0 X) (leaf 1 Y))", 4),
    ):
        with pytest.raises(ValueError, match=f"^malformed tree text near token {at}$"):
            parse_tree(bad)
    # a repeated id, on one side or on both, is located at its second leaf
    for bad, at in (
        ("(union (leaf 1 X) (leaf 1 X))", 9),
        ("(union (leaf 1 X) (leaf 1 Y))", 9),
        ("(join (skew (leaf 1 X) (leaf 2 Y)) (union (leaf 3 X) (leaf 1 Y)))", 24),
    ):
        with pytest.raises(ValueError, match=f"repeated vertex id 1 at token {at}$"):
            parse_tree(bad)


def test_parse_tree_locates_every_cut():
    # the text cut after each of its tokens; the messages were captured from
    # the parser before it read tokens in one loop.  A cut right after "leaf"
    # fails on the missing id, located at the "leaf" token; every other cut
    # runs out of tokens
    text = "(skew (union (leaf 1 X) (leaf 3 Y)) (join (leaf 2 Y) (leaf 4 X)))"
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    expected = [
        "tree text ends early at token 1", "tree text ends early at token 2",
        "tree text ends early at token 3", "tree text ends early at token 4",
        "tree text ends early at token 5", "malformed tree text near token 5",
        "tree text ends early at token 7", "tree text ends early at token 8",
        "tree text ends early at token 9", "tree text ends early at token 10",
        "malformed tree text near token 10", "tree text ends early at token 12",
        "tree text ends early at token 13", "tree text ends early at token 14",
        "tree text ends early at token 15", "tree text ends early at token 16",
        "tree text ends early at token 17", "tree text ends early at token 18",
        "malformed tree text near token 18", "tree text ends early at token 20",
        "tree text ends early at token 21", "tree text ends early at token 22",
        "tree text ends early at token 23", "malformed tree text near token 23",
        "tree text ends early at token 25", "tree text ends early at token 26",
        "tree text ends early at token 27", "tree text ends early at token 28",
    ]
    assert len(tokens) == len(expected) + 1
    for k, message in enumerate(expected):
        with pytest.raises(ValueError) as err:
            parse_tree(" ".join(tokens[: k + 1]))
        assert str(err.value) == message, k
    assert format_tree(parse_tree(" ".join(tokens))) == text


def test_parse_tree_rejects_ids_below_one_at_their_token():
    # a leaf's entry is its id, negated on side Y, so "-3 X" must not read as 3 Y
    for bad, vertex, at in (
        ("(leaf -3 X)", -3, 2),
        ("(leaf 0 X)", 0, 2),
        ("(union (leaf 1 X) (leaf -2 Y))", -2, 9),
    ):
        with pytest.raises(ValueError, match=f"vertex id must be at least 1, got {vertex} at token {at}$"):
            parse_tree(bad)


def test_deep_trees_round_trip_compare_hash_and_pickle():
    # a caterpillar 6,000 levels deep: each union takes the tree so far and one Y leaf
    deep = DecompositionTree(["union"] * 6000 + [1] + [-v for v in range(2, 6002)])
    copy = parse_tree(format_tree(deep))
    assert copy is not deep and copy == deep and not (copy != deep)
    assert hash(copy) == hash(deep) and repr(copy) == repr(deep)
    other = _tree(*copy[:-1], 6001)  # the last leaf on the other side
    assert other != deep and not (other == deep)
    assert deep.part_y == tuple(range(2, 6002)) and len(deep.vertices()) == 6001
    assert recompose(deep) == Graph.from_edges(6001, [])
    with pytest.raises(TypeError):
        deep[0] = "join"
    with pytest.raises(AttributeError):
        deep.extra = 1
    again = pickle.loads(pickle.dumps(deep))
    assert again == deep and type(again) is DecompositionTree


def test_derived_parts_reject_a_binary_node_without_two_children():
    for bad in (_tree("union", 1), _tree("union", "join", 1, -2), _tree("join")):
        for read in (lambda t: t.part_x, lambda t: t.part_y, lambda t: t.vertices()):
            with pytest.raises(ValueError) as err:
                read(bad)
            assert str(err.value) == "malformed tree: binary node without two children"


def test_decompose_round_trip_on_random_trees():
    rng = random.Random(777)
    for _ in range(40):
        tree = random_leaf_tree(rng, max_depth=4, max_leaves=9)
        g = recompose(tree)
        assert Graph(g.n, g.adj) == g  # the rows recompose trusts pass Graph's checks
        b = Bipartition.of(set(tree.part_x), set(tree.part_y))
        again = decompose(g, b)
        assert again is not None, format_tree(tree)
        assert recompose(again) == g
        assert g.edges() == sorted(_tree_edges_reference(tree))


def test_random_leaf_tree_draws_are_pinned():
    # the closure suite and perfbench draw their trees by seed, so the draws
    # and their order must not change under them
    rng = random.Random(2)
    assert [format_tree(random_leaf_tree(rng, max_leaves=16)) for _ in range(3)] == [
        "(union (leaf 1 X) (union (skew (join (skew (leaf 2 X) (join (leaf 3 X) (leaf 4 Y)))"
        " (skew (skew (leaf 5 Y) (leaf 6 Y)) (skew (leaf 7 X) (leaf 8 X)))) (skew (leaf 9 X) (leaf 10 X))) (leaf 11 Y)))",
        "(leaf 1 X)",
        "(leaf 1 Y)",
    ]


# sha256 of "\n".join(format_tree(t)) over each list of trees, recorded before
# a build tree became its flat preorder: the member trees of connected levels
# 1..10 in level order under find_bipartition, and the closure suite's 300
# random trees
TREE_TEXT_DIGESTS = {
    "members": "5d0298ce3af9f6a0a7a64d0a0002d122eb4821b325933691acc08ebdb82b0e4a",
    "closure": "c33f4b813c931247b8b9420b1a8664fcfa2849b6defd5ecdc885084dbd107fa4",
}


def test_tree_text_is_pinned(connected_levels):
    trees = [decompose(g, find_bipartition(g)) for n in range(1, 11) for g in connected_levels[n]]
    members = [format_tree(t) for t in trees if t is not None]
    assert len(members) == 2327
    rng = random.Random(20250808)
    closure = [format_tree(random_leaf_tree(rng)) for _ in range(300)]
    for name, texts in (("members", members), ("closure", closure)):
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == TREE_TEXT_DIGESTS[name], name


def _buildable_by_brute_force(g: Graph, b: Bipartition) -> bool:
    """Oracle for ``decompose``: try every ordered split of every vertex
    subset under union, join and skew join (first operand's X to second's Y)."""
    x_mask, y_mask = mask_of(b.part_a), mask_of(b.part_b)

    def some_operation_fits(first: int, second: int) -> bool:
        union = join = skew = True
        for v in range(1, g.n + 1):
            if not (first >> (v - 1)) & 1:
                continue
            in_x = bool((x_mask >> (v - 1)) & 1)
            across = g.adj[v - 1] & second
            opposite = second & (y_mask if in_x else x_mask)
            union = union and across == 0
            join = join and across == opposite
            skew = skew and across == (opposite if in_x else 0)
        return union or join or skew

    @functools.cache
    def buildable(mask: int) -> bool:
        if mask & (mask - 1) == 0:
            return True
        first = (mask - 1) & mask
        while first:
            second = mask & ~first
            if some_operation_fits(first, second) and buildable(first) and buildable(second):
                return True
            first = (first - 1) & mask
        return False

    return buildable(x_mask | y_mask)


def test_decompose_matches_brute_force_oracle():
    for n in range(1, 9):
        for g in all_bipartite(n):
            b = find_bipartition(g)
            for orient in (b, b.flipped()):
                tree = decompose(g, orient)
                assert (tree is not None) == _buildable_by_brute_force(g, orient), serialize_graph(g)
                if tree is not None:
                    assert recompose(tree) == g


def _decompose_reference(g: Graph, b: Bipartition) -> DecompositionTree | None:
    """``decompose`` with one skew closure per vertex: the skew split starts
    from the least vertex whose closure under the skew arcs is not the whole
    subgraph, found by trying every vertex in turn."""
    x_mask, y_mask = mask_of(b.part_a), mask_of(b.part_b)
    co_adj = [(x_mask if (y_mask >> i) & 1 else y_mask) & ~g.adj[i] for i in range(g.n)]
    arcs = [co_adj[i] if (x_mask >> i) & 1 else g.adj[i] for i in range(g.n)]

    def closure(v: int, succ: list[int], mask: int) -> int:
        reached = frontier = 1 << (v - 1)
        while frontier:
            nxt = 0
            for u in mask_vertices(frontier):
                nxt |= succ[u - 1]
            frontier = nxt & mask & ~reached
            reached |= frontier
        return reached

    def build(mask: int) -> list | None:
        if mask.bit_count() == 1:
            v = mask.bit_length()
            return [v if mask & x_mask else -v]
        low = next(mask_vertices(mask))
        for kind, firsts in (
            ("union", [closure(low, g.adj, mask)]),
            ("join", [closure(low, co_adj, mask)]),
            ("skew", (closure(v, arcs, mask) for v in mask_vertices(mask))),
        ):
            for first in firsts:
                if first != mask:
                    left, right = build(first), build(mask & ~first)
                    if left is None or right is None:
                        return None
                    return [kind, *left, *right]
        return None

    entries = build(x_mask | y_mask) if g.n else None
    return None if entries is None else DecompositionTree(entries)


def test_decompose_matches_per_vertex_skew_reference(connected_levels):
    def same_tree(g: Graph, b: Bipartition) -> None:
        for orient in (b, b.flipped()):
            got, want = decompose(g, orient), _decompose_reference(g, orient)
            assert (got and format_tree(got)) == (want and format_tree(want)), serialize_graph(g)

    for n in range(1, 10):
        for g in connected_levels[n]:
            same_tree(g, find_bipartition(g))
    rng = random.Random(91)
    for _ in range(200):
        tree = random_leaf_tree(rng)
        same_tree(recompose(tree), Bipartition.of(set(tree.part_x), set(tree.part_y)))


def test_decompose_fails_exactly_on_graphs_with_p7_or_s123(connected_levels):
    # the closure suite checks members only; this checks the "no" answers:
    # a connected bipartite graph decomposes iff it is (P7,S123)-free
    forbidden = [path(7), s123()]
    refused = 0
    for n in range(1, 10):
        for g in connected_levels[n]:
            tree = decompose(g, find_bipartition(g))
            assert (tree is None) == (not is_free(g, forbidden).free), serialize_graph(g)
            refused += tree is None
    assert refused == 302


def test_letter_grid_decodes_exactly():
    for k in range(1, 9):
        for m in range(1, 9):
            rep = letter_representation_grid(k, m)
            g, _ = universal_grid(k, m)
            assert decode_letter(rep) == g
            assert verify_letter(rep, g)


def test_letter_tampering_detected():
    rep = letter_representation_grid(5, 5)
    g, _ = universal_grid(5, 5)
    damaged = Graph.from_edges(g.n, g.edges()[:-1])
    assert not verify_letter(rep, damaged)
    assert not verify_letter(rep, path(25))


def test_letter_with_clique_parts():
    rep = LetterRepresentation(
        parts=((1, 2), (3,)),
        part_kinds=("clique", "independent"),
        order=(1, 2, 3),
        decoder=((".", "C"), ("C", ".")),
    )
    assert decode_letter(rep) == complete(3)
    forward = LetterRepresentation(
        parts=((1, 2), (3, 4)),
        part_kinds=("independent", "independent"),
        order=(1, 3, 2, 4),
        decoder=((".", "F"), ("B", ".")),
    )
    decoded = decode_letter(forward)
    assert set(decoded.edges()) == {(1, 3), (1, 4), (2, 4)}


def test_letter_validation_errors():
    with pytest.raises(ValueError):
        decode_letter(
            LetterRepresentation(
                parts=((1, 2), (2, 3)),
                part_kinds=("independent", "independent"),
                order=(1, 2, 3),
                decoder=((".", "E"), ("E", ".")),
            )
        )
    with pytest.raises(ValueError):
        decode_letter(
            LetterRepresentation(
                parts=((1,), (2,)),
                part_kinds=("independent", "independent"),
                order=(1, 2),
                decoder=((".", "F"), ("F", ".")),
            )
        )
    with pytest.raises(ValueError):
        decode_letter(
            LetterRepresentation(
                parts=((1,), (2,)),
                part_kinds=("independent", "wrong"),
                order=(1, 2),
                decoder=((".", "E"), ("E", ".")),
            )
        )


def test_format_letter_output():
    text = format_letter(letter_representation_grid(2, 2))
    assert "parts 2" in text
    assert "order: 3 1 4 2" in text
    assert text.endswith("F .\n")

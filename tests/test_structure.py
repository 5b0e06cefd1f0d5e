from __future__ import annotations

import functools
import hashlib
import itertools
import pickle
import random
import re
import sys

import pytest
from conftest import all_bipartite, parent_rows

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
from bipkit import structure
from bipkit.structure import (
    DecompositionTree,
    LetterRepresentation,
    decode_letter,
    decompose,
    disjoint_union,
    extend_tree,
    find_biconvex_order,
    format_letter,
    format_tree,
    incomparability_graph,
    join,
    letter_representation_grid,
    neighborhoods_nested,
    parse_tree,
    recompose,
    restrict,
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
    # bad ids end in a ValueError naming them, never in an IndexError or a
    # TypeError, and a bool is no vertex id
    for check in (neighborhoods_nested, incomparability_graph):
        for bad in (0, 4, 1.5, "1", True):
            with pytest.raises(ValueError, match=re.escape(f"part vertex must be an int in 1..3, got {bad!r}")):
                check(path(3), {3, bad})
        # a part that is not a set or frozenset is named, not iterated
        for bad, kind in ((None, "NoneType"), ([1, 3], "list"), ((1, 3), "tuple"), ("13", "str")):
            with pytest.raises(ValueError, match=f"part must be a set or frozenset, got a {kind}"):
                check(path(3), bad)


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
    # an order entry that is not a vertex id is named before any comparison
    p3, b3 = path(3), Bipartition.of([1, 3], [2])
    for order_a, order_b, bad in (((1, "3"), (2,), "3"), ((1, 3), (2.0,), 2.0), ((1, 3), (True,), True)):
        with pytest.raises(ValueError, match=re.escape(f"order vertex must be an int in 1..3, got {bad!r}")):
            verify_biconvex_order(p3, b3, order_a, order_b)
    # an order that is not a tuple is named before its entries are read
    for order_a, order_b, name, kind in (
        ((1, 3), None, "order_b", "NoneType"),
        (None, (2,), "order_a", "NoneType"),
        ([1, 3], (2,), "order_a", "list"),
        ((1, 3), {2}, "order_b", "set"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a tuple, got a {kind}"):
            verify_biconvex_order(p3, b3, order_a, order_b)


def test_proof_order_for_three_zone_graphs():
    for n in (8, 10, 12):
        layout = s_graph_star(n)
        order_ac, order_b = proof_biconvex_orders(n)
        assert verify_biconvex_order(layout.graph, layout.bipartition, order_ac, order_b)


def test_find_biconvex_order():
    assert find_biconvex_order(path(6), find_bipartition(path(6))) is not None
    assert find_biconvex_order(cycle(6), find_bipartition(cycle(6))) is None
    assert find_biconvex_order(cycle(4), find_bipartition(cycle(4))) is not None
    assert find_biconvex_order(path(16), find_bipartition(path(16))) is not None
    found = find_biconvex_order(path(6), find_bipartition(path(6)))
    assert verify_biconvex_order(path(6), find_bipartition(path(6)), *found)
    # parts of more than 8 vertices are answered, not refused
    for g in (path(17), complete_bipartite(9, 2)):
        b = find_bipartition(g)
        found = find_biconvex_order(g, b)
        assert found is not None and verify_biconvex_order(g, b, *found)


def _factorial_biconvex_order(g: Graph, b: Bipartition):
    """Reference: the first order of each part, over every order of it, that
    makes the opposite part's neighbourhoods intervals."""

    def first_order(side, opposite):
        for order in itertools.permutations(side):
            rank = {v: i for i, v in enumerate(order)}
            if all(
                not ranks or max(ranks) - min(ranks) + 1 == len(ranks)
                for ranks in ([rank[u] for u in mask_vertices(g.adj[v - 1])] for v in opposite)
            ):
                return order
        return None

    order_a = first_order(b.sorted_a(), b.sorted_b())
    order_b = None if order_a is None else first_order(b.sorted_b(), b.sorted_a())
    return None if order_b is None else (order_a, order_b)


def test_biconvex_orders_agree_with_the_factorial_search():
    # every bipartite graph on up to 9 vertices with parts of at most 8
    # vertices, plus cycle(6): the same answer, None or not, and every order
    # found verifies
    graphs = [g for n in range(1, 10) for g in all_bipartite(n)] + [cycle(6)]
    checked = no_order = 0
    for g in graphs:
        b = find_bipartition(g)
        if max(len(b.part_a), len(b.part_b)) > 8:
            continue
        found = find_biconvex_order(g, b)
        assert (found is None) == (_factorial_biconvex_order(g, b) is None), serialize_graph(g, b)
        assert found is None or verify_biconvex_order(g, b, *found), serialize_graph(g, b)
        checked += 1
        no_order += found is None
    assert (checked, no_order) == (1571, 340)


def test_three_zone_graphs_have_biconvex_orders_found():
    for n in range(8, 42, 2):
        layout = s_graph_star(n)
        found = find_biconvex_order(layout.graph, layout.bipartition)
        assert found is not None and verify_biconvex_order(layout.graph, layout.bipartition, *found), n


def test_nested_rows_deeper_than_the_recursion_limit():
    # a chain graph: A vertex i sees B vertices k+i..2k, so each part's rows
    # nest k deep, and the finder still answers under a recursion limit of 250
    k = 400
    g = Graph.from_edges(2 * k, [(i, k + j) for i in range(1, k + 1) for j in range(i, k + 1)])
    b = Bipartition.of(range(1, k + 1), range(k + 1, 2 * k + 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        found = find_biconvex_order(g, b)
    finally:
        sys.setrecursionlimit(limit)
    assert found is not None and verify_biconvex_order(g, b, *found)


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


@pytest.mark.parametrize(
    "reader",
    [
        bipartite_complement,
        serialize_graph,
        decompose,
        find_biconvex_order,
        lambda g, b: verify_biconvex_order(g, b, (1, 3), (2, 4)),
        lambda g, b: disjoint_union(g, b, g, find_bipartition(g)),
        lambda g, b: join(g, b, g, find_bipartition(g)),
        lambda g, b: skew_join(g, find_bipartition(g), g, b),
    ],
    ids=[
        "bipartite_complement",
        "serialize_graph",
        "decompose",
        "find_biconvex_order",
        "verify_biconvex_order",
        "disjoint_union",
        "join",
        "skew_join",
    ],
)
@pytest.mark.parametrize(
    "bad", [None, (frozenset({1, 3}), frozenset({2, 4})), (0b0101, 0b1010)], ids=["None", "frozensets", "masks"]
)
def test_readers_refuse_a_b_that_is_not_a_bipartition(reader, bad):
    if reader is serialize_graph and bad is None:
        # None means no 'b' line
        assert serialize_graph(path(4), None) == "p 4\ne 1 2\ne 2 3\ne 3 4\n"
        return
    with pytest.raises(ValueError, match=f"b must be a Bipartition, got a {type(bad).__name__}"):
        reader(path(4), bad)


def test_join_matches_direct_formula():
    rng = random.Random(5150)
    for _ in range(60):
        g1, b1 = _random_bipartite(rng)
        g2, b2 = _random_bipartite(rng)
        joined, jb = join(g1, b1, g2, b2)
        union, ub = disjoint_union(g1, b1, g2, b2)
        skewed, sb = skew_join(g1, b1, g2, b2)
        shift = g1.n
        # each operation from its direct edge formula: the operands' own edges,
        # the second's shifted, plus X1-Y2 under a skew and X2-Y1 too under a join
        own = set(g1.edges()) | {(u + shift, v + shift) for u, v in g2.edges()}
        x1_y2 = {(x, y + shift) for x in b1.part_a for y in b2.part_b}
        x2_y1 = {(y, x + shift) for x in b2.part_a for y in b1.part_b}
        assert set(union.edges()) == own
        assert set(skewed.edges()) == own | x1_y2
        assert set(joined.edges()) == own | x1_y2 | x2_y1
        sides = Bipartition.of(
            set(b1.part_a) | {x + shift for x in b2.part_a}, set(b1.part_b) | {y + shift for y in b2.part_b}
        )
        assert jb == ub == sb == sides
        # the definition: cross-complement of the union of the cross-complements
        c1, c2 = bipartite_complement(g1, b1), bipartite_complement(g2, b2)
        literal = bipartite_complement(*disjoint_union(c1, b1, c2, b2))
        assert joined == literal


def _random_bipartite(rng: random.Random) -> tuple[Graph, Bipartition]:
    na, nb = rng.randint(1, 3), rng.randint(1, 3)
    n = na + nb
    edges = [
        (u, na + v)
        for u in range(1, na + 1)
        for v in range(1, nb + 1)
        if rng.random() < 0.5
    ]
    rng.random()  # a draw kept so that the seeded graphs stay the same
    return Graph.from_edges(n, edges), Bipartition.of(
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


def _exact_leaf_tree(rng: random.Random, leaves: int) -> DecompositionTree:
    """A random build tree with exactly ``leaves`` leaves: each node splits
    its leaf count at random, and the ids and sides are drawn at random."""
    entries: list = []
    todo = [leaves]
    while todo:
        k = todo.pop()
        if k == 1:
            entries.append(None)
            continue
        first = rng.randint(1, k - 1)
        entries.append(rng.choice(_KINDS))
        todo += (k - first, first)
    ids = iter(rng.sample(range(1, leaves + 1), leaves))
    return DecompositionTree(e if e is not None else next(ids) * rng.choice((1, -1)) for e in entries)


def test_recompose_matches_the_pair_reference(connected_levels):
    # the forward pass against every cross pair of every node, on the member
    # trees of closure up to 9 vertices and on random 14-leaf shapes
    trees = [decompose(g, find_bipartition(g)) for n in range(1, 10) for g in connected_levels[n]]
    trees = [t for t in trees if t is not None]
    assert len(trees) == 682
    rng = random.Random(1414)
    shapes = [_exact_leaf_tree(rng, 14) for _ in range(300)]
    assert all(len(t.vertices()) == 14 for t in shapes)
    for t in trees + shapes:
        assert recompose(t).edges() == sorted(_tree_edges_reference(t)), format_tree(t)


def test_recompose_rejects_malformed_trees():
    assert recompose(_tree("union", 1, -2)) == Graph.from_edges(2, [])
    for show in (format_tree, recompose):
        with pytest.raises(ValueError, match="unknown node kind 'meet'"):
            show(_tree("meet", 1, -2))
        # a well-formed node above a malformed one
        with pytest.raises(ValueError, match="unknown node kind 'meet'"):
            show(_tree("union", 3, "meet", 1, -2))


def test_format_tree_rejects_malformed_trees():
    # every flat tuple that is no tree, with the same message from every
    # reader and never an IndexError; an id is bounded before its bit is
    # built, so 10**12 never becomes one
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
        for show in (
            format_tree,
            recompose,
            lambda t: extend_tree(t, path(3)),
            lambda t: restrict(t, [1]),
            lambda t: t.part_x,
            lambda t: t.part_y,
            lambda t: t.vertices(),
        ):
            with pytest.raises(ValueError) as err:
                show(DecompositionTree(bad))
            assert str(err.value) == f"malformed tree: {message}", (show, bad)


def test_tree_round_trip_and_errors():
    p6 = path(6)
    t = decompose(p6, find_bipartition(p6))
    text = format_tree(t)
    again = parse_tree(text)
    assert again == t and format_tree(again) == text and recompose(again) == p6
    # a parsed tree's kinds are the module's strings, not copies of its tokens
    kinds = [entry for entry in again if entry.__class__ is str]
    assert kinds and all(any(entry is kind for kind in structure._BINARY) for entry in kinds)
    assert format_tree(_tree("union", -2, 1)) == "(union (leaf 2 Y) (leaf 1 X))"
    assert parse_tree("(union (leaf 2 Y) (leaf 1 X))") == ("union", -2, 1)
    with pytest.raises(ValueError, match="got 'Z' at token 3$"):
        parse_tree("(leaf 1 Z)")
    with pytest.raises(ValueError, match="unknown node kind 'meet' at token 1$"):
        parse_tree("(meet (leaf 1 X) (leaf 2 Y))")
    # text after a whole tree is located at its first token
    with pytest.raises(ValueError, match="^trailing tokens after tree at token 5$"):
        parse_tree("(leaf 1 X) (leaf 2 X)")
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


def test_random_leaf_tree_arguments():
    # every shape has a leaf, so a max_leaves below 1 could never be met
    for bad in (0, -3, True, 4.0):
        with pytest.raises(ValueError, match="max_leaves must be an int of at least 1"):
            random_leaf_tree(random.Random(2), max_leaves=bad)


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


def test_extend_tree_agrees_with_decompose_on_every_closure_child(connected_levels, monkeypatch):
    # the closure walk's parents: each member's tree is grown from its
    # parent's tree, level 1 decomposed; every child of a member is checked
    splits = []
    split = structure._split

    def recorded(*args):
        splits.append(split(*args))
        return splits[-1]

    monkeypatch.setattr(structure, "_split", recorded)
    trees = {g.adj: decompose(g, find_bipartition(g)) for g in connected_levels[1]}
    ways = {"attached": 0, "re-split": 0, "no tree": 0}
    for n in range(2, 11):
        below, trees = trees, {}
        for g in connected_levels[n]:
            parent = parent_rows(g)
            if parent not in below:
                continue
            splits.clear()
            tree = extend_tree(below[parent], g)
            assert len(splits) <= 1
            ways["no tree" if tree is None else "re-split" if splits else "attached"] += 1
            want = decompose(g, find_bipartition(g))
            assert (tree is None) == (want is None), serialize_graph(g)
            if tree is not None:
                assert recompose(tree) == g, serialize_graph(g)
                trees[g.adj] = tree
    # the no-tree children are exactly the graphs closure's walk searches
    assert ways == {"attached": 1850, "re-split": 476, "no tree": 207}


def test_extend_tree_places_the_new_leaf():
    # a pendant at a Y leaf joins that leaf; a vertex seeing all of Y joins the root
    star = DecompositionTree(("join", 1, "union", -2, -3))
    pendant = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4)])
    assert format_tree(extend_tree(star, pendant)) == (
        "(join (leaf 1 X) (union (join (leaf 4 X) (leaf 2 Y)) (leaf 3 Y)))"
    )
    twin = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert format_tree(extend_tree(star, twin)) == (
        "(join (leaf 4 X) (join (leaf 1 X) (union (leaf 2 Y) (leaf 3 Y))))"
    )
    # P7 grown from P6 has no tree, and neither has S123 grown from its parent
    p6 = decompose(path(6), find_bipartition(path(6)))
    assert extend_tree(p6, path(7)) is None
    s = s123()
    parent = Graph(s.n - 1, tuple(row & ~(1 << (s.n - 1)) for row in s.adj[:-1]))
    assert extend_tree(decompose(parent, find_bipartition(parent)), s) is None


def test_extend_tree_rejects_bad_input_with_a_located_error():
    with pytest.raises(ValueError, match="malformed tree: binary node without two children"):
        extend_tree(DecompositionTree(("union", 1)), path(3))
    with pytest.raises(ValueError, match="tree has 2 vertices, but g minus its last vertex has 4"):
        extend_tree(DecompositionTree(("join", 1, -2)), path(5))
    triangle = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="vertex 3 has neighbours on both sides of the tree"):
        extend_tree(DecompositionTree(("join", 1, -2)), triangle)


def test_restrict_recomposes_to_the_induced_subgraph():
    rng = random.Random(4242)
    for _ in range(300):
        tree = random_leaf_tree(rng, max_leaves=16)
        n = len(tree.vertices())
        ids = rng.sample(range(1, n + 1), rng.randint(1, n))
        assert recompose(restrict(tree, ids)) == induced_subgraph(recompose(tree), ids), (format_tree(tree), ids)
    # a node left with one operand is spliced out, and the kept ids renumbered
    tree = parse_tree("(skew (join (leaf 1 X) (leaf 2 Y)) (union (leaf 3 X) (leaf 4 Y)))")
    assert format_tree(restrict(tree, [2, 4])) == "(skew (leaf 1 Y) (leaf 2 Y))"
    assert format_tree(restrict(tree, {3, 1, 4})) == "(skew (leaf 1 X) (union (leaf 2 X) (leaf 3 Y)))"
    assert restrict(tree, range(1, 5)) == tree


def test_restrict_rejects_bad_input_with_a_located_error():
    tree = DecompositionTree(("join", 1, -2))
    for bad in ([0], [3], [1, "2"]):
        with pytest.raises(ValueError, match="vertex must be an int"):
            restrict(tree, bad)
    with pytest.raises(ValueError, match="ids must name at least one vertex"):
        restrict(tree, [])
    with pytest.raises(ValueError, match="malformed tree"):
        restrict(DecompositionTree(("join", 1)), [1])


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
    # (0, 0) makes letter 0 a clique, and (0, 1) with (1, 0) joins the letters both ways
    rep = LetterRepresentation(letters=(0, 0, 1), order=(1, 2, 3), decoder=frozenset({(0, 0), (0, 1), (1, 0)}))
    assert decode_letter(rep) == complete(3)
    # (0, 1) alone joins a letter-0 vertex to the letter-1 vertices after it
    forward = LetterRepresentation(letters=(0, 0, 1, 1), order=(1, 3, 2, 4), decoder=frozenset({(0, 1)}))
    decoded = decode_letter(forward)
    assert set(decoded.edges()) == {(1, 3), (1, 4), (2, 4)}


def _pair_scan_decode_reference(rep: LetterRepresentation) -> Graph:
    """Every pair of the order tested against the decoder, earlier vertex first."""
    edges = []
    for i, u in enumerate(rep.order):
        for v in rep.order[i + 1 :]:
            if (rep.letters[u - 1], rep.letters[v - 1]) in rep.decoder:
                edges.append((min(u, v), max(u, v)))
    return Graph.from_edges(len(rep.letters), edges)


def test_letter_decode_matches_the_pair_scan():
    # seeded random representations: (a, a) pairs included, and decoders
    # that name letters no vertex uses
    rng = random.Random(606)
    for _ in range(400):
        n = rng.randint(0, 14)
        k = rng.randint(1, 5)
        letters = tuple(rng.randrange(k) for _ in range(n))
        order = tuple(rng.sample(range(1, n + 1), n))
        pairs = [(a, b) for a in range(k + 2) for b in range(k + 2)]
        decoder = frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))
        rep = LetterRepresentation(letters, order, decoder)
        assert decode_letter(rep) == _pair_scan_decode_reference(rep), rep


def test_letter_validation_errors():
    # the form holds each vertex's one letter, so a vertex in two parts, an
    # unknown part kind or a table that is not mirror-consistent cannot be built;
    # what can be wrong is the order, the letters and the decoder's elements.
    # format_letter reads a representation as decode_letter does: it printed
    # "parts 0" for the letter -1 and raised TypeError for the letter "a"
    readers = (decode_letter, format_letter)
    decoder = frozenset({(0, 1)})
    # an order entry that is not an int is no vertex: "1" and 1.0 failed in
    # sorted with a TypeError, and True decoded as vertex 1
    for order in ((1, 1, 3), (1, 2, 4), (1, 2), (1, 2, 3, 4), ("1", 2, 3), (1.0, 2, 3), (True, 2, 3)):
        rep = LetterRepresentation((0, 0, 1), order, decoder)
        for reader in readers:
            with pytest.raises(ValueError, match="order must be a permutation"):
                reader(rep)
        assert not verify_letter(rep, path(3))
    assert not verify_letter(LetterRepresentation((0, 1), ("1", 2), frozenset()), path(2))
    for letters in ((0, -1, 1), (0, 1.0, 1), (0, True, 1), (0, "a", 1)):
        rep = LetterRepresentation(letters, (1, 2, 3), decoder)
        for reader in readers:
            with pytest.raises(ValueError, match="letters must be ints of at least 0"):
                reader(rep)
        assert not verify_letter(rep, path(3))
    rep = LetterRepresentation((-1,), (1,), frozenset())
    for reader in readers:
        with pytest.raises(ValueError, match="letters must be ints of at least 0"):
            reader(rep)
    # a decoder element that is not a pair of letters was skipped by the decoder
    for bad in ((0,), (0, 1, 1), (0, -1), (True, 0), (0, "1"), "01", 7, None):
        rep = LetterRepresentation((0, 0, 1), (1, 2, 3), decoder | {bad})
        for reader in readers:
            with pytest.raises(ValueError, match=re.escape(f"decoder element {bad!r} is not a pair of letters")):
                reader(rep)
        assert not verify_letter(rep, path(3))
    # a field not of its declared kind raised TypeError from len or from
    # iterating it, and verify_letter raised it instead of returning False;
    # a list or a set that decoded before is refused too
    for fields, name in (
        (((0, 0, 1), (1, 2, 3), None), "decoder"),
        (((0, 0, 1), (1, 2, 3), {(0, 1)}), "decoder"),
        ((None, (1, 2, 3), decoder), "letters"),
        ((3, (1, 2, 3), decoder), "letters"),
        (([0, 0, 1], (1, 2, 3), decoder), "letters"),
        (((0, 0, 1), None, decoder), "order"),
        (((0, 0, 1), [1, 2, 3], decoder), "order"),
    ):
        rep = LetterRepresentation(*fields)
        for reader in readers:
            with pytest.raises(ValueError, match=f"^{name} must be a (tuple|frozenset), got a "):
                reader(rep)
        assert not verify_letter(rep, path(3))
    assert not verify_letter(LetterRepresentation((0, 1), (1, 2), None), path(2))


def _table_decode_reference(text: str) -> Graph:
    """The symbol-table decoder over ``format_letter``'s text: each part is
    independent (I) or a clique (K), and the entry at row i, column j joins
    every u of part i to every v of part j when it is C, when u comes first
    when it is F, when v comes first when it is B, and never when it is E."""
    lines = text.splitlines()
    p = int(lines[0].split()[1])
    parts, kinds = [], []
    for line in lines[1 : p + 1]:
        head, _, ids = line.partition(":")
        kinds.append(head.split()[2])
        parts.append([int(v) for v in ids.split()])
    order = [int(v) for v in lines[p + 1].split()[1:]]
    table = [line.split() for line in lines[p + 3 :]]
    assert len(table) == p and all(table[i][i] == "." for i in range(p))
    rank = {v: i for i, v in enumerate(order)}
    edges = []
    for part, kind in zip(parts, kinds):
        if kind == "K":
            edges += itertools.combinations(sorted(part), 2)
    for i in range(p):
        for j in range(i + 1, p):
            sym = table[i][j]
            assert sym in "FBCE" and table[j][i] == {"F": "B", "B": "F"}.get(sym, sym)
            for u in parts[i]:
                for v in parts[j]:
                    if sym == "C" or (sym == "F" and rank[u] < rank[v]) or (sym == "B" and rank[v] < rank[u]):
                        edges.append((min(u, v), max(u, v)))
    return Graph.from_edges(len(order), edges)


def test_letter_decoder_matches_symbol_table_reference():
    rng = random.Random(24)
    symbols = set()
    for _ in range(1500):
        n, k = rng.randint(1, 9), rng.randint(1, 4)
        letters = tuple(rng.randrange(k) for _ in range(n))
        order = tuple(rng.sample(range(1, n + 1), n))
        decoder = frozenset((a, b) for a in range(k) for b in range(k) if rng.random() < 0.4)
        rep = LetterRepresentation(letters, order, decoder)
        text = format_letter(rep)
        symbols.update(text.split("decoder:")[1].split())
        assert decode_letter(rep) == _table_decode_reference(text), text
    assert symbols == {".", "F", "B", "C", "E"}
    for k in range(1, 6):
        for m in range(1, 6):
            rep = letter_representation_grid(k, m)
            assert decode_letter(rep) == _table_decode_reference(format_letter(rep))


def test_format_letter_text_is_pinned():
    text = "".join(format_letter(letter_representation_grid(k, m)) for k in range(1, 9) for m in range(1, 9))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "327243da2e3becbec30c8d2ef2de04c3bc0436c8a4ab7f07efa43ca592446ae8"
    )


def test_format_letter_output():
    text = format_letter(letter_representation_grid(2, 2))
    assert "parts 2" in text
    assert "order: 3 1 4 2" in text
    assert text.endswith("F .\n")

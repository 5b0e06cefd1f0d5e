"""Structural recognisers and constructors: nested-neighbourhood tests,
biconvex orders, incomparability graphs, the three bipartite composition
operations with an exact decomposition engine, and letter representations.

The decomposition engine finds a build tree over single-vertex leaves using
disjoint union, join, and skew join.  Under a fixed orientation the graphs
these operations build form a hereditary class (delete a leaf and contract
its parent), so any valid split has buildable sides and each split can be
forced: a component, a complement component, or a vertex's closure under the
skew arcs.  No subset is searched, so the engine has no size cap.  A build
tree is its preorder, stored as one flat tuple: a union, join or skew node
is its kind string, and a leaf is its vertex id, negated when the vertex is
on side Y.  So each vertex is named once, at its leaf, a tree and its text
grow linearly with the vertex count, and no node object is built: the
member trees of the connected graphs on up to 10 vertices hold over 40,000
nodes.  A tree can be as deep as the vertex count; every walk over one
(decompose, recompose, tree text) is a loop over the flat entries or the
tokens, and ``==``, hashing and repr are the flat tuple's own.
``format_tree`` closes each node from the subtree ends of ``_spans``, the
one checked pass every reader starts from.  ``_sees`` states once which
cross edges a node adds; composing, ``recompose`` and ``extend_tree`` read it.

The skew split's first operand is the closure of the least vertex whose
closure is not the whole subgraph, found with at most three closures.  If
the least vertex ``low`` closes to a proper subset, it starts the split.
Otherwise every closure that contains ``low`` contains all of ``low``'s
closure, the whole subgraph, so the vertices that close to the whole
subgraph are exactly those that reach ``low``: the closure of ``low`` over
the reversed arcs.  The least vertex outside that set starts the split, and
when no vertex is outside it no skew split exists.

``decompose`` and ``extend_tree`` share one splitter, ``_split``, which
forces the splits of any vertex set of a graph under fixed sides.
``extend_tree`` decides a graph from a tree of the graph minus its last
vertex v, after Corneil, Perl and Stewart's cotree insertion ("A linear
recognition algorithm for cographs", SIAM J. Comput. 14, 1985).  It walks
down from the root while v sees across each node what the operand it
enters sees (``_sees``), and either splices v's leaf in by a join or a
union above the first node whose opposite-side leaves v sees all or none
of, or re-splits only that node's leaves plus v, which is exact both ways.

``find_biconvex_order`` forces its splits too: it searches no order and has
no size cap.  A part's order only has to make the opposite neighbourhoods
(its rows) intervals, the consecutive-ones property (Booth & Lueker 1976;
Hsu, J. Algorithms 43, 2002).  Two rows overlap when they meet and neither
holds the other.  The rows that overlap the largest row, directly or
through other rows, cover an interval, and their columns fall into blocks
whose order is forced up to reversal: each row placed overlaps one already
placed, so it covers a run of blocks, whole inside and split at its two
ends, with its unplaced columns as one new block beyond the end it reaches.
Any other row overlaps none of these rows and, since none is larger than
the first, holds none of them, so it lies inside one block or outside them
all.  Each block and the outside are then ordered alone, off a work list,
so a chain of nested rows needs no recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Bipartition,
    Graph,
    _canonical_int,
    _int_in,
    mask_of,
    mask_vertices,
    validate_bipartition,
)


# ---------------------------------------------------------------------------
# neighbourhood structure


def _independent_part(g: Graph, part: set[int] | frozenset[int]) -> list[int]:
    """The part's ids ascending, once the part is a set or frozenset, each id
    is a vertex of ``g`` and no two are adjacent."""
    if part.__class__ not in (set, frozenset):
        raise ValueError(f"part must be a set or frozenset, got a {type(part).__name__}")
    for v in part:
        _int_in("part vertex", v, 1, g.n)
    vs = sorted(part)
    pmask = mask_of(vs)
    for v in vs:
        if g.adj[v - 1] & pmask:
            raise ValueError(f"part is not an independent set at vertex {v}")
    return vs


def neighborhoods_nested(g: Graph, part: set[int] | frozenset[int]) -> tuple[bool, tuple[int, ...] | None]:
    """Check the neighbourhoods of an independent set form a chain under inclusion.

    Returns (True, vertices sorted along the chain) or (False, None).  The
    part must be independent; chain order is by (degree, id), so equal
    neighbourhoods keep ascending ids.
    """
    vs = _independent_part(g, part)
    chain = sorted(vs, key=lambda v: (g.adj[v - 1].bit_count(), v))
    for prev, nxt in zip(chain, chain[1:]):
        a, b = g.adj[prev - 1], g.adj[nxt - 1]
        if a & ~b:
            return False, None
    return True, tuple(chain)


def incomparability_graph(g: Graph, part: set[int] | frozenset[int]) -> Graph:
    """Graph on the part (relabelled 1..k in id order): edges join vertices
    whose neighbourhoods are incomparable under inclusion."""
    vs = _independent_part(g, part)
    k = len(vs)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            a, b = g.adj[vs[i] - 1], g.adj[vs[j] - 1]
            if (a & ~b) and (b & ~a):
                edges.append((i + 1, j + 1))
    return Graph.from_edges(k, edges)


# ---------------------------------------------------------------------------
# biconvex orders


def _intervals_in_order(g: Graph, vertices: tuple[int, ...], order: tuple[int, ...]) -> bool:
    rank = {v: i for i, v in enumerate(order)}
    for v in vertices:
        ranks = [rank[u] for u in mask_vertices(g.adj[v - 1])]
        if ranks and max(ranks) - min(ranks) + 1 != len(ranks):
            return False
    return True


def verify_biconvex_order(
    g: Graph,
    b: Bipartition,
    order_a: tuple[int, ...],
    order_b: tuple[int, ...],
) -> bool:
    """True iff every neighbourhood is consecutive in the opposite part's
    order; ValueError when an order is not a tuple of the part's ids."""
    validate_bipartition(g, b)
    for name, order in (("order_a", order_a), ("order_b", order_b)):
        if order.__class__ is not tuple:
            raise ValueError(f"{name} must be a tuple, got a {type(order).__name__}")
    for v in order_a + order_b:
        _int_in("order vertex", v, 1, g.n)
    part_a, part_b = b.sorted_a(), b.sorted_b()
    if tuple(sorted(order_a)) != part_a or tuple(sorted(order_b)) != part_b:
        raise ValueError("orders must be permutations of the parts")
    return _intervals_in_order(g, part_b, order_a) and _intervals_in_order(g, part_a, order_b)


def _consecutive_order(cols: int, rows: list[int]) -> tuple[int, ...] | None:
    """An order of the ids in ``cols`` in which every row (a mask inside
    ``cols``) is consecutive, or None when no order is: the consecutive-ones
    property, decided by forced block splits (see the module docstring)."""
    order: list[int] = []
    # each work item is a column set and the rows inside it, largest first
    work = [(cols, sorted(set(rows), key=lambda r: (-r.bit_count(), r)))]
    while work:
        cols, rows = work.pop()
        rows = [r for r in rows if r != cols and r.bit_count() > 1]
        if not rows:
            order.extend(mask_vertices(cols))
            continue
        component, blocks, placed, pending = [rows[0]], [rows[0]], rows[0], rows[1:]
        for q in component:
            rest = []
            for r in pending:
                if not (r & q and r & ~q and q & ~r):
                    rest.append(r)
                    continue
                blocks = _place_row(blocks, r, r & ~placed)
                if blocks is None:
                    return None
                component.append(r)
                placed |= r
            pending = rest
        parts = [(blk, [r for r in pending if not r & ~blk]) for blk in blocks]
        if cols & ~placed:
            parts.append((cols & ~placed, [r for r in pending if not r & placed]))
        work.extend(reversed(parts))
    return tuple(order)


def _place_row(blocks: list[int], r: int, new: int) -> list[int] | None:
    """The blocks after placing row ``r``, which overlaps a placed row and
    holds the unplaced columns ``new``, or None when it cannot be placed.
    The run of blocks ``r`` meets must be whole inside and is split at its
    two ends; ``new`` is one more block, whole in ``r``, at the end the run
    reaches."""
    hit = [i for i, blk in enumerate(blocks) if blk & r]
    lo, hi = hit[0], hit[-1]

    def whole(i: int, j: int) -> bool:
        return all(not blk & ~r for blk in blocks[i:j])

    if new and hi == len(blocks) - 1 and whole(lo + 1, hi + 1):
        blocks, hi = blocks + [new], hi + 1
    elif new and lo == 0 and whole(0, hi):
        blocks, hi = [new] + blocks, hi + 1
    elif new or not whole(lo + 1, hi):
        return None
    run = (blocks[lo] & ~r, blocks[lo] & r, *blocks[lo + 1 : hi], blocks[hi] & r, blocks[hi] & ~r)
    return blocks[:lo] + [blk for blk in run if blk] + blocks[hi + 1 :]


def find_biconvex_order(g: Graph, b: Bipartition) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A biconvex order pair, or None when the graph has none.

    The two part orders are independent (a part's order only has to make the
    opposite part's neighbourhoods into intervals), so each part is ordered
    by ``_consecutive_order`` with those neighbourhoods as its rows.  Columns
    that no row tells apart keep ascending ids.
    """
    validate_bipartition(g, b)
    order_a = _consecutive_order(b.mask_a, [g.adj[v - 1] for v in mask_vertices(b.mask_b)])
    if order_a is None:
        return None
    order_b = _consecutive_order(b.mask_b, [g.adj[v - 1] for v in mask_vertices(b.mask_a)])
    if order_b is None:
        return None
    return order_a, order_b


# ---------------------------------------------------------------------------
# composition operations


def _sees(kind: str, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int, int]:
    """The one cross-edge rule: what the X1, Y1, X2 and Y2 leaves of a node
    of this kind see across it, given its operands' side masks.  A union
    adds no edges, a skew join X1-Y2, and a join X1-Y2 and X2-Y1.  Each
    edge is in the masks of both its ends and no leaf sees its own operand,
    so rows built from them are symmetric and loop-free.  Callers pass one
    of the three kinds; a tree's kinds are checked before it is read."""
    if kind == "union":
        return 0, 0, 0, 0
    if kind == "skew":
        return y2, 0, 0, x1
    return y2, x2, y1, x1


def _compose(kind: str, g1: Graph, b1: Bipartition, g2: Graph, b2: Bipartition) -> tuple[Graph, Bipartition]:
    """The operands side by side, the second relabelled up by g1.n, plus the
    cross edges of a node of this kind."""
    validate_bipartition(g1, b1)
    validate_bipartition(g2, b2)
    shift = g1.n
    rows = list(g1.adj) + [row << shift for row in g2.adj]
    x1, y1 = b1.mask_a, b1.mask_b
    x2, y2 = b2.mask_a << shift, b2.mask_b << shift
    for side, seen in zip((x1, y1, x2, y2), _sees(kind, x1, y1, x2, y2)):
        for v in mask_vertices(side):
            rows[v - 1] |= seen
    b = Bipartition._trusted(x1 | x2, y1 | y2)
    return Graph(g1.n + g2.n, tuple(rows)), b


def disjoint_union(g1: Graph, b1: Bipartition, g2: Graph, b2: Bipartition) -> tuple[Graph, Bipartition]:
    """Side-by-side union; the second operand is relabelled up by g1.n."""
    return _compose("union", g1, b1, g2, b2)


def join(g1: Graph, b1: Bipartition, g2: Graph, b2: Bipartition) -> tuple[Graph, Bipartition]:
    """Union plus every A1-B2 and A2-B1 edge: the cross-complement of the
    disjoint union of the cross-complements (the definition is the test oracle)."""
    return _compose("join", g1, b1, g2, b2)


def skew_join(g1: Graph, b1: Bipartition, g2: Graph, b2: Bipartition) -> tuple[Graph, Bipartition]:
    """Union plus every edge from the first operand's A-part to the second's B-part."""
    return _compose("skew", g1, b1, g2, b2)


# ---------------------------------------------------------------------------
# decomposition trees


_BINARY = ("union", "join", "skew")


class DecompositionTree(tuple):
    """Build tree over single-vertex leaves, stored as its preorder: one flat
    tuple with one entry per node.  A union, join or skew node is its kind
    string, followed by its first operand's entries and then its second's.
    A leaf is its vertex id, negated when the vertex is on side Y, so each
    vertex is named once, with its side.

    Equality, hashing, pickling and repr are the tuple's own; the tuple is
    flat, so none of them recurses however deep the tree is.  The parts and
    the vertex count come from the one checked pass over the tree
    (``_spans``), so every reader rejects a malformed tree alike.
    """

    __slots__ = ()

    @property
    def part_x(self) -> tuple[int, ...]:
        """The X leaves' ids, ascending."""
        return tuple(mask_vertices(_spans(self)[2][0]))

    @property
    def part_y(self) -> tuple[int, ...]:
        """The Y leaves' ids, ascending."""
        return tuple(mask_vertices(_spans(self)[3][0]))

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, _spans(self)[0] + 1))


def _spans(t: DecompositionTree) -> tuple[int, list[int], list[int], list[int]]:
    """The tree's vertex count n and, per entry, the end of its subtree in
    the preorder and the masks of its X and Y leaves, once the entries make
    one tree whose leaf ids are 1..n, each once; ValueError otherwise.

    One reverse-preorder pass: a binary node at i has its first operand at
    i + 1 and its second where the first ends, both finished before it, and
    it has two operands exactly when neither runs past the last entry.  An
    id outside 1..len(t) builds no bit, so with n leaves the root's masks
    cover 1..n exactly when every leaf adds its own bit: the ids are 1..n,
    each once.
    """
    size = len(t)
    # one slot past the last entry: an operand starting there is missing
    end, xs, ys = [0] * size + [size], [0] * (size + 1), [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        entry = t[i]
        if entry.__class__ is int:
            end[i] = i + 1
            if 0 < entry <= size:
                xs[i] = 1 << (entry - 1)
            elif 0 < -entry <= size:
                ys[i] = 1 << (-entry - 1)
        elif entry in _BINARY:
            second = end[i + 1]
            if second == size:
                raise ValueError("malformed tree: binary node without two children")
            end[i] = end[second]
            xs[i] = xs[i + 1] | xs[second]
            ys[i] = ys[i + 1] | ys[second]
        else:
            raise ValueError(f"malformed tree: unknown node kind {entry!r}")
    if not size or end[0] != size:
        raise ValueError(f"malformed tree: {size} entries do not make one tree")
    n = (size + 1) // 2
    if xs[0] | ys[0] != (1 << n) - 1:
        raise ValueError(f"malformed tree: leaf ids must be 1..{n}, each once")
    return n, end, xs, ys


def recompose(t: DecompositionTree) -> Graph:
    """Replay a build tree into the graph it certifies (same ids, same edges).

    The tree is checked first (``_spans``), so the leaf ids are 1..n, each
    once.  One forward pass over the preorder carries what each entry's X
    and Y leaves see outside its subtree: nothing at the root, and at an
    operand its node's pair ORed with the operand's masks from ``_sees``.
    Two leaves are adjacent exactly when their lowest common ancestor's kind
    joins their sides, so a leaf's row is its side's mask.  ``_sees`` puts
    each edge in both its ends' masks and none in a leaf's own operand, so
    the rows are symmetric, loop-free and in range and skip ``Graph``'s checks.
    """
    return _recompose(t, _spans(t))


def _recompose(t: DecompositionTree, spans: tuple[int, list[int], list[int], list[int]]) -> Graph:
    """``recompose`` of a tree given its checked pass, ``spans = _spans(t)``."""
    n, end, xs, ys = spans
    rows = [0] * n
    # per entry, what its X leaves and its Y leaves see outside its subtree
    out = [(0, 0)] * len(t)
    for i, entry in enumerate(t):
        ox, oy = out[i]
        if entry.__class__ is int:
            rows[abs(entry) - 1] = ox if entry > 0 else oy
            continue
        second = end[i + 1]
        sx1, sy1, sx2, sy2 = _sees(entry, xs[i + 1], ys[i + 1], xs[second], ys[second])
        out[i + 1], out[second] = (ox | sx1, oy | sy1), (ox | sx2, oy | sy2)
    return Graph._trusted(n, tuple(rows))


def _split(adj: tuple[int, ...], x_mask: int, y_mask: int, mask: int) -> list[int | str] | None:
    """The preorder entries of a build tree of the subgraph that ``mask``
    induces in the graph with rows ``adj`` under the sides ``x_mask`` and
    ``y_mask``, or None when it has no tree.

    Exact with no size cap: every split is forced, so nothing is searched.
    ``mask`` must be nonempty and lie inside ``x_mask | y_mask``.
    """
    n = len(adj)
    in_x = [bool((x_mask >> i) & 1) for i in range(n)]
    # cross non-neighbours: adjacency once cross pairs are flipped
    co_adj = [(y_mask if in_x[i] else x_mask) & ~adj[i] for i in range(n)]
    # a set closed under x->y on cross non-edges and y->x on cross edges is
    # exactly the first operand of a skew split
    arcs = [co_adj[i] if in_x[i] else adj[i] for i in range(n)]
    # the same rule over reversed arcs: y->x on cross non-edges, x->y on cross edges
    back = [adj[i] if in_x[i] else co_adj[i] for i in range(n)]

    def closure(seed: int, succ: list[int], mask: int) -> int:
        reached = frontier = seed
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= succ[low.bit_length() - 1]
            frontier = nxt & mask & ~reached
            reached |= frontier
        return reached

    # force the split of every subgraph, first operand first: the visit
    # order is the tree's preorder
    tree: list[int | str] = []
    todo = [mask]
    while todo:
        mask = todo.pop()
        if mask.bit_count() == 1:
            v = mask.bit_length()
            tree.append(v if mask & x_mask else -v)
            continue
        low = mask & -mask
        kind, first = "union", closure(low, adj, mask)
        if first == mask:
            kind, first = "join", closure(low, co_adj, mask)
        if first == mask:
            # the skew split starts from the least vertex whose closure is not
            # the whole mask (see the module docstring)
            kind, first = "skew", closure(low, arcs, mask)
            if first == mask:
                rest = mask & ~closure(low, back, mask)
                if not rest:
                    # buildable graphs form a hereditary class, so any valid split
                    # has buildable sides and a failing side means the whole graph fails
                    return None
                first = closure(rest & -rest, arcs, mask)
        tree.append(kind)
        todo += (mask & ~first, first)
    return tree


def decompose(g: Graph, b: Bipartition) -> DecompositionTree | None:
    """Find a build tree for ``g`` under ``b``, or None when no tree exists.

    Exact with no size cap: every split is forced, so nothing is searched.  The
    root orientation needs no second try, because a skew join under the
    flipped orientation is a skew join with its operands swapped.
    """
    validate_bipartition(g, b)
    if g.n == 0:
        return None
    entries = _split(g.adj, b.mask_a, b.mask_b, b.mask_a | b.mask_b)
    return None if entries is None else DecompositionTree(entries)


def extend_tree(t: DecompositionTree, g: Graph) -> DecompositionTree | None:
    """A build tree of ``g`` grown from ``t``, a build tree of ``g`` minus its
    last vertex v, or None when ``g`` has none.

    v goes on the side opposite its neighbours (X when it has none).  From
    the root, at each node the walk first checks whether v sees all or none
    of the node's leaves on the side opposite v; if so it splices a join or
    a union of v's leaf and the node in the node's place.  Otherwise it goes
    into an operand only when v sees across the node what that operand's
    leaves on v's side see (``_sees``), the first operand when both do.
    When neither does, the node's leaves plus v are split again
    (``_split``) and put in its place.

    Exact both ways.  Every leaf of the new subtree, v included, relates to
    the leaves outside it as the node's ancestors require, so the spliced
    tree is a tree of ``g``.  And the node's leaves plus v induce a subgraph
    of ``g``, and an induced subgraph of a buildable graph is buildable
    (``restrict``), so a subgraph with no tree means ``g`` has none.  The
    answer is exact only when ``t`` is a tree of ``g`` minus v, which is not
    checked here: closure's walk re-checks each tree it keeps with
    ``recompose``.

    ``t`` is checked by the same pass that gives its entries their subtree
    ends and leaf masks (``_spans``).
    ValueError on a malformed ``t``, on a ``t`` whose vertex count is not
    ``g.n - 1``, and when v has neighbours on both of ``t``'s sides.
    """
    return _extend_tree(t, _spans(t), g)


def _extend_tree(
    t: DecompositionTree, spans: tuple[int, list[int], list[int], list[int]], g: Graph
) -> DecompositionTree | None:
    """``extend_tree`` of a tree given its checked pass, ``spans = _spans(t)``."""
    n, end, xs, ys = spans
    if n != g.n - 1:
        raise ValueError(f"tree has {n} vertices, but g minus its last vertex has {g.n - 1}")
    seen = g.adj[n]
    if seen & xs[0] and seen & ys[0]:
        raise ValueError(f"vertex {g.n} has neighbours on both sides of the tree")
    v_in_x = not seen & xs[0]
    bit = 1 << n
    leaf = g.n if v_in_x else -g.n
    # per entry, its leaves on the side opposite v; v's side's place in ``_sees``
    opposite, side = (ys, 0) if v_in_x else (xs, 1)
    i = 0
    while True:
        here = seen & opposite[i]
        if here == opposite[i] or not here:
            # a leaf always stops here: it is on v's side or one vertex opposite
            return DecompositionTree(t[:i] + ("join" if here else "union", leaf) + t[i:])
        first = i + 1
        second = end[first]
        sees = _sees(t[i], xs[first], ys[first], xs[second], ys[second])
        # v enters an operand whose leaves on v's side see across the node what v sees
        if seen & opposite[second] == sees[side]:
            i = first
        elif seen & opposite[first] == sees[side + 2]:
            i = second
        else:
            x_mask, y_mask = (xs[0] | bit, ys[0]) if v_in_x else (xs[0], ys[0] | bit)
            entries = _split(g.adj, x_mask, y_mask, xs[i] | ys[i] | bit)
            if entries is None:
                return None
            return DecompositionTree(t[:i] + tuple(entries) + t[end[i] :])


def restrict(t: DecompositionTree, ids) -> DecompositionTree:
    """The tree of the subgraph that ``ids`` induce in ``recompose(t)``,
    relabelled 1..k in ascending id order as ``induced_subgraph`` does.

    The leaves outside ``ids`` are dropped and each node left with one
    operand is spliced out.  Two leaves' adjacency depends only on their
    lowest common ancestor's kind, their sides and which operand each is in
    (``_sees``), and both survive the splicing, so the tree recomposes
    to the induced subgraph: decomposability is hereditary.  A node keeps
    its entry exactly when both its operands keep a leaf, and a kept
    operand keeps its entries in place, so the result is the kept entries
    in preorder.

    ValueError on a malformed tree, on an id outside 1..n and on empty ``ids``.
    """
    n, end, xs, ys = _spans(t)
    keep = set(ids)
    for v in keep:
        _int_in("vertex", v, 1, n)
    if not keep:
        raise ValueError("ids must name at least one vertex")
    kept = mask_of(keep)
    rank = {v: k for k, v in enumerate(sorted(keep), start=1)}
    out: list[int | str] = []
    for i, entry in enumerate(t):
        if entry.__class__ is int:
            if abs(entry) in keep:
                out.append(rank[entry] if entry > 0 else -rank[-entry])
        elif (xs[i + 1] | ys[i + 1]) & kept and (xs[end[i + 1]] | ys[end[i + 1]]) & kept:
            out.append(entry)
    return DecompositionTree(out)


# ---------------------------------------------------------------------------
# tree text form


def format_tree(t: DecompositionTree) -> str:
    """S-expression naming each vertex once, at its leaf, e.g.
    ``(skew (leaf 1 X) (leaf 2 Y))``; a tree ``recompose`` rejects raises the
    same ValueError here.  Each binary node is counted at its entry against
    the leaf that ends its subtree (``_spans``), which the preorder reaches
    later, and that leaf is followed by one ``)`` per count."""
    end = _spans(t)[1]
    closing = [0] * len(t)
    pieces: list[str] = []
    for i, entry in enumerate(t):
        if entry.__class__ is int:
            pieces.append((f"(leaf {entry} X)" if entry > 0 else f"(leaf {-entry} Y)") + ")" * closing[i])
        else:
            closing[end[i] - 1] += 1
            pieces.append(f"({entry}")
    return " ".join(pieces)


def parse_tree(text: str) -> DecompositionTree:
    """Read ``format_tree``'s text; ValueError with the token position on
    malformed text (a vertex id not in canonical decimal form included), a
    vertex id below 1 or a repeated vertex id.

    One loop reads the tokens; ``expect`` names what the next one must be:
    "(" opens a node, "kind" names it, "id" and "side" fill a leaf, ")"
    closes a leaf and "close" a binary node, and "done" follows the root.
    Each node's entry is appended as its kind or side is read, in preorder.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    expect = "("
    entries: list[int | str] = []
    # per open binary node, outermost first: whether its first operand is read
    first_read: list[bool] = []
    seen: set[int] = set()
    vertex = 0
    for pos, tok in enumerate(tokens):
        if expect == "(":
            if tok != "(":
                raise ValueError(f"malformed tree text near token {pos}")
            expect = "kind"
        elif expect == "kind":
            if tok in _BINARY:
                # the module's kind string, not the token: a tree holds no
                # string of its own
                entries.append(_BINARY[_BINARY.index(tok)])
                first_read.append(False)
                expect = "("
            elif tok == "leaf":
                expect = "id"
            else:
                raise ValueError(f"unknown node kind {tok!r} at token {pos}")
        elif expect == "id":
            try:
                vertex = _canonical_int(tok)
            except ValueError:
                raise ValueError(f"malformed tree text near token {pos}") from None
            if vertex < 1:
                raise ValueError(f"vertex id must be at least 1, got {vertex} at token {pos}")
            if vertex in seen:
                raise ValueError(f"repeated vertex id {vertex} at token {pos}")
            seen.add(vertex)
            expect = "side"
        elif expect == "side":
            if tok not in ("X", "Y"):
                raise ValueError(f"leaf side must be X or Y, got {tok!r} at token {pos}")
            entries.append(vertex if tok == "X" else -vertex)
            expect = ")"
        elif expect == "done":
            raise ValueError(f"trailing tokens after tree at token {pos}")
        else:
            if tok != ")":
                raise ValueError(f"malformed tree text near token {pos}")
            if expect == "close":
                first_read.pop()
            # a finished node closes the open node whose first operand is read
            if first_read and first_read[-1]:
                expect = "close"
            elif first_read:
                first_read[-1] = True
                expect = "("
            else:
                expect = "done"
    if expect == "id":
        # the id is read at the token after "leaf", located at "leaf"
        raise ValueError(f"malformed tree text near token {len(tokens) - 1}")
    if expect != "done":
        raise ValueError(f"tree text ends early at token {len(tokens)}")
    return DecompositionTree(entries)


# ---------------------------------------------------------------------------
# letter representations


@dataclass(frozen=True)
class LetterRepresentation:
    """A letter graph (Petkovšek 2002): ``letters[v - 1]`` is vertex v's
    letter, an int of at least 0, ``order`` lists the vertices, and
    ``decoder`` is a set of ordered letter pairs.  Vertices u placed before v
    are adjacent exactly when ``(letters[u - 1], letters[v - 1])`` is in the
    decoder, so ``(a, a)`` makes letter a's vertices a clique."""

    letters: tuple[int, ...]
    order: tuple[int, ...]
    decoder: frozenset[tuple[int, int]]


def _check_letter(rep: LetterRepresentation) -> None:
    """ValueError when a field is not of its declared kind, the order is not
    a permutation of the vertices (an entry that is not an int, a bool
    included, is no vertex), a letter is not an int of at least 0, or a
    decoder element is not a pair of letters."""
    for name, kind in (("letters", tuple), ("order", tuple), ("decoder", frozenset)):
        value = getattr(rep, name)
        if value.__class__ is not kind:
            raise ValueError(f"{name} must be a {kind.__name__}, got a {type(value).__name__}")
    letters, order = rep.letters, rep.order
    if any(v.__class__ is not int for v in order) or sorted(order) != list(range(1, len(letters) + 1)):
        raise ValueError("order must be a permutation of the vertices")
    if any(a.__class__ is not int or a < 0 for a in letters):
        raise ValueError("letters must be ints of at least 0")
    for pair in rep.decoder:
        if pair.__class__ is not tuple or len(pair) != 2 or any(a.__class__ is not int or a < 0 for a in pair):
            raise ValueError(f"decoder element {pair!r} is not a pair of letters")


def decode_letter(rep: LetterRepresentation) -> Graph:
    """Rebuild the graph the representation prescribes; ValueError on a
    representation ``_check_letter`` refuses."""
    _check_letter(rep)
    letters, order = rep.letters, rep.order
    n = len(letters)
    # letter b -> the letters a whose vertices placed earlier a vertex of letter b sees
    sees: dict[int, list[int]] = {}
    for a, b in rep.decoder:
        sees.setdefault(b, []).append(a)
    # one walk along the order: each vertex sees the vertices placed so far of
    # the letters it sees, read off one mask per letter
    placed: dict[int, int] = {}
    earlier = [0] * n
    for v in order:
        b = letters[v - 1]
        seen = 0
        for a in sees.get(b, ()):
            seen |= placed.get(a, 0)
        earlier[v - 1] = seen
        placed[b] = placed.get(b, 0) | 1 << (v - 1)
    rows = list(earlier)
    for v, row in enumerate(earlier):
        while row:
            low = row & -row
            row ^= low
            rows[low.bit_length() - 1] |= 1 << v
    # the order is a permutation of 1..n, so the rows are symmetric, loop-free and in range
    return Graph._trusted(n, tuple(rows))


def verify_letter(rep: LetterRepresentation, g: Graph) -> bool:
    """True iff the representation is valid and decodes to exactly ``g``."""
    try:
        decoded = decode_letter(rep)
    except ValueError:
        return False
    return decoded == g


def letter_representation_grid(k: int, m: int) -> LetterRepresentation:
    """Representation of the k-by-m universal grid: row i is letter i - 1, the
    order walks columns left to right with rows descending inside each
    column, and the decoder is every pair (i + 1, i): the lower row, met
    first, sees the row above."""
    _int_in("k", k)
    _int_in("m", m)
    letters = tuple(i for i in range(k) for _ in range(m))
    order = tuple(i * m + c for c in range(1, m + 1) for i in range(k - 1, -1, -1))
    return LetterRepresentation(letters, order, frozenset((i + 1, i) for i in range(k - 1)))


def format_letter(rep: LetterRepresentation) -> str:
    """Text form: each letter 0..max as a part of its vertices, tagged K when
    (a, a) is in the decoder and I otherwise; the order; and a table whose
    row a, column b is F when only (a, b) is in the decoder, B when only
    (b, a) is, C when both are, E when neither is, and . on the diagonal.
    ValueError on a representation ``decode_letter`` refuses."""
    _check_letter(rep)
    k = max(rep.letters, default=-1) + 1
    d = rep.decoder
    lines = [f"parts {k}"]
    for a in range(k):
        part = " ".join(str(v) for v, x in enumerate(rep.letters, start=1) if x == a)
        lines.append(f"part {a + 1} {'K' if (a, a) in d else 'I'}: {part}")
    lines.append("order: " + " ".join(str(v) for v in rep.order))
    lines.append("decoder:")
    for a in range(k):
        lines.append(" ".join("." if a == b else "EBFC"[2 * ((a, b) in d) + ((b, a) in d)] for b in range(k)))
    return "\n".join(lines) + "\n"

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

The skew split's first operand is the closure of the least vertex whose
closure is not the whole subgraph, found with at most three closures.  If
the least vertex ``low`` closes to a proper subset, it starts the split.
Otherwise every closure that contains ``low`` contains all of ``low``'s
closure, the whole subgraph, so the vertices that close to the whole
subgraph are exactly those that reach ``low``: the closure of ``low`` over
the reversed arcs.  The least vertex outside that set starts the split, and
when no vertex is outside it no skew split exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    Bipartition,
    Graph,
    _canonical_int,
    mask_of,
    mask_vertices,
    validate_bipartition,
)


# ---------------------------------------------------------------------------
# neighbourhood structure


def _independent_part(g: Graph, part: set[int] | frozenset[int]) -> list[int]:
    """The part's ids ascending, once each is a vertex of ``g`` and no two are adjacent."""
    vs = sorted(part)
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"part vertex {v} outside 1..{g.n}")
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
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[v - 1] for v in vs)
    return Graph.from_edges(k, edges, labels)


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
    """True iff every neighbourhood is consecutive in the opposite part's order."""
    validate_bipartition(g, b)
    if sorted(order_a) != sorted(b.part_a) or sorted(order_b) != sorted(b.part_b):
        raise ValueError("orders must be permutations of the parts")
    return _intervals_in_order(g, tuple(b.part_b), tuple(order_a)) and _intervals_in_order(
        g, tuple(b.part_a), tuple(order_b)
    )


# the most vertices per part that find_biconvex_order tries every order of
BICONVEX_GUARD = 8


def find_biconvex_order(g: Graph, b: Bipartition) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Exhaustive first-hit search for a biconvex order pair, or None.

    The two part orders are independent (a part's order only has to make the
    opposite part's neighbourhoods into intervals), so each side is searched
    separately over at most ``BICONVEX_GUARD``! candidates.
    """
    validate_bipartition(g, b)
    side_a, side_b = b.sorted_a(), b.sorted_b()
    if len(side_a) > BICONVEX_GUARD or len(side_b) > BICONVEX_GUARD:
        raise ValueError(f"parts exceed the search guard of {BICONVEX_GUARD}")

    def first_order(side: tuple[int, ...], opposite: tuple[int, ...]):
        for candidate in itertools.permutations(side):
            if _intervals_in_order(g, opposite, candidate):
                return candidate
        return None

    order_a = first_order(side_a, side_b)
    if order_a is None:
        return None
    order_b = first_order(side_b, side_a)
    if order_b is None:
        return None
    return order_a, order_b


# ---------------------------------------------------------------------------
# composition operations


def _add_cross(rows: list[int], kind: str, x1: int, y1: int, x2: int, y2: int) -> None:
    """OR into ``rows`` the edges a node of this kind adds between operands
    with side masks (X1, Y1) and (X2, Y2).

    A node's kind alone fixes them: none for a union, X1-Y2 for a skew join,
    and X1-Y2 plus X2-Y1 for a join (a join is a skew join both ways).
    Callers pass one of the three kinds; a tree's kinds are checked before
    it is replayed.
    """
    if kind == "union":
        return
    pairs: tuple[tuple[int, int], ...] = ((x1, y2),) if kind == "skew" else ((x1, y2), (x2, y1))
    for xs, ys in pairs:
        for side, other in ((xs, ys), (ys, xs)):
            while side:
                low = side & -side
                side ^= low
                rows[low.bit_length() - 1] |= other


def _compose(kind: str, g1: Graph, b1: Bipartition, g2: Graph, b2: Bipartition) -> tuple[Graph, Bipartition]:
    """The operands side by side, the second relabelled up by g1.n, plus the
    cross edges of a node of this kind."""
    validate_bipartition(g1, b1)
    validate_bipartition(g2, b2)
    shift = g1.n
    rows = list(g1.adj) + [row << shift for row in g2.adj]
    x1, y1 = mask_of(b1.part_a), mask_of(b1.part_b)
    x2, y2 = mask_of(b2.part_a) << shift, mask_of(b2.part_b) << shift
    _add_cross(rows, kind, x1, y1, x2, y2)
    labels = None
    if g1.labels is not None or g2.labels is not None:
        labels = (g1.labels or (None,) * g1.n) + (g2.labels or (None,) * g2.n)
    b = Bipartition.of(mask_vertices(x1 | x2), mask_vertices(y1 | y2))
    return Graph(g1.n + g2.n, tuple(rows), labels), b


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
    flat, so none of them recurses however deep the tree is.  The parts are
    read off the leaves once the tree passes ``recompose``'s checks.
    """

    __slots__ = ()

    @property
    def part_x(self) -> tuple[int, ...]:
        """The X leaves' ids, ascending."""
        _check_tree(self)
        return tuple(sorted(e for e in self if e.__class__ is int and e > 0))

    @property
    def part_y(self) -> tuple[int, ...]:
        """The Y leaves' ids, ascending."""
        _check_tree(self)
        return tuple(sorted(-e for e in self if e.__class__ is int and e < 0))

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, _check_tree(self) + 1))


def _check_tree(t: DecompositionTree) -> int:
    """The tree's vertex count, once its entries make one tree whose leaf
    ids are 1..n, each once; ValueError otherwise.

    In reverse preorder a node's operands are finished before the node, so
    counting finished operands checks the shape: a leaf finishes one, and a
    binary node turns its two into one.
    """
    finished = 0
    ids = []
    for entry in reversed(t):
        if entry.__class__ is int:
            ids.append(abs(entry))
            finished += 1
        elif entry in _BINARY:
            if finished < 2:
                raise ValueError("malformed tree: binary node without two children")
            finished -= 1
        else:
            raise ValueError(f"malformed tree: unknown node kind {entry!r}")
    if finished != 1:
        raise ValueError(f"malformed tree: {len(t)} entries do not make one tree")
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise ValueError(f"malformed tree: leaf ids must be 1..{len(ids)}, each once")
    return len(ids)


def recompose(t: DecompositionTree) -> Graph:
    """Replay a build tree into the graph it certifies (same ids, same edges).

    The tree is checked first, so the leaf ids are 1..n, each once, before
    any mask is built.  Then, in reverse preorder, every node meets its
    operands' finished (X, Y) masks and ORs the cross edges its kind fixes
    into the rows.  ``_add_cross`` writes each edge into the rows of both
    its ends, which are leaves of disjoint operands with ids in 1..n, so the
    rows are symmetric, loop-free and in range by construction and skip
    ``Graph``'s checks.
    """
    n = _check_tree(t)
    rows = [0] * n
    # a node's first operand finishes last, so its masks sit on top of the stack
    masks: list[tuple[int, int]] = []
    for entry in reversed(t):
        if entry.__class__ is int:
            masks.append((1 << (entry - 1), 0) if entry > 0 else (0, 1 << (-entry - 1)))
        else:
            lx, ly = masks.pop()
            rx, ry = masks.pop()
            _add_cross(rows, entry, lx, ly, rx, ry)
            masks.append((lx | rx, ly | ry))
    return Graph._trusted(n, tuple(rows))


def decompose(g: Graph, b: Bipartition) -> DecompositionTree | None:
    """Find a build tree for ``g`` under ``b``, or None when no tree exists.

    Exact with no size cap: every split is forced, so nothing is searched.  The
    root orientation needs no second try, because a skew join under the
    flipped orientation is a skew join with its operands swapped.
    """
    validate_bipartition(g, b)
    if g.n == 0:
        return None
    adj = g.adj
    x_mask, y_mask = mask_of(b.part_a), mask_of(b.part_b)
    in_x = [bool((x_mask >> i) & 1) for i in range(g.n)]
    # cross non-neighbours: adjacency once cross pairs are flipped
    co_adj = [(y_mask if in_x[i] else x_mask) & ~adj[i] for i in range(g.n)]
    # a set closed under x->y on cross non-edges and y->x on cross edges is
    # exactly the first operand of a skew split
    arcs = [co_adj[i] if in_x[i] else adj[i] for i in range(g.n)]
    # the same rule over reversed arcs: y->x on cross non-edges, x->y on cross edges
    back = [adj[i] if in_x[i] else co_adj[i] for i in range(g.n)]

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
    todo = [x_mask | y_mask]
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
    return DecompositionTree(tree)


# ---------------------------------------------------------------------------
# tree text form


def format_tree(t: DecompositionTree) -> str:
    """S-expression naming each vertex once, at its leaf, e.g.
    ``(skew (leaf 1 X) (leaf 2 Y))``; a tree ``recompose`` rejects raises the
    same ValueError here."""
    _check_tree(t)
    pieces: list[str] = []
    # operands still to write, per open binary node, innermost last
    owed: list[int] = []
    for entry in t:
        if entry.__class__ is not int:
            pieces.append(f"({entry} ")
            owed.append(2)
            continue
        pieces.append(f"(leaf {entry} X)" if entry > 0 else f"(leaf {-entry} Y)")
        # a finished operand closes every node it was the last operand of
        while owed:
            owed[-1] -= 1
            if owed[-1]:
                pieces.append(" ")
                break
            owed.pop()
            pieces.append(")")
    return "".join(pieces)


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
                entries.append(tok)
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
            raise ValueError("trailing tokens after tree")
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


_DECODER_SYMBOLS = ("F", "B", "C", "E")
_MIRROR = {"F": "B", "B": "F", "C": "C", "E": "E"}


@dataclass(frozen=True)
class LetterRepresentation:
    """Vertex partition, linear order, and per-pair decoder certifying how
    every cross edge set arises from the order (forward/backward/complete/empty)."""

    parts: tuple[tuple[int, ...], ...]
    part_kinds: tuple[str, ...]  # "independent" | "clique" per part
    order: tuple[int, ...]
    decoder: tuple[tuple[str, ...], ...]  # diagonal entries are "."


def _validate_letter(rep: LetterRepresentation) -> int:
    seen: set[int] = set()
    for part in rep.parts:
        for v in part:
            if v in seen:
                raise ValueError(f"vertex {v} appears in two parts")
            seen.add(v)
    n = len(seen)
    if sorted(seen) != list(range(1, n + 1)):
        raise ValueError("parts must cover ids 1..n")
    if sorted(rep.order) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of the vertices")
    p = len(rep.parts)
    if len(rep.part_kinds) != p or any(k not in ("independent", "clique") for k in rep.part_kinds):
        raise ValueError("part kinds must be 'independent' or 'clique' per part")
    if len(rep.decoder) != p or any(len(row) != p for row in rep.decoder):
        raise ValueError("decoder must be a p x p table")
    for i in range(p):
        if rep.decoder[i][i] != ".":
            raise ValueError("decoder diagonal must be '.'")
        for j in range(p):
            if i == j:
                continue
            sym = rep.decoder[i][j]
            if sym not in _DECODER_SYMBOLS:
                raise ValueError(f"unknown decoder symbol {sym!r}")
            if _MIRROR[sym] != rep.decoder[j][i]:
                raise ValueError("decoder table is not mirror-consistent")
    return n


def decode_letter(rep: LetterRepresentation) -> Graph:
    """Rebuild the graph prescribed by (parts, order, decoder)."""
    n = _validate_letter(rep)
    rank = {v: i for i, v in enumerate(rep.order)}
    edges: list[tuple[int, int]] = []
    for pi, part in enumerate(rep.parts):
        if rep.part_kinds[pi] == "clique":
            edges.extend(
                (min(u, v), max(u, v)) for u, v in itertools.combinations(part, 2)
            )
    p = len(rep.parts)
    for i in range(p):
        for j in range(i + 1, p):
            sym = rep.decoder[i][j]
            if sym == "E":
                continue
            for u in rep.parts[i]:
                for v in rep.parts[j]:
                    if sym == "C":
                        keep = True
                    elif sym == "F":
                        keep = rank[u] < rank[v]
                    else:  # "B"
                        keep = rank[v] < rank[u]
                    if keep:
                        edges.append((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def verify_letter(rep: LetterRepresentation, g: Graph) -> bool:
    """Decoder-consistency against ``g``: every cross pair and every part kind
    must match what the representation prescribes."""
    try:
        decoded = decode_letter(rep)
    except ValueError:
        return False
    return decoded == g


def letter_representation_grid(k: int, m: int) -> LetterRepresentation:
    """Representation of the k-by-m universal grid: parts are rows, the order
    walks columns left to right with rows descending inside each column, and
    consecutive rows decode as order comparisons (all other pairs are empty)."""
    if k < 1 or m < 1:
        raise ValueError("grid dimensions must be positive")
    vid = lambda i, j: (i - 1) * m + j
    parts = tuple(tuple(vid(i, j) for j in range(1, m + 1)) for i in range(1, k + 1))
    order = tuple(vid(i, c) for c in range(1, m + 1) for i in range(k, 0, -1))
    decoder = tuple(
        tuple(
            "."
            if i == j
            else ("B" if j == i + 1 else ("F" if j == i - 1 else "E"))
            for j in range(k)
        )
        for i in range(k)
    )
    return LetterRepresentation(parts, ("independent",) * k, order, decoder)


def format_letter(rep: LetterRepresentation) -> str:
    lines = [f"parts {len(rep.parts)}"]
    for idx, (part, kind) in enumerate(zip(rep.parts, rep.part_kinds), start=1):
        tag = "I" if kind == "independent" else "K"
        lines.append(f"part {idx} {tag}: " + " ".join(str(v) for v in part))
    lines.append("order: " + " ".join(str(v) for v in rep.order))
    lines.append("decoder:")
    for row in rep.decoder:
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"

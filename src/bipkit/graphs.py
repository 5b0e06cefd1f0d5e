"""Immutable graph values, bipartitions, and the text format every tool consumes.

Vertices are dense 1-based ids ``1..n``.  Adjacency is stored as one bitmask
per vertex (bit ``v-1`` set when ``v`` is a neighbour), so is-edge tests and
neighbourhood intersections cost a single integer operation at the sizes this
package targets.  Labels are optional per-vertex metadata and never take part
in equality; isomorphism lives in :mod:`bipkit.matching`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """Raised by :func:`parse_graph` with the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _canonical_int(tok: str) -> int:
    """``int(tok)`` when ``str(int(tok)) == tok``, else ValueError: no ``+``,
    leading zero, ``_`` or non-ASCII digit, so formatters write back what was read."""
    value = int(tok)
    if str(value) != tok:
        raise ValueError(f"not a canonical integer: {tok!r}")
    return value


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask for a collection of 1-based vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def mask_vertices(mask: int) -> Iterator[int]:
    """1-based vertex ids of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on vertices ``1..n`` without loops or multi-edges.

    Equality and hashing compare ``(n, adj)`` only: labels are provenance
    metadata.  Values are immutable and safe to share across workers.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[str | None, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {i + 1} has a neighbour out of range")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i + 1} has a self-loop")
            rest = row
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest ^= low
                if not (self.adj[j] >> i) & 1:
                    raise ValueError(f"edge {i + 1},{j + 1} is not symmetric")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label tuple length does not match vertex count")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str | None] | None = None,
    ) -> "Graph":
        """Build a graph from an edge list; duplicate edges collapse silently."""
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge endpoint out of range: {u},{v}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        lab = tuple(labels) if labels is not None else None
        return cls(n, tuple(adj), lab)

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from rows that are symmetric, loop-free and in range by
        construction, skipping ``__post_init__``'s checks."""
        g = object.__new__(cls)
        # the frozen dataclass's own __init__ sets fields this way; writing
        # to g.__dict__ instead would give every graph a larger dict
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        object.__setattr__(g, "labels", None)
        return g

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, sorted lexicographically."""
        out = []
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    out.append((i + 1, j + 1))
                row >>= 1
                j += 1
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u - 1] >> (v - 1)) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(mask_vertices(self.adj[v - 1]))

    def degree(self, v: int) -> int:
        return self.adj[v - 1].bit_count()

    def label(self, v: int) -> str | None:
        if self.labels is None:
            return None
        return self.labels[v - 1]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class Bipartition:
    """An explicit two-part split, carried beside the graph it describes.

    The split is ordered: several operations (bipartite complement inside a
    fixed frame, the skew join) distinguish part A from part B, so callers
    must not treat the parts as interchangeable.
    """

    part_a: frozenset[int]
    part_b: frozenset[int]

    @classmethod
    def of(cls, part_a: Iterable[int], part_b: Iterable[int]) -> "Bipartition":
        return cls(frozenset(part_a), frozenset(part_b))

    def flipped(self) -> "Bipartition":
        return Bipartition(self.part_b, self.part_a)

    def sorted_a(self) -> tuple[int, ...]:
        return tuple(sorted(self.part_a))

    def sorted_b(self) -> tuple[int, ...]:
        return tuple(sorted(self.part_b))


def validate_bipartition(g: Graph, b: Bipartition) -> None:
    """Raise ValueError unless ``b`` is a valid bipartition of ``g``."""
    if b.part_a & b.part_b:
        raise ValueError("parts are not disjoint")
    if b.part_a | b.part_b != set(g.vertices()):
        raise ValueError("parts do not cover the vertex set")
    mask_a = mask_of(b.part_a)
    mask_b = mask_of(b.part_b)
    for v in b.part_a:
        if g.adj[v - 1] & mask_a:
            raise ValueError(f"edge inside part A at vertex {v}")
    for v in b.part_b:
        if g.adj[v - 1] & mask_b:
            raise ValueError(f"edge inside part B at vertex {v}")


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by ``s``, relabelled ``1..|s|`` in ascending id order.

    Labels are carried over; the relabelling preserves the order of the kept
    ids, so certificates over the result translate back by position.
    """
    kept = sorted(set(s))
    for v in kept:
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
    index = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for i, v in enumerate(kept):
        row = g.adj[v - 1]
        for u in kept[i + 1 :]:
            if (row >> (u - 1)) & 1:
                adj[i] |= 1 << index[u]
                adj[index[u]] |= 1 << i
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[v - 1] for v in kept)
    return Graph(len(kept), tuple(adj), labels)


def bipartite_complement(g: Graph, b: Bipartition) -> Graph:
    """Complement across the two parts: cross edge present iff absent in ``g``."""
    validate_bipartition(g, b)
    mask_a = mask_of(b.part_a)
    mask_b = mask_of(b.part_b)
    adj = list(g.adj)
    for v in b.part_a:
        adj[v - 1] = mask_b & ~g.adj[v - 1]
    for v in b.part_b:
        adj[v - 1] = mask_a & ~g.adj[v - 1]
    return Graph(g.n, tuple(adj), g.labels)


@lru_cache(maxsize=256)
def _component_masks(adj: tuple[int, ...]) -> tuple[tuple[int, int, bool], ...]:
    """``(component, side, bipartite)`` masks per component, lowest id first.

    A breadth-first search by layers from each component's lowest vertex:
    ``side`` holds the even layers, the lowest vertex included, and the
    component is bipartite iff no edge joins two vertices of one layer.
    Cached, because the matcher asks again for every search into one host.
    """
    out = []
    left = (1 << len(adj)) - 1
    while left:
        frontier = side = comp = left & -left
        even = bipartite = True
        while frontier:
            reach = 0
            rest = frontier
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= adj[low.bit_length() - 1]
            if reach & frontier:
                bipartite = False
            frontier = reach & ~comp
            comp |= frontier
            even = not even
            if even:
                side |= frontier
        left &= ~comp
        out.append((comp, side, bipartite))
    return tuple(out)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the components, each sorted, listed by minimum element."""
    return [tuple(mask_vertices(comp)) for comp, _, _ in _component_masks(g.adj)]


def is_connected(g: Graph) -> bool:
    return len(_component_masks(g.adj)) <= 1


def find_bipartition(g: Graph) -> Bipartition | None:
    """2-colour by BFS, or None when some component has an odd cycle.

    The lowest id of each component lands in part A, which pins the
    orientation.
    """
    part_a = 0
    for _, side, bipartite in _component_masks(g.adj):
        if not bipartite:
            return None
        part_a |= side
    part_b = ((1 << g.n) - 1) & ~part_a
    return Bipartition(frozenset(mask_vertices(part_a)), frozenset(mask_vertices(part_b)))


def parse_graph(text: str) -> tuple[Graph, Bipartition | None]:
    """Parse the text format: ``# comment`` lines, ``p <n>``, optional ``b``, ``e u v``.

    Numbers are canonical decimals (``_canonical_int``), and edge lines
    require ``1 <= u < v <= n``.  Errors carry the line number.
    """
    n = None
    part_a: list[int] | None = None
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise GraphParseError("duplicate header", line_no)
            if len(fields) != 2:
                raise GraphParseError("header must be 'p <n>'", line_no)
            try:
                n = _canonical_int(fields[1])
            except ValueError:
                raise GraphParseError("vertex count is not an integer in canonical form", line_no) from None
            if n < 0:
                raise GraphParseError("vertex count must be non-negative", line_no)
        elif kind == "b":
            if n is None:
                raise GraphParseError("'b' line before header", line_no)
            if part_a is not None:
                raise GraphParseError("duplicate 'b' line", line_no)
            try:
                part_a = [_canonical_int(f) for f in fields[1:]]
            except ValueError:
                raise GraphParseError("id in 'b' line is not an integer in canonical form", line_no) from None
            for v in part_a:
                if not (1 <= v <= n):
                    raise GraphParseError(f"id {v} out of range 1..{n}", line_no)
            if len(set(part_a)) != len(part_a):
                raise GraphParseError("repeated id in 'b' line", line_no)
        elif kind == "e":
            if n is None:
                raise GraphParseError("'e' line before header", line_no)
            if len(fields) != 3:
                raise GraphParseError("edge line must be 'e <u> <v>'", line_no)
            try:
                u, v = _canonical_int(fields[1]), _canonical_int(fields[2])
            except ValueError:
                raise GraphParseError("edge endpoint is not an integer in canonical form", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"edge {u},{v} out of range 1..{n}", line_no)
            if u >= v:
                raise GraphParseError(f"edge {u},{v} must satisfy u < v", line_no)
            if (u, v) in seen_edges:
                raise GraphParseError(f"duplicate edge {u},{v}", line_no)
            seen_edges.add((u, v))
            edges.append((u, v))
        else:
            raise GraphParseError(f"unknown line type '{kind}'", line_no)
    if n is None:
        raise GraphParseError("missing 'p <n>' header", 1)
    g = Graph.from_edges(n, edges)
    b = None
    if part_a is not None:
        rest = frozenset(g.vertices()) - frozenset(part_a)
        b = Bipartition(frozenset(part_a), rest)
        validate_bipartition(g, b)
    return g, b


def serialize_graph(g: Graph, b: Bipartition | None = None) -> str:
    """Deterministic text form: header, optional ``b``, edges sorted by (u, v)."""
    lines = [f"p {g.n}"]
    if b is not None:
        validate_bipartition(g, b)
        lines.append(("b " + " ".join(str(v) for v in b.sorted_a())).rstrip())
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"

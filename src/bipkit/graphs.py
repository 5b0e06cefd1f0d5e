"""Immutable graph values, bipartitions, and the text format every tool consumes.

Vertices are dense 1-based ids ``1..n``.  Adjacency is stored as one bitmask
per vertex (bit ``v-1`` set when ``v`` is a neighbour), so is-edge tests and
neighbourhood intersections cost a single integer operation at the sizes this
package targets.  A graph is its vertex count and its rows, nothing more: two
graphs are equal when their rows are, and isomorphism lives in
:mod:`bipkit.matching`.
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


def _int_in(name: str, value: int, least: int = 1, most: int | None = None) -> None:
    """The package's one rule for a count, size, range end or budget: refuse a
    bool or any other non-int first, so no comparison ever sees it, then a
    value outside ``least..most`` (no upper bound when ``most`` is None), with
    one ValueError that names the value and its bounds."""
    if value.__class__ is not int or value < least or (most is not None and value > most):
        bounds = f"of at least {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{name} must be an int {bounds}, got {value!r}")


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


@dataclass(frozen=True, slots=True)
class Graph:
    """Undirected graph on vertices ``1..n`` without loops or multi-edges.

    Equality and hashing compare ``(n, adj)``.  Values are immutable and safe
    to share across workers.  The two fields sit in slots, with no
    per-instance ``__dict__``, because exhaustive checks hold graphs by the
    thousand: on Python 3.11 a graph costs 48 B beside its rows, against
    88 B with a dict and about 150 B once unpickling has built that dict.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _int_in("vertex count", self.n, 0)
        if self.adj.__class__ is not tuple:
            raise ValueError(f"adjacency must be a tuple of int bitmasks, got a {type(self.adj).__name__}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row.__class__ is not int:
                raise ValueError(f"vertex {i + 1} row must be an int bitmask, got {row!r}")
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

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; duplicate edges collapse silently."""
        _int_in("vertex count", n, 0)
        adj = [0] * n
        for i, edge in enumerate(edges, start=1):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {i} must be a pair of vertex ids, got {edge!r}") from None
            if u.__class__ is not int or v.__class__ is not int or not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge endpoints must be ints in 1..{n}, got {u!r},{v!r}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return cls(n, tuple(adj))

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from rows that are symmetric, loop-free and in range by
        construction, skipping ``__post_init__``'s checks."""
        g = object.__new__(cls)
        # the frozen dataclass's own __init__ fills the slots this way
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

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
        _int_in("vertex", u, 1, self.n)
        _int_in("vertex", v, 1, self.n)
        return bool((self.adj[u - 1] >> (v - 1)) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        _int_in("vertex", v, 1, self.n)
        return tuple(mask_vertices(self.adj[v - 1]))

    def degree(self, v: int) -> int:
        _int_in("vertex", v, 1, self.n)
        return self.adj[v - 1].bit_count()

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Bipartition:
    """An explicit two-part split, carried beside the graph it describes.

    The split is ordered: several operations (bipartite complement inside a
    fixed frame, the skew join) distinguish part A from part B, so callers
    must not treat the parts as interchangeable.

    The parts are stored as two vertex masks, ``mask_a`` and ``mask_b``, in
    the bit layout of :class:`Graph` rows.  ``part_a`` and ``part_b`` build
    a frozenset on each call, so hot paths should read the masks.  Equality
    and hashing compare the masks of two bipartitions, never a bipartition
    with a tuple.
    """

    mask_a: int
    mask_b: int

    def __init__(self, part_a: frozenset[int], part_b: frozenset[int]):
        for name, part in (("part A", part_a), ("part B", part_b)):
            # an id below 1 has no bit in a mask
            if part.__class__ is not frozenset or not {int}.issuperset(map(type, part)) or min(part, default=1) < 1:
                raise ValueError(f"{name} must be a frozenset of int vertex ids, got {part!r}")
        # a valid bipartition names ids 1..|A| + |B|, and a mask spends one
        # bit per id up to its largest, so a larger id is refused first
        size = len(part_a) + len(part_b)
        top = max(max(part_a, default=0), max(part_b, default=0))
        if top > size:
            raise ValueError(f"vertex id {top} is above |A| + |B| = {size}")
        object.__setattr__(self, "mask_a", mask_of(part_a))
        object.__setattr__(self, "mask_b", mask_of(part_b))

    @classmethod
    def _trusted(cls, mask_a: int, mask_b: int) -> "Bipartition":
        """A bipartition from two masks of ids, skipping ``__init__``'s checks."""
        b = object.__new__(cls)
        object.__setattr__(b, "mask_a", mask_a)
        object.__setattr__(b, "mask_b", mask_b)
        return b

    @classmethod
    def of(cls, part_a: Iterable[int], part_b: Iterable[int]) -> "Bipartition":
        return cls(frozenset(part_a), frozenset(part_b))

    def __repr__(self):
        return f"Bipartition(part_a={self.part_a!r}, part_b={self.part_b!r})"

    @property
    def part_a(self) -> frozenset[int]:
        return frozenset(mask_vertices(self.mask_a))

    @property
    def part_b(self) -> frozenset[int]:
        return frozenset(mask_vertices(self.mask_b))

    def flipped(self) -> "Bipartition":
        return Bipartition._trusted(self.mask_b, self.mask_a)

    def sorted_a(self) -> tuple[int, ...]:
        return tuple(mask_vertices(self.mask_a))

    def sorted_b(self) -> tuple[int, ...]:
        return tuple(mask_vertices(self.mask_b))


def validate_bipartition(g: Graph, b: Bipartition) -> None:
    """Raise ValueError unless ``b`` is a :class:`Bipartition` and a valid
    bipartition of ``g``."""
    if b.__class__ is not Bipartition:
        raise ValueError(f"b must be a Bipartition, got a {type(b).__name__}")
    mask_a, mask_b = b.mask_a, b.mask_b
    if mask_a & mask_b:
        raise ValueError("parts are not disjoint")
    if mask_a | mask_b != (1 << g.n) - 1:
        raise ValueError("parts do not cover the vertex set")
    for v in mask_vertices(mask_a):
        if g.adj[v - 1] & mask_a:
            raise ValueError(f"edge inside part A at vertex {v}")
    for v in mask_vertices(mask_b):
        if g.adj[v - 1] & mask_b:
            raise ValueError(f"edge inside part B at vertex {v}")


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by ``s``, relabelled ``1..|s|`` in ascending id order.

    The relabelling preserves the order of the kept ids, so vertex ``i`` of
    the result is the ``i``-th smallest id of ``s`` and certificates over the
    result translate back by position.
    """
    ids = set(s)
    for v in ids:
        _int_in("vertex", v, 1, g.n)
    kept = sorted(ids)
    index = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for i, v in enumerate(kept):
        row = g.adj[v - 1]
        for u in kept[i + 1 :]:
            if (row >> (u - 1)) & 1:
                adj[i] |= 1 << index[u]
                adj[index[u]] |= 1 << i
    return Graph(len(kept), tuple(adj))


def bipartite_complement(g: Graph, b: Bipartition) -> Graph:
    """Complement across the two parts: cross edge present iff absent in ``g``."""
    validate_bipartition(g, b)
    mask_a, mask_b = b.mask_a, b.mask_b
    adj = list(g.adj)
    for v in mask_vertices(mask_a):
        adj[v - 1] = mask_b & ~g.adj[v - 1]
    for v in mask_vertices(mask_b):
        adj[v - 1] = mask_a & ~g.adj[v - 1]
    return Graph(g.n, tuple(adj))


@lru_cache(maxsize=256)
def _component_masks(adj: tuple[int, ...]) -> tuple[tuple[int, int, bool], ...]:
    """``(component, side, bipartite)`` masks per component, lowest id first.

    A breadth-first search by layers from each component's lowest vertex:
    ``side`` holds the even layers, the lowest vertex included, and the
    component is bipartite iff no edge joins two vertices of one layer.
    Cached, because callers ask again about one graph in turn: the suites
    call ``find_bipartition`` and then ``is_connected``, and the enumerator
    reads a parent's sides for its candidate count and its attachment sets.
    The matcher reads it once per graph, through its one set-up record per
    graph, ``matching._parts``.
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
    return Bipartition._trusted(part_a, ((1 << g.n) - 1) & ~part_a)


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
        mask_a = mask_of(part_a)
        b = Bipartition._trusted(mask_a, ((1 << n) - 1) & ~mask_a)
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

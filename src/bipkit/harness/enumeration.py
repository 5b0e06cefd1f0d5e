"""Exhaustive bipartite-graph enumeration up to isomorphism.

Generation is by vertex augmentation: every bipartite graph on n vertices
arises from one on n-1 vertices by attaching a new vertex inside one colour
side of each touched component, and every connected one arises from a
connected parent with a nonempty attachment (delete a non-cut vertex).
Isomorph rejection is a two-stage filter: an iterated-refinement certificate
buckets candidates, and the exact matcher separates the rare certificate
collisions.  Counts for small n are pinned against an independent all-edge-
subsets brute force that minimises over degree-compatible relabellings.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..graphs import Graph, connected_components, find_bipartition
from ..matching import _Budget, _search

MAX_VERTICES = 12

_LEVEL_CACHE: dict[tuple[int, bool], list[Graph]] = {}


def _refinement_colors(g: Graph) -> tuple[list[int], tuple]:
    """Final colours of iterated neighbour-colour refinement plus a certificate.

    Colour ids are ranks of sorted (colour, neighbour-colour multiset) keys,
    so they are canonical: isomorphic graphs get corresponding colours and an
    identical certificate.
    """
    n = g.n
    adj = g.adj
    colors = [row.bit_count() for row in adj]
    while True:
        keys = []
        for i in range(n):
            row = adj[i]
            nb = []
            while row:
                low = row & -row
                row ^= low
                nb.append(colors[low.bit_length() - 1])
            nb.sort()
            keys.append((colors[i], tuple(nb)))
        ranking = {k: r for r, k in enumerate(sorted(set(keys)))}
        new_colors = [ranking[k] for k in keys]
        if new_colors == colors:
            break
        colors = new_colors
    return colors, (n, g.edge_count, tuple(sorted(keys)))


def refinement_certificate(g: Graph) -> tuple:
    """Isomorphism-invariant summary from iterated neighbour-colour refinement."""
    return _refinement_colors(g)[1]


def _color_guided_isomorphic(g: Graph, gcolors: list[int], h: Graph, hcolors: list[int]) -> bool:
    """Exact isomorphism test: the matcher's search with one domain per colour.

    Both graphs must carry equal refinement certificates, so they have equal
    order, size and colour classes, and an induced embedding is a bijection
    that preserves colours.
    """
    by_color: dict[int, int] = {}
    for x, c in enumerate(hcolors):
        by_color[c] = by_color.get(c, 0) | (1 << x)
    found = False

    def stop(assignment: list[int]) -> bool:
        nonlocal found
        found = True
        return False

    _search(g, h, _Budget(None), stop, [by_color.get(c, 0) for c in gcolors])
    return found


class _IsoRegistry:
    """Certificate buckets with exact-matcher separation inside each bucket."""

    def __init__(self):
        self._buckets: dict[tuple, list[tuple[Graph, list[int]]]] = {}

    def add(self, g: Graph) -> bool:
        """Register g; True when it is a new isomorphism class."""
        colors, cert = _refinement_colors(g)
        bucket = self._buckets.setdefault(cert, [])
        for rep, rep_colors in bucket:
            if g.adj == rep.adj or _color_guided_isomorphic(g, colors, rep, rep_colors):
                return False
        bucket.append((g, colors))
        return True


def _attachment_sets(parent: Graph, connected_only: bool) -> list[int]:
    """Neighbourhood masks for a new vertex that keep the graph bipartite.

    Per component the new vertex may only touch one colour side, so the valid
    masks are the products of per-component side subsets.  Connected parents
    have a single component, and connected children need a nonempty mask.
    """
    comps = connected_components(parent)
    coloring = find_bipartition(parent)
    assert coloring is not None
    per_component: list[list[int]] = []
    for comp in comps:
        side_a = [v for v in comp if v in coloring.part_a]
        side_b = [v for v in comp if v in coloring.part_b]
        choices = {0}
        for side in (side_a, side_b):
            for r in range(1, len(side) + 1):
                for combo in itertools.combinations(side, r):
                    m = 0
                    for v in combo:
                        m |= 1 << (v - 1)
                    choices.add(m)
        per_component.append(sorted(choices))
    masks = [0]
    for choices in per_component:
        masks = [m | c for m in masks for c in choices]
    if connected_only:
        masks = [m for m in masks if m]
    return sorted(set(masks))


def _augment(parent: Graph, neighbourhood: int) -> Graph:
    n = parent.n + 1
    bit = 1 << (n - 1)
    adj = [
        row | bit if (neighbourhood >> i) & 1 else row
        for i, row in enumerate(parent.adj)
    ]
    adj.append(neighbourhood)
    return Graph(n, tuple(adj))


def _build_level(n: int, connected_only: bool) -> list[Graph]:
    if n == 1:
        return [Graph(1, (0,))]
    parents = bipartite_level(n - 1, connected_only)
    registry = _IsoRegistry()
    out: list[Graph] = []
    for parent in parents:
        for mask in _attachment_sets(parent, connected_only):
            child = _augment(parent, mask)
            if registry.add(child):
                out.append(child)
    return out


def bipartite_level(n: int, connected_only: bool) -> list[Graph]:
    """All bipartite graphs on n vertices up to isomorphism (cached per level)."""
    if not (1 <= n <= MAX_VERTICES):
        raise ValueError(f"supported range is 1..{MAX_VERTICES} vertices")
    key = (n, connected_only)
    if key not in _LEVEL_CACHE:
        _LEVEL_CACHE[key] = _build_level(n, connected_only)
    return _LEVEL_CACHE[key]


def enumerate_bipartite(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class; ValueError at once for n out of range."""
    return iter(bipartite_level(n, connected_only))


# ---------------------------------------------------------------------------
# independent brute-force oracle


def _is_bipartite_rows(n: int, adj: list[int]) -> bool:
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            row = adj[v]
            while row:
                low = row & -row
                row ^= low
                u = low.bit_length() - 1
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def _is_connected_rows(n: int, adj: list[int]) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def brute_force_bipartite_counts(n: int) -> tuple[int, int]:
    """(all, connected) bipartite class counts by exhausting every edge subset.

    Graphs are collapsed by the minimum edge code over all relabellings that
    sort degrees descending; this never touches the enumeration pipeline, so
    it calibrates it.
    """
    pairs = list(itertools.combinations(range(n), 2))
    seen_all: set[int] = set()
    seen_conn: set[int] = set()
    pair_index = {p: i for i, p in enumerate(pairs)}
    for code in range(1 << len(pairs)):
        adj = [0] * n
        rest = code
        while rest:
            low = rest & -rest
            rest ^= low
            u, v = pairs[low.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if not _is_bipartite_rows(n, adj):
            continue
        degs = [adj[v].bit_count() for v in range(n)]
        order = sorted(range(n), key=lambda v: -degs[v])
        groups = []
        for _, grp in itertools.groupby(order, key=lambda v: degs[v]):
            groups.append(list(grp))
        best = None
        for arrangement in itertools.product(*(itertools.permutations(grp) for grp in groups)):
            flat = [v for grp in arrangement for v in grp]
            position = [0] * n
            for idx, v in enumerate(flat):
                position[v] = idx
            relabeled = 0
            rest = code
            while rest:
                low = rest & -rest
                rest ^= low
                u, v = pairs[low.bit_length() - 1]
                a, b = position[u], position[v]
                if a > b:
                    a, b = b, a
                relabeled |= 1 << pair_index[(a, b)]
            if best is None or relabeled < best:
                best = relabeled
        seen_all.add(best)
        if _is_connected_rows(n, adj):
            seen_conn.add(best)
    return len(seen_all), len(seen_conn)

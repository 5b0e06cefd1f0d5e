"""Independent reference answers the workloads check bipkit against.

Nothing here imports bipkit: each oracle is a separate, plain
implementation or a published count, so a wrong answer from the library
cannot also be the expected one.
"""

from __future__ import annotations

import math

# OEIS A005142: connected bipartite graphs on n = 1..10 vertices.
CONNECTED_BIPARTITE = (1, 1, 1, 3, 5, 17, 44, 182, 730, 4032)

# (P7,C4)-free connected bipartite graphs on 9 and 10 vertices.
P7_C4_UNIVERSE = {9: 36, 10: 66}

# (P7,Sun1)-free connected bipartite graphs with an induced C4, n = 4..10.
REDUCTION_HITS = {4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3, 10: 4}

# Connected (P7,S123)-free bipartite graphs, n = 1..10.
P7_S123_MEMBERS = (1, 1, 1, 3, 5, 17, 42, 151, 461, 1645)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def avoids_321(p: tuple[int, ...]) -> bool:
    """No decreasing subsequence of length three: exactly the permutations
    whose inversion graph is bipartite.  Works on any distinct values."""
    suffix_min = [math.inf] * (len(p) + 1)
    for i in range(len(p) - 1, -1, -1):
        suffix_min[i] = min(p[i], suffix_min[i + 1])
    prefix_max = -math.inf
    for i, v in enumerate(p):
        if prefix_max > v > suffix_min[i + 1]:
            return False
        prefix_max = max(prefix_max, v)
    return True


def perms_avoiding_321(n: int) -> list[tuple[int, ...]]:
    """All 321-avoiding permutations of 1..n in lexicographic order."""
    out = []

    def grow(prefix: tuple[int, ...], left: list[int]) -> None:
        if not left:
            out.append(prefix)
            return
        for i, v in enumerate(left):
            longer = prefix + (v,)
            if avoids_321(longer):
                grow(longer, left[:i] + left[i + 1 :])

    grow((), list(range(1, n + 1)))
    return out


def rows_connected_bipartite(n: int, adj: tuple[int, ...]) -> bool:
    """Adjacency bitmask rows describe a connected bipartite graph on n vertices."""
    if len(adj) != n or n == 0:
        return False
    colour = [-1] * n
    colour[0] = 0
    stack = [0]
    seen = 1
    while stack:
        v = stack.pop()
        for u in range(n):
            if (adj[v] >> u) & 1:
                if colour[u] == -1:
                    colour[u] = 1 - colour[v]
                    seen += 1
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False
    return seen == n


def count_induced_paths(n: int, adj: tuple[int, ...], k: int) -> int:
    """Induced k-vertex paths (as vertex sequences, both directions) in a graph
    given by bitmask rows: the number of induced embeddings of P_k."""
    total = 0

    def extend(seq: list[int]) -> None:
        nonlocal total
        if len(seq) == k:
            total += 1
            return
        last = seq[-1]
        for u in range(n):
            if not (adj[last] >> u) & 1 or u in seq:
                continue
            # induced: u may touch no earlier vertex of the path but the last
            if any((adj[u] >> w) & 1 for w in seq[:-1]):
                continue
            seq.append(u)
            extend(seq)
            seq.pop()

    for s in range(n):
        extend([s])
    return total


def has_path(n: int, adj: tuple[int, ...], k: int) -> bool:
    """Some simple path (not necessarily induced) has k vertices."""

    def extend(v: int, visited: int, length: int) -> bool:
        if length == k:
            return True
        for u in range(n):
            if (adj[v] >> u) & 1 and not (visited >> u) & 1:
                if extend(u, visited | (1 << u), length + 1):
                    return True
        return False

    return any(extend(s, 1 << s, 1) for s in range(n))


def contains_pattern(host: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """Pattern containment, searching pattern entries in increasing value
    order (the library searches in position order)."""
    k, n = len(pattern), len(host)
    if k > n:
        return False
    where = [0] * n  # host value -> position
    for i, v in enumerate(host):
        where[v - 1] = i
    pos_of_value = sorted(range(k), key=lambda i: pattern[i])  # pattern positions by value
    placed = [-1] * k  # pattern position -> host position

    def place(r: int, min_value: int) -> bool:
        if r == k:
            return True
        q = pos_of_value[r]
        lo = max((placed[i] for i in range(q) if placed[i] >= 0), default=-1)
        hi = min((placed[i] for i in range(q + 1, k) if placed[i] >= 0), default=n)
        for value in range(min_value, n - (k - r) + 2):
            pos = where[value - 1]
            if lo < pos < hi:
                placed[q] = pos
                if place(r + 1, value + 1):
                    return True
                placed[q] = -1
        return False

    return place(0, 1)

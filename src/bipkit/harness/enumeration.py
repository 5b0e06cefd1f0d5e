"""Exhaustive enumeration of connected bipartite graphs up to isomorphism.

Generation is by vertex augmentation.  Level n grows from the representatives
of level n-1: each parent P gets one new vertex whose neighbourhood is a
nonempty subset of one colour side of P (``_attachment_sets``).

Canonical deletion (McKay 1998, "Isomorph-free exhaustive generation") keeps
most of those children away from the isomorphism test.  A vertex of a child
is *deletable* when it is not a cut vertex, so that removing it leaves a
graph of the parent level.  A child is kept only when its new vertex has the
top refinement colour among its deletable vertices.  No class is lost.
Refinement colours are canonical, so isomorphisms preserve them.  Take any
member G of level n and a deletable vertex w of G with the top colour.  G - w
is connected and isomorphic to a representative P of level n-1.  G is
bipartite, so w's neighbours lie on one side of G - w, and their image in P
is one of P's attachment sets.  The child built from P and that set is
isomorphic to G with the new vertex in w's place, so it passes the rule.

Two steps keep the rule cheap (McKay's "one attachment set per orbit").
First, orbit pruning: a parent P gets one child per orbit of Aut(P) on its
attachment sets.  An automorphism of P that maps set m to m' extends, with
the new vertex fixed, to an isomorphism between the two children, so only
the least set of each orbit is built (``_orbit_representatives``, with the
generators of ``matching._automorphism_generators``).  The least set comes
first in ascending order, and the later sets of its orbit could only repeat
its class, so the levels keep the order they have without the step.

Second, refinement stops once the rule is decided.  Each round of
``matching._refinement_rounds`` keeps the strict colour order of the round
before, so the child is rejected at the first round where a deletable vertex
outranks the new vertex, and accepted at the first round where the new
vertex is strictly above every other deletable vertex.  Such a lone-top child
is a new class and skips the registry.  Take any other child G' of the level
that is isomorphic to it and passes the rule.  The isomorphism keeps
colours and deletability, so the new vertex of G' is also a lone top and is
the image of the new vertex.  Removing the two new vertices leaves isomorphic
representatives of level n-1, which are then one parent P, and the
isomorphism restricts to an automorphism of P that maps one attachment set
to the other.  Orbit pruning keeps one set per orbit, so G' is the same
child.  The skip is sound only together with orbit pruning.  A lone-top
child is never isomorphic to a tied one either, since an isomorphism keeps
the number of deletable vertices of the top colour.

Children still tied with another deletable vertex at the stable colouring
go to an exact registry: a refinement certificate buckets them, and the
matcher separates isomorphic ones inside a bucket.  At n = 11 that is 39
isomorphism searches for 25,598 classes.  Counts for small n are pinned
against an independent brute force (``brute_force_bipartite_counts``) that
scans every edge set lying inside the cross pairs of some 2-colouring, which
are exactly the bipartite edge sets.  A bipartite graph is a
multiset of connected ones, so the counts of all bipartite graphs are the
Euler transform of the connected counts (``euler_transform``; Harary &
Palmer 1973, "Graphical Enumeration").
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator

from ..graphs import Graph, _component_masks
from ..matching import (
    _automorphism_generators,
    _Budget,
    _refinement_rounds,
    _search,
)

MAX_VERTICES = 12

_LEVEL_CACHE: dict[int, list[Graph]] = {}
# per built level: candidates, passed (the deletion rule), exact (isomorphism
# calls), classes and seconds; read through level_stats()
_LEVEL_STATS: dict[int, dict[str, float]] = {}


class _IsoRegistry:
    """Certificate buckets with exact-matcher separation inside each bucket.

    Members of a bucket carry equal refinement certificates, so they have
    equal order, size and colour classes.  The exact test is the matcher's
    search with one domain per colour class: an induced embedding that
    preserves colours is then a bijection, an isomorphism.
    """

    def __init__(self):
        self._buckets: dict[tuple, list[tuple[Graph, list[int]]]] = {}
        self.exact_calls = 0

    def add(self, g: Graph, colors: list[int], cert: tuple) -> bool:
        """Register g, given its refinement colours and certificate; True when
        it is a new isomorphism class."""
        bucket = self._buckets.setdefault(cert, [])
        for rep, rep_colors in bucket:
            if g.adj == rep.adj:
                return False
            self.exact_calls += 1
            classes = [0] * len(colors)
            for x, c in enumerate(rep_colors):
                classes[c] |= 1 << x
            domains = [classes[c] for c in colors]
            if next(_search(g.adj, rep.adj, _Budget(None), domains), None) is not None:
                return False
        bucket.append((g, colors))
        return True


def _attachment_sets(parent: Graph) -> list[int]:
    """Neighbourhood masks for a new vertex that keep a connected parent
    connected and bipartite: the nonempty subsets of one colour side.  The
    sides are disjoint, so the masks are distinct."""
    ((comp, side, _),) = _component_masks(parent.adj)
    masks = []
    for half in (side, comp & ~side):
        sub = half
        while sub:
            masks.append(sub)
            sub = (sub - 1) & half
    return sorted(masks)


def _orbit_representatives(masks: list[int], gens: list[tuple[int, ...]]) -> Iterator[int]:
    """The masks that are least in their orbit under the group generated by
    ``gens`` (vertex images, 0-based).

    ``masks`` must be ascending and closed under the group, so the first
    mask met of each orbit is its least member.
    """
    if not gens:
        yield from masks
        return
    images = [[1 << y for y in gen] for gen in gens]
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        yield mask
        seen.add(mask)
        frontier = [mask]
        while frontier:
            m = frontier.pop()
            for bits in images:
                img = 0
                rest = m
                while rest:
                    low = rest & -rest
                    rest ^= low
                    img |= bits[low.bit_length() - 1]
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)


def _cut_pieces(parent: Graph) -> tuple[int, list[tuple[int, list[int]]]]:
    """The non-cut vertices of a connected parent as a mask, and for every
    other vertex v (0-based) the component masks of ``parent - v``.

    In a child, a non-cut vertex v of the parent stays non-cut unless the new
    vertex's only neighbour is v.  Any other vertex v becomes non-cut exactly
    when the new vertex has a neighbour other than v in every component of
    ``parent - v`` (vacuously so when v is the only vertex).
    """
    n = parent.n
    adj = parent.adj
    full = (1 << n) - 1
    noncut = 0
    cut: list[tuple[int, list[int]]] = []
    for v in range(n):
        rest = full & ~(1 << v)
        pieces = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    nxt |= adj[low.bit_length() - 1]
                frontier = nxt & rest & ~comp
                comp |= frontier
            pieces.append(comp)
            rest &= ~comp
        if len(pieces) == 1:
            noncut |= 1 << v
        else:
            cut.append((v, pieces))
    return noncut, cut


def _build_level(n: int) -> list[Graph]:
    """Level n from level n-1 under the canonical-deletion rule (see the
    module docstring), with build statistics recorded in ``_LEVEL_STATS``."""
    if n == 1:
        _LEVEL_STATS[n] = {"candidates": 1, "passed": 1, "exact": 0, "classes": 1, "seconds": 0.0}
        return [Graph(1, (0,))]
    parents = bipartite_level(n - 1)
    start = time.perf_counter()
    registry = _IsoRegistry()
    out: list[Graph] = []
    new = n - 1  # 0-based index of the new vertex
    new_bit = 1 << new
    candidates = passed = 0
    for parent in parents:
        # at_least[d]: the parent vertices of degree d or more
        at_least = [0] * (n + 1)
        for v, row in enumerate(parent.adj):
            for k in range(row.bit_count() + 1):
                at_least[k] |= 1 << v
        noncut, cut = _cut_pieces(parent)
        kept: dict[int, int] = {}  # mask -> deletable, ascending, past the degree test
        for mask in _attachment_sets(parent):
            candidates += 1
            size = mask.bit_count()
            # The final colour order refines the degree order, so a deletable
            # vertex whose degree in the child exceeds the new vertex's has a
            # higher colour, and the rule would reject the child anyway.  The
            # non-cut vertices decide most candidates, so they are tested
            # before any cut vertex's pieces are looked at.
            outrank = at_least[size + 1] | (at_least[size] & mask)
            deletable = noncut & ~mask if size == 1 else noncut
            if outrank & deletable:
                continue
            for v, pieces in cut:
                rest = mask & ~(1 << v)
                if all(rest & piece for piece in pieces):
                    deletable |= 1 << v
            if not outrank & deletable:
                kept[mask] = deletable
        # the degree test is invariant under Aut(parent), so the least mask
        # of each orbit among the kept ones is least among all masks; a lone
        # kept mask is its own orbit
        gens = _automorphism_generators(parent.adj, _Budget(None)) if len(kept) > 1 else []
        for mask in _orbit_representatives(list(kept), gens):
            dels = [v for v in range(new) if (kept[mask] >> v) & 1]
            adj = tuple(row | new_bit if (mask >> i) & 1 else row for i, row in enumerate(parent.adj)) + (mask,)
            for colors, cert in _refinement_rounds(adj):
                top = colors[new]
                best = max([colors[v] for v in dels], default=-1)
                if best > top:
                    break  # a deletable vertex outranks the new one in every later round
                if best < top:  # the new vertex is the lone top: a new class
                    passed += 1
                    out.append(Graph._trusted(n, adj))
                    break
                if cert is not None:  # tied at the stable colouring
                    passed += 1
                    child = Graph._trusted(n, adj)
                    if registry.add(child, colors, cert):
                        out.append(child)
    _LEVEL_STATS[n] = {
        "candidates": candidates,
        "passed": passed,
        "exact": registry.exact_calls,
        "classes": len(out),
        "seconds": time.perf_counter() - start,
    }
    return out


def parent_rows(g: Graph) -> tuple[int, ...]:
    """``g`` minus its last vertex.  ``_build_level`` appends each child's new
    vertex last, so for a connected representative these are exactly the rows
    of the representative on n-1 vertices that it was grown from."""
    drop = ~(1 << (g.n - 1))
    return tuple(row & drop for row in g.adj[:-1])


def bipartite_level(n: int, connected: bool = True) -> list[Graph]:
    """The connected bipartite graphs on n vertices up to isomorphism, built
    once per process; ``connected`` accepts True only (see ``euler_transform``)."""
    if connected is not True:
        raise ValueError("only connected levels are enumerated")
    if not (1 <= n <= MAX_VERTICES):
        raise ValueError(f"supported range is 1..{MAX_VERTICES} vertices")
    if n not in _LEVEL_CACHE:
        _LEVEL_CACHE[n] = _build_level(n)
    return _LEVEL_CACHE[n]


def level_stats() -> dict[int, dict[str, float]]:
    """Build statistics of every level built in this process, keyed by n:
    candidates (parent and attachment-set pairs), passed (children, one per
    attachment-set orbit, that met the deletion rule), exact (isomorphism
    searches run by the registry), classes and seconds (excluding level n-1)."""
    return {n: dict(stats) for n, stats in _LEVEL_STATS.items()}


def euler_transform(connected_counts: list[int]) -> list[int]:
    """Class counts of all graphs on 1..k vertices from the connected counts
    on 1..k vertices, since a graph is a multiset of connected graphs."""
    a = [0, *connected_counts]
    # c[m]: the sum of d * a[d] over the divisors d of m
    c = [sum(d * a[d] for d in range(1, m + 1) if m % d == 0) for m in range(len(a))]
    total = [1]
    for m in range(1, len(a)):
        total.append(sum(c[j] * total[m - j] for j in range(1, m + 1)) // m)
    return total[1:]


# ---------------------------------------------------------------------------
# independent brute-force oracle


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
    """(all, connected) bipartite class counts by exhausting the bipartite
    edge subsets.

    An edge set is bipartite exactly when it lies inside the cross pairs of
    some 2-colouring, so the bipartite edge codes are the submasks of the
    cross-pair masks of the 2^(n-1) colourings with vertex 0 on side 0.  They
    are scanned in order.  The first code met of each class counts it, and
    all n! relabelled codes of that graph leave the code set, so no later
    code of the class counts again.  This never touches the enumeration
    pipeline or the matcher, so it calibrates them.
    """
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {pr: i for i, pr in enumerate(pairs)}
    # relabel[k][i]: the bit of pair i under the k-th vertex permutation
    relabel = [
        [1 << pair_index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        for perm in itertools.permutations(range(n))
    ]
    codes = {0}
    for side in range(0, 1 << n, 2):  # the vertices coloured 1; vertex 0 never is
        cross = 0
        for i, (u, v) in enumerate(pairs):
            if ((side >> u) ^ (side >> v)) & 1:
                cross |= 1 << i
        sub = cross
        while sub:
            codes.add(sub)
            sub = (sub - 1) & cross
    count_all = count_conn = 0
    for code in sorted(codes):
        if code not in codes:
            continue
        adj = [0] * n
        edges = []
        rest = code
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            edges.append(i)
            u, v = pairs[i]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        count_all += 1
        if _is_connected_rows(n, adj):
            count_conn += 1
        for bits in relabel:
            relabeled = 0
            for i in edges:
                relabeled |= bits[i]
            codes.discard(relabeled)
    return count_all, count_conn

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
generators of ``matching._automorphism_generators``).  Those come from an
orbit-pruned stabiliser chain, which searches the parent into itself only
for images its generators do not yet reach, and the steps of those searches
are recorded per level as ``automorphism_steps``.  The chain's domains are
the classes of P's round-1 keys, (degree, sorted neighbour degrees), which
``_round_one`` builds from the degree and neighbour tables it decides the
children with: automorphisms keep them, and on parents of at most 11 vertices the further
rounds to the stable colouring cost more than the searches they save.  Any
generating set of Aut(P) gives the same orbits.  The least set comes first
in ascending order, and the later sets of its orbit could only repeat its
class, so the levels keep the order they have without the step.

Second, every refinement round keeps the strict colour order of the round
before (``matching._refinement_colors``), so the first round that separates
the new vertex from the top deletable vertex decides the rule as the stable
colouring does: a deletable vertex above the new vertex rejects the child,
and the new vertex alone on top makes it a lone-top child, a new class that
skips the registry.  Take any other child G' of the level that is
isomorphic to it and passes the rule.  The isomorphism keeps
colours and deletability, so the new vertex of G' is also a lone top and is
the image of the new vertex.  Removing the two new vertices leaves isomorphic
representatives of level n-1, which are then one parent P, and the
isomorphism restricts to an automorphism of P that maps one attachment set
to the other.  Orbit pruning keeps one set per orbit, so G' is the same
child.  The skip is sound only together with orbit pruning.  A lone-top
child is never isomorphic to a tied one either, since an isomorphism keeps
the number of deletable vertices of the top colour.

Third, rounds 0 and 1 are read off the parent (``_round_one``), before orbit
pruning and before any child rows are built.  In the child of P and an
attachment set m, a vertex w of P has degree deg_P(w) + [w in m] and the new
vertex has degree |m|.  A non-cut vertex of P stays deletable unless it is
the lone member of m, and its degree does not fall, so every set smaller
than the largest non-cut degree of P fails the degree test except the
singletons; only the singletons and the sets of at least that size are
generated.  Round-1 colours are ranks of (degree, sorted neighbour degrees)
keys, so they order the vertices as the keys do.  A deletable vertex of
lower degree has a lower key, so only the tied ones, the deletable vertices
of the new vertex's degree, are compared.  The new vertex's key lists the
child degrees of m; a tied vertex's lists those of its neighbours in P,
plus |m| when it lies in m.  A larger key rejects the child, all smaller
keys make the new vertex the lone top (a new class, as above), and an equal
key leaves the child tied (but see the twins below).  A tied child is
refined once, to its stable colouring, which decides the rule as above or
sends the child to the registry; these children are counted per level as
``refined``.  The verdict depends on P and m only up to isomorphism, so
Aut(P) keeps it: rejection drops whole orbits, the least kept set of each
kept orbit is still least in its orbit, and orbit pruning on the kept sets
picks the same children.  A parent with at most one kept set needs no
automorphism search.

Fourth, ties with twins of the new vertex v are settled from the parent
too.  A vertex w of P with N_P(w) = m has v's neighbours in the child, so
it is deletable, has v's degree and key, and swapping v and w is an
automorphism of the child: twins keep equal colours in every round.  When
every equal key at round 1 comes from such a twin, every other deletable
vertex is already below v, so the top deletable class of the stable
colouring is v and its twins, one orbit of Aut(child) under those swaps.
Any child G' isomorphic to this one that passes the rule has its new vertex
in the image of that class, so an isomorphism can be chosen that maps new
vertex to new vertex, and as for a lone top G' is the same child.  So such
a child is a new class, kept without refinement or the registry.  The
generation is trimmed to what the degree test can pass.  When the largest
non-cut degree f of P is above 1, a set of size f holding a non-cut vertex
of degree f gives that vertex the child degree f + 1, and a singleton other
than the lone non-cut vertex of degree 2 or more (when there is only one)
leaves such a vertex deletable, so neither kind is generated.  Every generated set then passes the test on the non-cut
vertices, so only cut vertices of child degree at least |m| are tested for
deletability, and only the deletable vertices of v's degree are passed on:
one of lower degree is below v in every round.

Children still tied with another deletable vertex at the stable colouring
go to an exact registry: a refinement certificate buckets them, and the
matcher separates isomorphic ones inside a bucket.  At n = 11 that is 33
isomorphism searches for 25,598 classes.

``_build_level`` grows any ordered list of parents.  On a hereditary class,
such as the (P7,C4)-, (P7,Sun1)- or (P7,S123)-free graphs, the children of
the class's level n-1, filtered, are the full level n filtered, in order.
A kept child's new vertex is not a cut vertex, so its parent is a member
when the child is.  A parent's children depend on it alone except through
the registry, where a member child never meets a non-member's child: a
stored graph isomorphic to a member is a member, so its parent is one too.

Counts for small n are pinned against an independent brute force
(``brute_force_bipartite_counts``) that scans every edge set lying inside
the cross pairs of some 2-colouring, which are exactly the bipartite edge
sets.  A bipartite graph is a multiset of connected ones, so the counts of
all bipartite graphs are the Euler transform of the connected counts
(``euler_transform``; Harary & Palmer 1973, "Graphical Enumeration").
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator

from ..graphs import Graph, _component_masks, _int_in
from ..matching import (
    _automorphism_generators,
    _Budget,
    _refinement_colors,
    _search,
)

MAX_VERTICES = 12  # the bound of bipartite_level; a class level may go past it

# n -> _build_level of level n-1: bipartite_level, _child_starts, level_stats
_LEVELS: dict[int, tuple[list[Graph], list[int], dict[str, float]]] = {}


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
            self.exact_calls += 1
            classes = [0] * len(colors)
            for x, c in enumerate(rep_colors):
                classes[c] |= 1 << x
            domains = [classes[c] for c in colors]
            if next(_search(g.adj, rep.adj, _Budget(None), domains), None) is not None:
                return False
        bucket.append((g, colors))
        return True


def _attachment_sets(parent: Graph, floor: int) -> list[int]:
    """Neighbourhood masks for a new vertex that keep a connected parent
    connected and bipartite: the subsets of one colour side with at least
    ``floor`` members (``floor`` >= 1), ascending.  The sides are disjoint,
    so the masks are distinct."""
    ((comp, side, _),) = _component_masks(parent.adj)
    masks = []
    for half in (side, comp & ~side):
        sub = half
        while sub:
            if sub.bit_count() >= floor:
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


def _round_one(parent: Graph) -> tuple[dict[int, int], list[tuple[int, tuple[int, ...]]]]:
    """``{mask: tied}`` for each attachment set of ``parent`` whose child
    passes the degree test and refinement round 1, ascending by mask, decided
    without building the child (see the module docstring), and the parent's
    own round-1 keys, ``(degree, sorted neighbour degrees)`` per vertex.

    ``tied`` is 0 when round 1 makes the new vertex the lone top of the
    child's deletable vertices or ties it only with its twins: the child is a
    new class.  Otherwise it holds the child's deletable parent vertices of
    the new vertex's degree, one of which round 1 ties with the new vertex;
    the other deletable vertices rank below the new vertex in every round.
    """
    n = parent.n
    adj = parent.adj
    deg = [row.bit_count() for row in adj]
    nbrs = []
    for row in adj:
        nb = []
        while row:
            low = row & -row
            row ^= low
            nb.append(low.bit_length() - 1)
        nbrs.append(nb)
    keys = [(d, tuple(sorted([deg[u] for u in nb]))) for d, nb in zip(deg, nbrs)]
    # at_least[d]: the parent vertices of degree d or more
    at_least = [0] * (n + 2)
    for v, d in enumerate(deg):
        at_least[d] |= 1 << v
    for d in range(n, -1, -1):
        at_least[d] |= at_least[d + 1]
    noncut, cut = _cut_pieces(parent)
    cut.sort(key=lambda item: -deg[item[0]])
    floor = max([deg[v] for v in range(n) if (noncut >> v) & 1], default=1)
    masks = _attachment_sets(parent, floor)
    if floor > 1:
        # Of the sets of size floor and the singletons, only those that pass
        # the degree test on the non-cut vertices are generated: the sets of
        # size floor that avoid the non-cut vertices of degree floor, and the
        # singleton of the one non-cut vertex of degree 2 or more, when
        # there is only one.
        heavy = noncut & at_least[floor]
        masks = [m for m in masks if not m & heavy or m.bit_count() > floor]
        lone = noncut & at_least[2]
        if lone.bit_count() == 1:
            masks = sorted(masks + [lone])
    kept: dict[int, int] = {}
    for mask in masks:
        size = mask.bit_count()
        # The final colour order refines the degree order, so a deletable
        # vertex whose degree in the child exceeds the new vertex's has a
        # higher colour, and the rule would reject the child anyway; one of
        # lower degree has a lower colour and is left out.  The generated
        # sets pass this test on the non-cut vertices, so only cut vertices
        # can fail it; they come in falling degree, highest first.
        outrank = at_least[size + 1] | (at_least[size] & mask)
        reach = at_least[size] | (at_least[size - 1] & mask)  # child degree >= size
        deletable = (noncut & ~mask if size == 1 else noncut) & reach
        for v, pieces in cut:  # the pieces of parent - v exclude v
            if deg[v] < size - 1:
                break
            if (reach >> v) & 1 and all(map(mask.__and__, pieces)):
                deletable |= 1 << v
        if outrank & deletable:
            continue
        # round 1: the deletable vertices, all of the new vertex's degree,
        # compare their sorted neighbour degrees in the child with the new
        # vertex's; a twin of the new vertex (same neighbours) ties it in
        # every round and does not stop it from being a new class
        tied = 0
        rest = deletable
        if rest:
            top = []
            bits = mask
            while bits:
                low = bits & -bits
                bits ^= low
                top.append(deg[low.bit_length() - 1] + 1)
            top.sort()
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            if adj[w] == mask:
                continue
            key = [deg[u] + ((mask >> u) & 1) for u in nbrs[w]]
            if mask & low:
                key.append(size)
            key.sort()
            if key > top:
                break  # rejected
            if key == top:
                tied = deletable
        else:
            kept[mask] = tied
    return kept, keys


def _build_level(parents: list[Graph]) -> tuple[list[Graph], list[int], dict[str, float]]:
    """The children of ``parents``, connected graphs on n-1 vertices in order,
    under the canonical-deletion rule (see the module docstring), the start of
    each parent's children and then their count, and the statistics of
    ``level_stats``; no module state is read or written."""
    start = time.perf_counter()
    registry = _IsoRegistry()
    automorphisms = _Budget(None)
    out: list[Graph] = []
    # one int object per row value of the level, parents' rows included:
    # a row the new vertex joins, or the new vertex's own, most often
    # repeats a value that another child holds already
    row_of: dict[int, int] = {}
    candidates = passed = refined = 0
    starts = []
    for parent in parents:
        starts.append(len(out))
        new = parent.n  # 0-based index of the new vertex
        new_bit = 1 << new
        base = [row_of.setdefault(row, row) for row in parent.adj]
        ((_, side, _),) = _component_masks(parent.adj)
        a = side.bit_count()
        candidates += (1 << a) + (1 << (new - a)) - 2
        kept, keys = _round_one(parent)  # mask -> tied, ascending
        # round 1 is invariant under Aut(parent), so the least mask of each
        # orbit among the kept ones is least among all masks; a lone kept
        # mask is its own orbit
        gens = _automorphism_generators(parent.adj, automorphisms, keys)[0] if len(kept) > 1 else []
        for mask in _orbit_representatives(list(kept), gens):
            rows = [*base, row_of.setdefault(mask, mask)]
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                row = rows[v] | new_bit
                rows[v] = row_of.setdefault(row, row)
            adj = tuple(rows)
            tied = kept[mask]
            if tied:  # decided at the stable colouring
                refined += 1
                colors, cert = _refinement_colors(adj)
                best = max([colors[v] for v in range(new) if (tied >> v) & 1])
                if best > colors[new]:
                    continue  # a deletable vertex outranks the new one
                if best == colors[new]:
                    passed += 1
                    child = Graph._trusted(new + 1, adj)
                    if registry.add(child, colors, cert):
                        out.append(child)
                    continue
            passed += 1  # the new vertex is the lone top, or tied with its twins only: a new class
            out.append(Graph._trusted(new + 1, adj))
    return out, starts + [len(out)], {
        "candidates": candidates,
        "passed": passed,
        "refined": refined,
        "exact": registry.exact_calls,
        "automorphism_steps": automorphisms.spent,
        "classes": len(out),
        "seconds": time.perf_counter() - start,
    }


def bipartite_level(n: int, connected: bool = True) -> list[Graph]:
    """The connected bipartite graphs on n vertices up to isomorphism, built
    once per process; ``connected`` accepts True only (see ``euler_transform``)."""
    if connected is not True:
        raise ValueError("only connected levels are enumerated")
    _int_in("n", n, 1, MAX_VERTICES)
    if n not in _LEVELS:
        stats = dict(candidates=1, passed=1, refined=0, exact=0, automorphism_steps=0, classes=1, seconds=0.0)
        _LEVELS[n] = _build_level(bipartite_level(n - 1)) if n > 1 else ([Graph(1, (0,))], [0, 1], stats)
    return _LEVELS[n][0]


def _child_starts(n: int) -> list[int]:
    """Where the children of each graph of level n-1 start in level n, in
    level n-1's order, followed by level n's length: parent i's children,
    grown from its rows by one new last vertex, are
    ``bipartite_level(n)[starts[i]:starts[i + 1]]``.  Each parent's children
    are built together, so they are one contiguous run; level 0 is one empty
    graph, the parent of level 1's one graph."""
    bipartite_level(n)
    return _LEVELS[n][1]


def level_stats() -> dict[int, dict[str, float]]:
    """Build statistics of every level ``bipartite_level`` built in this
    process, keyed by n: candidates (parent and attachment-set pairs,
    counting the sets that the degree test rules out before they are
    generated), passed (children, one per attachment-set orbit, that met the
    deletion rule), refined (children that round 1 left tied with a deletable
    vertex other than a twin of the new vertex, each refined once to its
    stable colouring), exact (isomorphism searches run by the registry),
    automorphism_steps (the search steps of ``_automorphism_generators`` on
    the parents with two or more kept attachment sets, started from each
    parent's round-1 keys), classes and seconds (excluding level n-1)."""
    return {n: dict(stats) for n, (_, _, stats) in _LEVELS.items()}


def euler_transform(connected_counts: list[int]) -> list[int]:
    """Class counts of all graphs on 1..k vertices from the connected counts
    on 1..k vertices, since a graph is a multiset of connected graphs;
    ValueError on a count that is not an int of at least 0."""
    for count in connected_counts:
        _int_in("connected count", count, 0)
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
    _int_in("n", n)
    _int_in("n", n, 1, 8)  # the relabel table holds n! * n(n-1)/2 masks, 320 MB at n = 8
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

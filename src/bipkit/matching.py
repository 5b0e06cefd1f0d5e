"""Exact induced-subgraph search, isomorphism, and path-subgraph detection.

One backtracking core, ``_search``, answers every embedding question in the
package.  It walks candidate-domain bitmasks on an explicit stack: assigning
a pattern vertex intersects every remaining domain with the host
neighbourhood (for pattern edges) or non-neighbourhood (for pattern
non-edges) of the image, so the induced condition and injectivity are
enforced incrementally.  Domains start from a degree filter (a host vertex
is a candidate for every pattern vertex of no larger degree), or from masks
the caller supplies: the enumerator's isomorphism test passes its refinement
colour classes, and ``perms.contains_pattern`` passes position windows.
Optional order constraints (``larger``) keep some images above others: they
narrow the domains with the component narrowing, before each step's one pass
that filters the domains and picks the next vertex, most-constrained first
with ascending-id tie-breaks.  Candidates are tried in ascending host id, so
results are deterministic.  ``_search`` is a generator: it yields each
embedding as a tuple of host ids, and it counts every candidate
placement as one step of a ``_Budget``, bounded or not.  Every caller takes
``next(_search(...), None)`` for the first embedding or None, except
``count_induced_embeddings``, which counts an ``itertools.islice`` of it.

On the degree-filter path (``find_induced_embedding``,
``count_induced_embeddings``, ``is_free``) one more filter runs, from one
bitmask breadth-first search each over host and pattern.  The whole set-up
of that path is one record per graph rows, for host and pattern alike
(``_parts``: degree total, degrees, degree-threshold masks, bipartiteness,
each vertex's component and side), in one bounded cache read once for the
host and once for the pattern.  The lemma checks search the same few
patterns in thousands of tiny hosts, where rebuilding the set-up on every
call was a large share of each search, and family-search embeds thousands of
patterns into one grid.  The search reads only the cached values, so a cache
hit spends the same steps as a miss.  A connected pattern component maps
into one host component, and a pattern path of length d maps to a host walk
of length d, so in a bipartite host component pattern distance parity is
kept.  Hence a pattern with an odd cycle has no embedding in a bipartite
host (answered before any step), and when the first vertex u of a pattern
component is placed at x, every other vertex of that component is confined
to x's host component and, if that component is bipartite, to x's side or
the other one as its pattern side agrees with u's.  On the 5,016 connected
bipartite graphs of up to 10 vertices this takes the first-embedding steps
of P7 from 303,076 to 106,534 and of S123 from 193,638 to 80,411; C4 and
Sun1 hardly move (30,344 to 30,257, 31,729 to 31,552).  It does nothing for
the T-pair non-embeddings (T8 into T14 takes 359,586 steps either way).
Callers that pass ``domains`` (the enumerator, ``contains_pattern``,
``_automorphism_generators``) keep their search tree step for step.
Stronger per-host set-up (arc consistency, neighbour-degree dominance, a
distance ball around each root candidate) was measured to cost more than it
pruned.

The order constraints serve two callers.  ``is_free`` builds them from the
orbits of an orbit-pruned stabiliser chain of each forbidden pattern's
automorphisms (``_automorphism_generators``, which the enumerator also uses
to prune attachment sets), so it visits one embedding per orbit rather than
every automorphic copy: 2P3 has |Aut| = 8, and the T-graphs'
{2P3, Sun4}-freeness was mostly spent on those copies.  The chain searches
the pattern into itself only for an image that the automorphisms found so
far do not reach and that no failed search has ruled out: building levels
1..10 of the enumerator, whose parents start from their round-1 colours,
takes 1,304 such searches, not the 2,878 of trying every vertex of the base
point's colour class.  The chain's build stops at the caller's budget, so
the constraints are cached with its steps per pattern and limit
(``_pattern_symmetry``), each search charged those steps.
Pattern containment of permutations chains every pattern position below the
next, which makes an induced embedding of the positional inversion graphs an
occurrence.
``find_induced_embedding`` and ``count_induced_embeddings`` search without
them: on the paper's T pairs the pattern automorphism group has order 2, and
on thousands of small permutation-graph embeddings building the constraints
cost more than the search they saved.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .graphs import Graph, _component_masks, _int_in


class StepBudgetExceeded(RuntimeError):
    """A search ran out of its step budget: the outcome is undecided, not 'none'."""


@dataclass(frozen=True)
class Embedding:
    """Injective map from pattern vertex ids to host vertex ids.

    ``mapping[i - 1]`` is the host image of pattern vertex ``i``.
    """

    mapping: tuple[int, ...]


def verify_embedding(emb: Embedding, pattern: Graph, host: Graph) -> bool:
    """Independent checker: injectivity plus the induced condition on all
    pairs.  An image that is not an int (a bool included) is no host vertex."""
    m = emb.mapping
    if len(m) != pattern.n:
        return False
    if any(x.__class__ is not int or not 1 <= x <= host.n for x in m):
        return False
    if len(set(m)) != len(m):
        return False
    # the map is checked, so each pair reads the rows' bits directly
    for u in range(pattern.n):
        row, image = pattern.adj[u], host.adj[m[u] - 1]
        for v in range(u + 1, pattern.n):
            if (row >> v) & 1 != (image >> (m[v] - 1)) & 1:
                return False
    return True


class FreenessResult(NamedTuple):
    free: bool
    pattern_index: int | None
    witness: Embedding | None


class _Budget:
    """A step counter: ``spent`` counts every step of the searches run on it,
    bounded or not, and the step that takes it past ``limit`` (``sys.maxsize``
    for None) raises StepBudgetExceeded.  A budget that is not None or an int
    of at least 0 raises ValueError (``graphs._int_in``), before any search
    looks at its graphs.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        if limit is None:
            limit = sys.maxsize
        else:
            _int_in("budget", limit, 0)
        self.limit = limit
        self.spent = 0


def _refinement_colors(adj: tuple[int, ...]) -> tuple[list[int], tuple]:
    """Stable colours of iterated neighbour-colour refinement, plus a
    certificate.

    Round 0 is the degrees.  Each later round's colour ids are ranks of sorted
    (colour, neighbour-colour multiset) keys, so they are canonical:
    isomorphic graphs get corresponding colours and an identical certificate.
    Each key starts with the previous colour, so every round keeps the strict
    order of the round before it, and the stable colour order refines the
    order of every round, the degree order first.
    """
    n = len(adj)
    colors = [row.bit_count() for row in adj]
    edges = sum(colors) // 2
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
            return colors, (n, edges, tuple(sorted(keys)))
        colors = new_colors


@lru_cache(maxsize=256)
def _parts(adj: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...], bool, tuple[int, ...], tuple[int, ...]]:
    """The degree-filter set-up of a graph, host or pattern: its degree total
    and degrees; ``at_least[d]``, the vertices of degree at least d, for d up
    to the top degree; whether every component is bipartite; and per vertex
    u, u's component (``comp[u]``) and the vertices of that component on u's
    side (``side[u]``, 0 when the component has an odd cycle)."""
    degrees = tuple(row.bit_count() for row in adj)
    at_least = [0] * (max(degrees, default=0) + 1)
    for x, d in enumerate(degrees):
        at_least[d] |= 1 << x
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    comp = [0] * len(adj)
    side = [0] * len(adj)
    all_bipartite = True
    for c, s, bipartite in _component_masks(adj):
        all_bipartite = all_bipartite and bipartite
        t = c & ~s
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            comp[u] = c
            if bipartite:
                side[u] = s if s & low else t
    return sum(degrees), degrees, tuple(at_least), all_bipartite, tuple(comp), tuple(side)


def _search(
    padj: tuple[int, ...],
    hadj: tuple[int, ...],
    budget: _Budget,
    domains: list[int] | None = None,
    larger: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield each induced embedding in search order, as a tuple of 1-based
    host ids (item u is the image of pattern vertex ``u + 1``).

    Each candidate placement is one step of ``budget``, counted in a local
    int and written back to ``budget.spent`` before a yield, return or raise.

    ``padj`` and ``hadj`` are the adjacency rows of pattern and host (bit
    ``x`` for vertex ``x + 1``), as in ``Graph.adj``.  ``domains[u]`` is the
    starting mask of host vertices that pattern vertex ``u + 1`` may map to.
    A caller that knows more than degrees, such as equal refinement colours
    or a position window, passes its own masks.  When None, a host vertex is
    a candidate for every pattern vertex of no larger degree, and the
    component-and-parity filter of the module docstring runs.

    ``larger[u]`` is the mask of pattern vertices whose image must exceed the
    image of pattern vertex ``u + 1`` (see ``_pattern_symmetry``).  Placing
    ``u`` at ``x`` then keeps only the host vertices above ``x`` in those
    vertices' domains, and only those below ``x`` in the domains of vertices
    that must stay under ``u``.  These masks and the component narrowing come
    first; then one pass filters each unplaced domain by ``x``'s row, prunes
    at an empty domain and picks the smallest domain, lowest id first, next.

    The search tree is walked on an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    p = len(padj)
    if p == 0:
        yield ()
        return
    pcomp = None
    if domains is None:
        hsum, _, at_least, hbipartite, hcomp, hside = _parts(hadj)
        psum, pdeg, pat_least, pbipartite, pcomp, pside = _parts(padj)
        if p > len(hadj) or psum > hsum or len(pat_least) > len(at_least) or (hbipartite and not pbipartite):
            # too big, a vertex of higher degree than any host vertex (an
            # empty domain), or an odd cycle with no image in a bipartite host
            return
        domains = [at_least[d] for d in pdeg]
    steps = budget.spent
    cap = budget.limit
    assignment = [0] * p
    smaller = None
    if larger is not None:
        smaller = [0] * p
        for u, mask in enumerate(larger):
            while mask:
                low = mask & -mask
                mask ^= low
                smaller[low.bit_length() - 1] |= 1 << u
    # one frame per assigned pattern vertex: the vertex, its untried
    # candidates, the domains it was chosen from and the vertices left after it
    frames: list[tuple[int, int, list[int], int]] = []
    # most-constrained vertex first, ascending-id tie-break; after the first,
    # each choice is made while the domains are filtered
    sizes = [d.bit_count() for d in domains]
    u = sizes.index(min(sizes))
    remaining = ((1 << p) - 1) & ~(1 << u)
    cands = domains[u]
    while True:
        if not cands:
            if not frames:
                budget.spent = steps
                return
            u, cands, domains, remaining = frames.pop()
            continue
        low = cands & -cands
        cands ^= low
        x = low.bit_length() - 1
        steps += 1
        if steps > cap:
            budget.spent = steps
            raise StepBudgetExceeded("step budget exhausted")
        assignment[u] = x + 1
        pu = padj[u]
        nbr = hadj[x]
        non = ~nbr & ~low
        new_domains = list(domains)
        if pcomp is not None and pcomp[u] & ~remaining == 1 << u:
            # u is the first vertex placed in its component: the component
            # maps into x's component, and into a bipartite one with the
            # parity of pattern distances kept
            su = pside[u]
            if hside[x] and not su:
                continue
            same = hside[x] or hcomp[x]
            other = hcomp[x] & ~hside[x]
            rest = pcomp[u] & remaining & ~pu
            while rest:
                vlow = rest & -rest
                rest ^= vlow
                v = vlow.bit_length() - 1
                new_domains[v] &= same if su & vlow else other
        if larger is not None:
            rest = (larger[u] | smaller[u]) & remaining
            while rest:
                vlow = rest & -rest
                rest ^= vlow
                v = vlow.bit_length() - 1
                if larger[u] & vlow:
                    new_domains[v] &= -(low << 1)  # the host bits above x
                if smaller[u] & vlow:
                    new_domains[v] &= low - 1  # the host bits below x
        ok = True
        best = -1
        best_size = len(hadj) + 1
        rest = remaining
        while rest:
            vlow = rest & -rest
            rest ^= vlow
            v = vlow.bit_length() - 1
            nd = new_domains[v] & (nbr if pu & vlow else non)
            if nd == 0:
                ok = False
                break
            new_domains[v] = nd
            size = nd.bit_count()
            if size < best_size:
                best, best_size = v, size
        if not ok:
            continue
        if remaining == 0:
            budget.spent = steps
            yield tuple(assignment)
            continue
        frames.append((u, cands, domains, remaining))
        domains = new_domains
        u = best
        remaining &= ~(1 << u)
        cands = domains[u]


def _automorphism_generators(
    adj: tuple[int, ...], budget: _Budget, colors: list
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Generators of the automorphism group of the graph with rows ``adj``,
    each automorphism as 0-based images (``gen[x]``), and per vertex u the
    mask of u's orbit under the automorphisms that fix 0..u-1.

    ``colors[x]`` is a colour of vertex x (any hashable value) that every
    automorphism keeps, such as a refinement round's key or the stable
    refinement colour.  Any such colouring gives generators of the same
    group and the same orbits; a finer one leaves fewer candidates to
    search.  The enumerator passes each parent's round-1 keys, which it has
    already read off the parent: on graphs of at most 11 vertices the rounds
    to the stable colouring cost more than the searches they save.
    Patterns pass their stable colours: on a long path or a large grid,
    round 1 leaves classes so coarse that the searches cost far more than
    the refinement (from round-1 keys, path(60) takes 30,861 steps instead
    of 495, and ``universal_grid(8, 8)`` 9,559 instead of 399).

    An orbit-pruned stabiliser chain (McKay & Piperno 2014, "Practical graph
    isomorphism, II").  The base points are 0..k-1, where k is one past the
    last vertex whose class in ``colors`` has two or more members: an
    automorphism keeps colours, so one that fixes 0..k-1 fixes every vertex.
    The base points are walked deepest first, and every generator found so
    far fixes 0..u-1 when base point u is reached; the orbits of those
    generators are kept as one mask per vertex.  At u, the transposition of
    u with each later twin (equal rows) is added first.  Then each later
    vertex v of u's colour class gets one search of the graph into itself
    with 0..u-1 fixed and u sent to v, unless v is already in u's orbit or
    in the orbit of a vertex whose search failed at this u: any vertex of
    that orbit would give the same answer.  A search that succeeds adds the
    automorphism it found, and its orbits join.  Vertices before u are
    fixed, so they are never tried.  The searches spend ``budget``.

    The generators found at base points u and later generate the stabiliser
    of 0..u-1, by induction from k down, where that stabiliser is trivial.
    The generators found at u+1 and later generate the stabiliser H of
    0..u, and when u is done, the generators reach every point of u's orbit
    under the stabiliser G of 0..u-1, since each point outside the orbit
    was refuted by a search and each point inside it was found or reached.
    So they generate a subgroup of G that contains H, the stabiliser of u
    in G, and that is transitive on u's orbit, which is all of G by the
    orbit-stabiliser theorem.  Each orbit mask is read when its base point
    is done, so it is u's whole orbit under G.
    """
    n = len(adj)
    by_color: dict = {}
    for x, c in enumerate(colors):
        by_color[c] = by_color.get(c, 0) | (1 << x)
    domains = [by_color[c] for c in colors]
    k = max((x + 1 for x, d in enumerate(domains) if d & (d - 1)), default=0)
    fixed = [1 << x for x in range(n)]
    orbit = list(fixed)  # orbit[x]: x's orbit under the generators found so far
    orbits = list(fixed)
    gens: list[tuple[int, ...]] = []

    def add(gen: tuple[int, ...]) -> None:
        gens.append(gen)
        for x, y in enumerate(gen):
            if not orbit[x] >> y & 1:
                joined = orbit[x] | orbit[y]
                rest = joined
                while rest:
                    low = rest & -rest
                    rest ^= low
                    orbit[low.bit_length() - 1] = joined

    for u in range(k - 1, -1, -1):
        for w in range(u + 1, n):
            if adj[w] == adj[u] and not orbit[u] >> w & 1:
                twin = list(range(n))
                twin[u], twin[w] = w, u
                add(tuple(twin))
        failed = 0
        cands = domains[u] & -(2 << u)  # the vertices after u
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if orbit[v] & (orbit[u] | failed):
                continue
            found = next(_search(adj, adj, budget, fixed[:u] + [low] + domains[u + 1 :]), None)
            if found is None:
                failed |= low
            else:
                add(tuple(x - 1 for x in found))
        orbits[u] = orbit[u]
    return gens, orbits


@lru_cache(maxsize=256)
def _pattern_symmetry(pattern: Graph, limit: int) -> tuple[list[int] | None, int]:
    """The symmetry record of ``pattern``: its order constraints, in
    ``_search``'s ``larger`` form (None when the pattern has no automorphism
    but the identity), and the steps the ``_automorphism_generators`` chain
    behind them spent on ``_Budget(limit)``.

    ``larger[u]`` is u's orbit under the automorphisms that fix 0..u-1,
    without u, so each such v adds "image(u) < image(v)".  Among the
    embeddings that differ by a pattern automorphism, the one whose image
    tuple is least satisfies every such pair: composing it with an
    automorphism that fixes 0..u-1 and sends u to v gives an embedding that
    agrees with it before u and puts image(v) at u.  So the pairs lose no
    embedding up to automorphism, and for an all-different search they keep
    exactly one per orbit (Puget 2005, "Breaking symmetries in all different
    problems").

    The caller charges the steps on a hit as on a miss, so budgets and
    UNDECIDED verdicts do not depend on what was built before.  A build that
    runs out raises and is not cached; a smaller limit is its own key.
    """
    budget = _Budget(limit)
    orbits = _automorphism_generators(pattern.adj, budget, _refinement_colors(pattern.adj)[0])[1]
    larger = [orbit & ~(1 << u) for u, orbit in enumerate(orbits)]
    return (larger if any(larger) else None), budget.spent


def find_induced_embedding(
    pattern: Graph, host: Graph, *, budget: int | None = None
) -> Embedding | None:
    """First induced embedding of ``pattern`` into ``host`` in search order, or None.

    Raises StepBudgetExceeded when a step budget is given and runs out.
    """
    tracker = _Budget(budget)
    found = next(_search(pattern.adj, host.adj, tracker), None)
    return None if found is None else Embedding(found)


def count_induced_embeddings(
    pattern: Graph, host: Graph, limit: int, *, budget: int | None = None
) -> int:
    """Number of distinct induced embeddings (as maps), stopping at ``limit``."""
    _int_in("limit", limit)
    tracker = _Budget(budget)
    return sum(1 for _ in itertools.islice(_search(pattern.adj, host.adj, tracker), limit))


def is_free(
    g: Graph, forbidden: list[Graph], *, budget: int | None = None
) -> FreenessResult:
    """True iff no graph in ``forbidden`` embeds induced; else a witness for
    the first one that does.

    Each pattern gets its own step budget, which also pays for its order
    constraints, cached per pattern and budget or not (``_pattern_symmetry``):
    the search then visits one embedding per orbit of the pattern's
    automorphisms, not all of them.
    Raises StepBudgetExceeded when a budget runs out.
    """
    tracker = _Budget(budget)
    for idx, h in enumerate(forbidden):
        if h.n > g.n or h.edge_count > g.edge_count:
            continue  # cannot embed: skip the automorphism searches as well
        # each pattern gets the whole budget, its constraints' steps charged first
        larger, tracker.spent = _pattern_symmetry(h, tracker.limit)
        found = next(_search(h.adj, g.adj, tracker, larger=larger), None)
        if found is not None:
            return FreenessResult(False, idx, Embedding(found))
    return FreenessResult(True, None, None)


def are_isomorphic(g: Graph, h: Graph, *, budget: int | None = None) -> bool:
    """Equal sizes plus one induced embedding; the embedding is then a bijection."""
    tracker = _Budget(budget)
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(row.bit_count() for row in g.adj) != sorted(
        row.bit_count() for row in h.adj
    ):
        return False
    return next(_search(g.adj, h.adj, tracker), None) is not None


def has_path_subgraph(g: Graph, k: int, *, budget: int | None = None) -> bool:
    """True iff ``g`` has a simple path on ``k`` vertices, not necessarily induced.

    Backtracking DFS over simple paths, started only in components that can
    hold ``k`` path vertices: a component needs at least ``k`` vertices, and
    since a path alternates between the parts, a bipartite component with
    parts of sizes a and b holds at most ``2 * min(a, b) + 1``.
    """
    _int_in("path length k", k)
    cap = _Budget(budget).limit
    steps = 0
    adj = g.adj
    last = k - 1  # stack depth at which one more vertex completes the path
    for comp, side, bipartite in _component_masks(adj):
        room = comp.bit_count()
        if bipartite:
            a = side.bit_count()
            room = min(room, 2 * min(a, room - a) + 1)
        if room < k:
            continue
        # depth-first over simple paths: rest holds the untried vertices that
        # can end the path (at first every start vertex of the component),
        # and the stack holds (rest, visited) of every shorter prefix
        rest, visited = comp, 0
        stack: list[tuple[int, int]] = []
        while True:
            while rest:
                low = rest & -rest
                rest ^= low
                steps += 1
                if steps > cap:
                    raise StepBudgetExceeded("step budget exhausted")
                if len(stack) == last:
                    return True
                stack.append((rest, visited))
                visited |= low
                rest = adj[low.bit_length() - 1] & ~visited
            if not stack:
                break
            rest, visited = stack.pop()
    return False

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
Optional order constraints (``larger``) keep some images above others.
Variable order is most-constrained-first with ascending-id tie-breaks, the
next choice taken while the domains are filtered rather than by a second
scan, and candidates are tried in ascending host id, so results are
deterministic for fixed inputs.  ``_search`` is a generator: it yields
each embedding as a tuple of host ids, and it counts every candidate
placement as one step of a ``_Budget``, bounded or not.  Every caller takes
``next(_search(...), None)`` for the first embedding or None, except
``count_induced_embeddings``, which counts an ``itertools.islice`` of it.

On the degree-filter path (``find_induced_embedding``,
``count_induced_embeddings``, ``is_free``) one more filter runs, from one
bitmask breadth-first search each over host and pattern.  The whole set-up
of that path is cached, once per host rows (``_host_parts``: degree total,
degree-threshold masks, components) and once per pattern rows
(``_pattern_parts``: degree total, degrees, components and sides), in
bounded caches.  The lemma checks search the same few patterns in
thousands of tiny hosts, where rebuilding the set-up on every call was a
large share of each search, and family-search embeds thousands of patterns
into one grid.  The search reads only the cached values, so a cache hit
spends the same steps as a miss.  A connected pattern component maps into one host
component, and a pattern path of length d maps to a host walk of length d,
so in a bipartite host component pattern distance parity is kept.  Hence a
pattern with an odd cycle has no embedding in a bipartite host (answered
before any step), and when the first vertex u of a pattern component is
placed at x, every other vertex of that component is confined to x's host
component and, if that component is bipartite, to x's side or the other
one as its pattern side agrees with u's.  On the 5,016 connected bipartite
graphs of up to 10 vertices this takes the first-embedding steps of P7 from
303,076 to 106,534 and of S123 from 193,638 to 80,411; C4 and Sun1 hardly
move (30,344 to 30,257, 31,729 to 31,552).  It does nothing for the
T-pair non-embeddings (T8 into T14 takes 359,586 steps either way).  Callers
that pass ``domains`` (the enumerator, ``contains_pattern``,
``_automorphism_generators``) keep their search tree step for step.  Stronger
per-host set-up (arc consistency, neighbour-degree dominance, a distance
ball around each root candidate) was measured to cost more than it pruned.

The order constraints serve two callers.  ``is_free`` builds them from a
stabiliser chain of each forbidden pattern's automorphisms
(``_automorphism_generators``, which the enumerator also uses to prune
attachment sets), so it visits one embedding per orbit rather than every
automorphic copy: 2P3 has |Aut| = 8, and the T-graphs' {2P3, Sun4}-freeness
was mostly spent on those copies.  They depend on the pattern alone, so they
are cached per pattern (``_pattern_constraints``).  Pattern containment
of permutations chains every pattern position below the next, which makes an
induced embedding of the positional inversion graphs an occurrence.
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

from .graphs import Graph, _component_masks


class StepBudgetExceeded(RuntimeError):
    """A search ran out of its step budget: the outcome is undecided, not 'none'."""


@dataclass(frozen=True)
class Embedding:
    """Injective map from pattern vertex ids to host vertex ids.

    ``mapping[i - 1]`` is the host image of pattern vertex ``i``.
    """

    mapping: tuple[int, ...]


def verify_embedding(emb: Embedding, pattern: Graph, host: Graph) -> bool:
    """Independent checker: injectivity plus the induced condition on all pairs."""
    m = emb.mapping
    if len(m) != pattern.n:
        return False
    if len(set(m)) != len(m):
        return False
    if any(not (1 <= x <= host.n) for x in m):
        return False
    for u in range(1, pattern.n + 1):
        for v in range(u + 1, pattern.n + 1):
            if pattern.has_edge(u, v) != host.has_edge(m[u - 1], m[v - 1]):
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
    of at least 0 raises ValueError, before any search looks at its graphs.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        if limit is None:
            limit = sys.maxsize
        elif isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
            raise ValueError(f"budget must be None or an int of at least 0, got {limit!r}")
        self.limit = limit
        self.spent = 0


def _refinement_rounds(adj: tuple[int, ...]) -> Iterator[tuple[list[int], tuple | None]]:
    """Iterated neighbour-colour refinement, one ``(colours, certificate)``
    pair per round.

    Round 0 is the degrees.  Each later round's colour ids are ranks of sorted
    (colour, neighbour-colour multiset) keys, so they are canonical:
    isomorphic graphs get corresponding colours.  Each key starts with the
    previous colour, so every round keeps the strict order of the round
    before it.  The certificate is None until the colouring is stable; the
    last pair repeats the stable colours with the certificate.
    """
    n = len(adj)
    colors = [row.bit_count() for row in adj]
    edges = sum(colors) // 2
    yield colors, None
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
            yield colors, (n, edges, tuple(sorted(keys)))
            return
        colors = new_colors
        yield colors, None


def _refinement_colors(adj: tuple[int, ...]) -> tuple[list[int], tuple]:
    """Stable colours of ``_refinement_rounds`` plus the certificate:
    isomorphic graphs get corresponding colours and an identical certificate,
    and the colour order refines the degree order."""
    for colors, cert in _refinement_rounds(adj):
        pass
    return colors, cert


@lru_cache(maxsize=256)
def _host_parts(hadj: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[tuple[int, int, bool], ...], bool]:
    """The degree-filter set-up of a host: its degree total; ``at_least[d]``,
    the host vertices of degree at least d, for d up to the top degree; its
    ``_component_masks``; and whether every component is bipartite."""
    degrees = [row.bit_count() for row in hadj]
    at_least = [0] * (max(degrees, default=0) + 1)
    for x, d in enumerate(degrees):
        at_least[d] |= 1 << x
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    comps = _component_masks(hadj)
    return sum(degrees), tuple(at_least), comps, all(c[2] for c in comps)


@lru_cache(maxsize=256)
def _pattern_parts(
    padj: tuple[int, ...],
) -> tuple[int, tuple[int, ...], int, bool, tuple[int, ...], tuple[int, ...]]:
    """The degree-filter set-up of a pattern: its degree total, degrees and
    top degree; whether it has an odd cycle; per vertex u, u's component (``pcomp[u]``)
    and the vertices of that component on u's side (``pside[u]``, 0 when the
    component has an odd cycle)."""
    p = len(padj)
    degrees = tuple(row.bit_count() for row in padj)
    pcomp = [0] * p
    pside = [0] * p
    odd = False
    for comp, side, bipartite in _component_masks(padj):
        odd = odd or not bipartite
        rest = comp
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            pcomp[u] = comp
            if bipartite:
                pside[u] = side if side & low else comp & ~side
    return sum(degrees), degrees, max(degrees), odd, tuple(pcomp), tuple(pside)


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
    image of pattern vertex ``u + 1`` (see ``_order_constraints``).  Placing
    ``u`` at ``x`` then keeps only the host vertices above ``x`` in those
    vertices' domains, and only those below ``x`` in the domains of vertices
    that must stay under ``u``.

    The search tree is walked on an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    p = len(padj)
    if p == 0:
        yield ()
        return
    pcomp = None
    if domains is None:
        hsum, at_least, hcomps, all_bipartite = _host_parts(hadj)
        psum, pdeg, ptop, odd, pcomp, pside = _pattern_parts(padj)
        if p > len(hadj) or psum > hsum or ptop >= len(at_least) or (odd and all_bipartite):
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
            for comp, side, bipartite in hcomps:
                if comp & low:
                    break
            same = other = comp
            su = pside[u]
            if bipartite:
                if not su:
                    continue
                same = comp & (side if side & low else ~side)
                other = comp & ~same
            rest = pcomp[u] & remaining & ~pu
            while rest:
                vlow = rest & -rest
                rest ^= vlow
                v = vlow.bit_length() - 1
                new_domains[v] &= same if su & vlow else other
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
        if ok and larger is not None:
            rest = (larger[u] | smaller[u]) & remaining
            while rest:
                vlow = rest & -rest
                rest ^= vlow
                v = vlow.bit_length() - 1
                nd = new_domains[v]
                if larger[u] & vlow:
                    nd &= -(low << 1)  # the host bits above x
                if smaller[u] & vlow:
                    nd &= low - 1  # the host bits below x
                if nd == 0:
                    ok = False
                    break
                if nd != new_domains[v]:
                    # only a shrunk domain can overtake the best choice
                    new_domains[v] = nd
                    size = nd.bit_count()
                    if size < best_size or (size == best_size and v < best):
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


def _automorphism_generators(adj: tuple[int, ...], budget: _Budget) -> list[tuple[int, ...]]:
    """A strong generating set of the automorphism group of the graph with
    rows ``adj``, each automorphism as 0-based images (``gen[x]``).

    A stabiliser chain: base points u = 0, 1, ... are fixed in turn.  With
    the earlier base points fixed, every other vertex v of u's refinement
    colour is tried as u's image by a search of the graph into itself, and
    each search that succeeds adds the automorphism it found, which fixes the
    base points before u and sends u to v.  Per base point these are coset
    representatives of the next stabiliser, so together they generate the
    whole group.  The searches spend ``budget``; the walk ends once every
    domain is a single vertex, when the stabiliser is trivial.
    """
    colors = _refinement_colors(adj)[0]
    by_color: dict[int, int] = {}
    for x, c in enumerate(colors):
        by_color[c] = by_color.get(c, 0) | (1 << x)
    domains = [by_color[c] for c in colors]
    gens: list[tuple[int, ...]] = []
    for u in range(len(adj)):
        if all(d & (d - 1) == 0 for d in domains):
            break
        cands = domains[u] & ~(1 << u)
        while cands:
            low = cands & -cands
            cands ^= low
            trial = list(domains)
            trial[u] = low
            found = next(_search(adj, adj, budget, trial), None)
            if found is not None:
                gens.append(tuple(x - 1 for x in found))
        domains[u] = 1 << u
    return gens


def _order_constraints(pattern: Graph, budget: _Budget) -> list[int] | None:
    """Symmetry-breaking order constraints for ``pattern``, in ``_search``'s
    ``larger`` form; None when the pattern has no automorphism but the
    identity.

    Each generator of ``_automorphism_generators`` fixes the base points
    before its first moved point u and sends u to v, and adds "image(u) <
    image(v)".  Among the embeddings that differ by a pattern automorphism,
    the one whose image tuple is least satisfies every such pair: composing
    it with that generator gives an embedding that agrees with it before u
    and puts image(v) at u.  So the pairs lose no embedding up to
    automorphism, and for an all-different search they keep exactly one per
    orbit (Puget 2005, "Breaking symmetries in all different problems").
    """
    larger = [0] * pattern.n
    for gen in _automorphism_generators(pattern.adj, budget):
        u = next(x for x, y in enumerate(gen) if x != y)
        larger[u] |= 1 << gen[u]
    return larger if any(larger) else None


# pattern rows -> (order constraints, steps spent building them), oldest
# entry evicted first; see _pattern_constraints
_CONSTRAINTS: dict[tuple[int, ...], tuple[list[int] | None, int]] = {}
_CONSTRAINTS_MAX = 256


def _pattern_constraints(pattern: Graph, tracker: _Budget) -> list[int] | None:
    """``_order_constraints(pattern, tracker)``, cached per pattern.

    The cache keeps the steps the build spent, and a hit charges them to
    ``tracker`` again, so budgets and UNDECIDED verdicts do not depend on
    what was built before.  A build that runs out of budget is not cached.
    """
    hit = _CONSTRAINTS.get(pattern.adj)
    if hit is not None:
        tracker.spent += hit[1]
        if tracker.spent > tracker.limit:
            raise StepBudgetExceeded("step budget exhausted")
        return hit[0]
    start = tracker.spent
    larger = _order_constraints(pattern, tracker)
    if len(_CONSTRAINTS) >= _CONSTRAINTS_MAX:
        del _CONSTRAINTS[next(iter(_CONSTRAINTS))]
    _CONSTRAINTS[pattern.adj] = (larger, tracker.spent - start)
    return larger


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
    tracker = _Budget(budget)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    return sum(1 for _ in itertools.islice(_search(pattern.adj, host.adj, tracker), limit))


def is_free(
    g: Graph, forbidden: list[Graph], *, budget: int | None = None
) -> FreenessResult:
    """True iff no graph in ``forbidden`` embeds induced; else a witness for
    the first one that does.

    Each pattern gets its own step budget, which also pays for its order
    constraints (``_pattern_constraints``), cached or not: the search then
    visits one embedding per orbit of the pattern's automorphisms, not all
    of them.
    Raises StepBudgetExceeded when a budget runs out.
    """
    tracker = _Budget(budget)
    for idx, h in enumerate(forbidden):
        if h.n > g.n or h.edge_count > g.edge_count:
            continue  # cannot embed: skip the automorphism searches as well
        tracker.spent = 0  # each pattern gets the whole budget
        found = next(_search(h.adj, g.adj, tracker, larger=_pattern_constraints(h, tracker)), None)
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
    cap = _Budget(budget).limit
    if k < 1:
        raise ValueError("path length must be at least 1 vertex")
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

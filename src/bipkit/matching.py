"""Exact induced-subgraph search, isomorphism, and path-subgraph detection.

The core is a backtracking search over candidate-domain bitmasks: assigning a
pattern vertex intersects every remaining domain with the host neighbourhood
(for pattern edges) or non-neighbourhood (for pattern non-edges) of the image,
so the induced condition and injectivity are enforced incrementally.  Domains
start from a degree filter (a host vertex is a candidate for every pattern
vertex of no larger degree), or from masks the caller supplies: the
enumerator's isomorphism test passes its refinement colour classes.  Nothing
else runs before the search: stronger per-host set-up (arc consistency,
neighbour-degree dominance) was measured to cost more than it pruned, both
on the lemma checks' thousands of small hosts and on embeddings into large
grids.  Variable order is most-constrained-first with ascending-id
tie-breaks and candidates are tried in ascending host id, so results are
deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .graphs import Graph, connected_components, mask_vertices


class StepBudgetExceeded(RuntimeError):
    """A search ran out of its step budget: the outcome is undecided, not 'none'."""


@dataclass(frozen=True)
class Embedding:
    """Injective map from pattern vertex ids to host vertex ids.

    ``mapping[i - 1]`` is the host image of pattern vertex ``i``.
    """

    mapping: tuple[int, ...]

    def image(self, v: int) -> int:
        return self.mapping[v - 1]

    def as_dict(self) -> dict[int, int]:
        return {i + 1: x for i, x in enumerate(self.mapping)}


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
    __slots__ = ("remaining",)

    def __init__(self, budget: int | None):
        self.remaining = budget

    def spend(self, amount: int = 1) -> None:
        if self.remaining is None:
            return
        self.remaining -= amount
        if self.remaining < 0:
            raise StepBudgetExceeded("step budget exhausted")


def _search(
    pattern: Graph,
    host: Graph,
    budget: _Budget,
    on_solution: Callable[[list[int]], bool],
    domains: list[int] | None = None,
) -> None:
    """Run the backtracking search; ``on_solution`` returns True to keep going.

    ``domains[u]`` is the starting mask of host vertices (bit ``x`` for host
    vertex ``x + 1``) that pattern vertex ``u + 1`` may map to.  A caller that
    knows more than degrees, such as equal refinement colours, passes its own
    masks.  When None, a host vertex is a candidate for every pattern vertex
    of no larger degree.
    """
    p = pattern.n
    if p == 0:
        on_solution([])
        return
    if domains is None:
        if p > host.n or pattern.edge_count > host.edge_count:
            return
        hdeg = [row.bit_count() for row in host.adj]
        top = max(hdeg) + 1
        # at_least[d]: host vertices of degree at least d; at_least[top] is empty
        at_least = [0] * (top + 1)
        for x, d in enumerate(hdeg):
            at_least[d] |= 1 << x
        for d in range(top - 1, -1, -1):
            at_least[d] |= at_least[d + 1]
        domains = [at_least[min(row.bit_count(), top)] for row in pattern.adj]
    padj = pattern.adj
    hadj = host.adj
    bounded = budget.remaining is not None
    assignment = [0] * p
    unassigned = (1 << p) - 1

    def extend(domains: list[int], unassigned: int) -> bool:
        if unassigned == 0:
            return on_solution(assignment)
        # most-constrained vertex, ascending-id tie-break
        best_u = -1
        best_size = -1
        rest = unassigned
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            size = domains[u].bit_count()
            if best_size < 0 or size < best_size:
                best_u, best_size = u, size
                if size <= 1:
                    break
        u = best_u
        remaining = unassigned & ~(1 << u)
        cands = domains[u]
        while cands:
            low = cands & -cands
            cands ^= low
            x = low.bit_length() - 1
            if bounded:
                budget.spend()
            assignment[u] = x + 1
            nbr = hadj[x]
            new_domains = list(domains)
            ok = True
            rest = remaining
            while rest:
                vlow = rest & -rest
                rest ^= vlow
                v = vlow.bit_length() - 1
                if (padj[u] >> v) & 1:
                    nd = new_domains[v] & nbr
                else:
                    nd = new_domains[v] & ~nbr & ~low
                if nd == 0:
                    ok = False
                    break
                new_domains[v] = nd
            if ok and not extend(new_domains, remaining):
                return False
        return True

    extend(domains, unassigned)


def find_induced_embedding(
    pattern: Graph, host: Graph, *, budget: int | None = None
) -> Embedding | None:
    """First induced embedding of ``pattern`` into ``host`` in search order, or None.

    Raises StepBudgetExceeded when a step budget is given and runs out.
    """
    found: list[Embedding] = []

    def take(assignment: list[int]) -> bool:
        found.append(Embedding(tuple(assignment)))
        return False

    _search(pattern, host, _Budget(budget), take)
    return found[0] if found else None


def count_induced_embeddings(
    pattern: Graph, host: Graph, limit: int, *, budget: int | None = None
) -> int:
    """Number of distinct induced embeddings (as maps), stopping at ``limit``."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    count = 0

    def take(assignment: list[int]) -> bool:
        nonlocal count
        count += 1
        return count < limit

    _search(pattern, host, _Budget(budget), take)
    return count


def is_free(
    g: Graph, forbidden: list[Graph], *, budget: int | None = None
) -> FreenessResult:
    """True iff no graph in ``forbidden`` embeds induced; else the first witness."""
    for idx, h in enumerate(forbidden):
        emb = find_induced_embedding(h, g, budget=budget)
        if emb is not None:
            return FreenessResult(False, idx, emb)
    return FreenessResult(True, None, None)


def are_isomorphic(g: Graph, h: Graph, *, budget: int | None = None) -> bool:
    """Equal sizes plus one induced embedding; the embedding is then a bijection."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(row.bit_count() for row in g.adj) != sorted(
        row.bit_count() for row in h.adj
    ):
        return False
    return find_induced_embedding(g, h, budget=budget) is not None


def has_path_subgraph(g: Graph, k: int, *, budget: int | None = None) -> bool:
    """True iff ``g`` has a simple path on ``k`` vertices, not necessarily induced.

    Backtracking DFS over simple paths with component-size pruning; hosts above
    16 vertices switch to a dynamic program over (vertex set, endpoint) states.
    """
    if k < 1:
        raise ValueError("path length must be at least 1 vertex")
    if k == 1:
        return g.n >= 1
    if k > g.n:
        return False
    comps = [c for c in connected_components(g) if len(c) >= k]
    if not comps:
        return False
    tracker = _Budget(budget)
    if g.n > 16:
        return _path_dp(g, k, comps, tracker)
    adj = g.adj

    def extend(v: int, visited: int, length: int) -> bool:
        if length == k:
            return True
        rest = adj[v] & ~visited
        while rest:
            low = rest & -rest
            rest ^= low
            tracker.spend()
            if extend(low.bit_length() - 1, visited | low, length + 1):
                return True
        return False

    for comp in comps:
        for start in comp:
            tracker.spend()
            if extend(start - 1, 1 << (start - 1), 1):
                return True
    return False


def _path_dp(g: Graph, k: int, comps: list[tuple[int, ...]], tracker: _Budget) -> bool:
    adj = g.adj
    allowed = 0
    for comp in comps:
        for v in comp:
            allowed |= 1 << (v - 1)
    # ends[mask] = endpoints of simple paths covering exactly `mask`
    ends: dict[int, int] = {}
    for v in mask_vertices(allowed):
        ends[1 << (v - 1)] = 1 << (v - 1)
    for _ in range(k - 1):
        nxt: dict[int, int] = {}
        for mask, endpoints in ends.items():
            rest = endpoints
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                grow = adj[v] & ~mask & allowed
                while grow:
                    glow = grow & -grow
                    grow ^= glow
                    tracker.spend()
                    nm = mask | glow
                    nxt[nm] = nxt.get(nm, 0) | glow
        if not nxt:
            return False
        ends = nxt
    return bool(ends)

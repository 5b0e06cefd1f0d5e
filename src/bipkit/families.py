"""Concrete graph families: layered antichain constructions, the universal
grid, and the small named graphs the verification suites quote.

``GRAPH_FAMILIES`` and ``PERM_FAMILIES`` name every family once; the CLI's
family specs and the verification suites both build members through them.

Canonical numbering: zone blocks in order A, B, C(, D) with ascending index
inside a zone; grids are numbered row-major.  A graph carries no vertex
names, so provenance lives in the numbering: ``ZoneLayout.zones`` maps each
id of a T or S graph to its ``(zone letter, index)``, and grid vertex
``(i, j)`` is id ``(i-1)*m + j``.  An embedding certificate names host ids,
which read back through these maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import Bipartition, Graph, _int_in, bipartite_complement
from .perms import (
    BiconvexWitness,
    Permutation,
    mu_star,
    permutation_graph,
    rho_star,
    star_perm_S,
    star_perm_T,
    star_s_witness,
    verify_biconvex_witness,
)


@dataclass(frozen=True)
class ZoneLayout:
    """Layered graph whose vertices sit in lettered zones of n vertices each,
    numbered zone by zone; ``zones[v]`` is ``(zone letter, index)``.

    ``t_graph`` has four zones A, B, C, D: A-B is the perfect matching
    ``a_i ~ b_{p(i)}``; C-D is a biclique; ``a_i`` sees ``d_1..d_i`` and
    ``b_i`` sees ``c_1..c_i`` (staircase neighbourhoods, so A-D and B-C are
    chain graphs).  Parts: A+C against B+D.

    ``s_graph`` has three zones A, B, C, built from a convex factor pair:
    ``b_i`` sees ``a_1..a_rho(i)`` and ``c_1..c_mu(i)``.  Parts: A+C against B.
    """

    graph: Graph
    bipartition: Bipartition
    zones: dict[int, tuple[str, int]]

    def zone_vertices(self, zone: str) -> tuple[int, ...]:
        return tuple(sorted(v for v, (z, _) in self.zones.items() if z == zone))


def _zoned(n: int, letters: str, edges: list[tuple[int, int]], part_b: str) -> ZoneLayout:
    """Zones ``letters`` of n vertices each, numbered zone by zone; ``zones``
    maps id ``k*n + i`` to ``(letters[k], i)``, and the zones in ``part_b``
    form part B."""
    zones = {k * n + i: (z, i) for k, z in enumerate(letters) for i in range(1, n + 1)}
    g = Graph.from_edges(len(zones), [(min(u, v), max(u, v)) for u, v in edges])
    in_b = {v for v, (z, _) in zones.items() if z in part_b}
    return ZoneLayout(g, Bipartition.of(set(zones) - in_b, in_b), zones)


def t_graph(p: Permutation) -> ZoneLayout:
    n = p.size
    a = lambda i: i
    b = lambda i: n + i
    c = lambda i: 2 * n + i
    d = lambda i: 3 * n + i
    edges = []
    for i in range(1, n + 1):
        edges.append((a(i), b(p(i))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            edges.append((c(i), d(j)))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            edges.append((a(i), d(j)))
            edges.append((b(i), c(j)))
    return _zoned(n, "ABCD", edges, "BD")


def s_graph(p: Permutation, w: BiconvexWitness) -> ZoneLayout:
    if not verify_biconvex_witness(p, w):
        raise ValueError("witness fails verification for the given permutation")
    n = p.size
    rho, mu = w.rho, w.mu
    a = lambda i: i
    b = lambda i: n + i
    c = lambda i: 2 * n + i
    edges = []
    for i in range(1, n + 1):
        for j in range(1, rho(i) + 1):
            edges.append((a(j), b(i)))
        for j in range(1, mu(i) + 1):
            edges.append((b(i), c(j)))
    return _zoned(n, "ABC", edges, "B")


def t_graph_star(n: int) -> ZoneLayout:
    """t_graph over the self-inverse generator family."""
    return t_graph(star_perm_T(n))


def s_graph_star(n: int) -> ZoneLayout:
    """s_graph over the biconvex generator family with its standard witness."""
    return s_graph(star_perm_S(n), star_s_witness(n))


def universal_grid(k: int, m: int) -> tuple[Graph, Bipartition]:
    """Grid on k rows of m vertices: (i, j) sees (i+1, 1..j); parts = odd/even rows.

    Vertex ids are row-major, (i, j) -> (i-1)*m + j, and the id is the only
    record of a vertex's row and column.
    """
    _int_in("k", k)
    _int_in("m", m)
    vid = lambda i, j: (i - 1) * m + j
    edges = []
    for i in range(1, k):
        for j in range(1, m + 1):
            for jj in range(1, j + 1):
                edges.append((vid(i, j), vid(i + 1, jj)))
    g = Graph.from_edges(k * m, [(min(u, v), max(u, v)) for u, v in edges])
    odd = {vid(i, j) for i in range(1, k + 1, 2) for j in range(1, m + 1)}
    even = set(g.vertices()) - odd
    return g, Bipartition.of(odd, even)


def path(n: int) -> Graph:
    _int_in("n", n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    _int_in("n", n, 3)
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n: int) -> Graph:
    _int_in("n", n)
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    _int_in("a", a)
    _int_in("b", b)
    return Graph.from_edges(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def two_p3() -> Graph:
    """Two disjoint 3-vertex paths."""
    return Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6)])


def sun4() -> Graph:
    """4-cycle with one pendant vertex on each cycle vertex."""
    return Graph.from_edges(
        8, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8)]
    )


def sun1() -> Graph:
    """4-cycle with a single pendant vertex."""
    return Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)])


def s123() -> Graph:
    """Tree with three leaves at distances 1, 2 and 3 from its degree-3 centre."""
    return Graph.from_edges(7, [(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 7)])


def h_antichain(i: int) -> Graph:
    """Spine of i+1 vertices with two pendant vertices on each end (i+5 total)."""
    _int_in("i", i)
    n = i + 5
    spine = [(v, v + 1) for v in range(1, i + 1)]
    pend = [(1, i + 2), (1, i + 3), (i + 1, i + 4), (i + 1, i + 5)]
    return Graph.from_edges(n, spine + pend)


def _odd_even(n: int) -> Bipartition:
    return Bipartition.of(range(1, n + 1, 2), range(2, n + 1, 2))


def p_tilde(k: int) -> Graph:
    """Cross-complement of the k-vertex path over its odd/even split."""
    return bipartite_complement(path(k), _odd_even(k))


# ---------------------------------------------------------------------------
# registry

Built = tuple[Graph, Bipartition | None]


def _bare(make: Callable[..., Graph]) -> Callable[..., Built]:
    """Builder for a family that carries no bipartition of its own."""
    return lambda *params: (make(*params), None)


def _laid_out(make: Callable[[int], ZoneLayout]) -> Callable[[int], Built]:
    def build(n: int) -> Built:
        layout = make(n)
        return layout.graph, layout.bipartition

    return build


def _kab(a: int, b: int) -> Built:
    return complete_bipartite(a, b), Bipartition.of(range(1, a + 1), range(a + 1, a + b + 1))


# name -> (parameter count, builder); ``perm-graph`` takes a Permutation, the
# others take ints.
GRAPH_FAMILIES: dict[str, tuple[int, Callable[..., Built]]] = {
    "path": (1, _bare(path)),
    "cycle": (1, _bare(cycle)),
    "complete": (1, _bare(complete)),
    "kab": (2, _kab),
    "sun4": (0, _bare(sun4)),
    "sun1": (0, _bare(sun1)),
    "s123": (0, _bare(s123)),
    "two-p3": (0, _bare(two_p3)),
    "h": (1, _bare(h_antichain)),
    "p-tilde": (1, lambda k: (p_tilde(k), _odd_even(k))),
    "t-graph": (1, _laid_out(t_graph_star)),
    "s-graph": (1, _laid_out(s_graph_star)),
    "grid": (2, universal_grid),
    "perm-graph": (1, _bare(permutation_graph)),
}

# name -> generator of the size-n member
PERM_FAMILIES: dict[str, Callable[[int], Permutation]] = {
    "star-t": star_perm_T,
    "star-s": star_perm_S,
    "rho": rho_star,
    "mu": mu_star,
}


def build_family(name: str, *params) -> Built:
    """A registered family member with its bipartition (None when the family
    carries none), e.g. ``build_family("kab", 3, 4)``.

    Raises ValueError on an unknown name, a wrong parameter count, or
    parameters the family rejects.
    """
    if name not in GRAPH_FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    count, build = GRAPH_FAMILIES[name]
    if len(params) != count:
        raise ValueError(f"family {name} expects {count} parameter(s)")
    return build(*params)

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterator

import pytest

from bipkit.graphs import Graph
from bipkit.harness import suites
from bipkit.harness.enumeration import bipartite_level


@pytest.fixture(autouse=True)
def fresh_lemma_walk():
    """Each test walks the lemma levels afresh: the walk's record for the
    process (``suites._LEMMA_LEVELS``) would otherwise answer a test's
    patched search or claim from an earlier test's walk."""
    suites._LEMMA_LEVELS.clear()


@pytest.fixture(scope="session")
def connected_levels() -> dict[int, list]:
    """Connected bipartite graphs up to isomorphism, 1..11 vertices."""
    return {n: bipartite_level(n) for n in range(1, 12)}


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most ``largest``, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


@functools.cache
def all_bipartite(n: int) -> tuple[Graph, ...]:
    """All bipartite graphs on n vertices up to isomorphism: one disjoint union
    per multiset of connected representatives, numbered component after
    component."""
    out = []
    for sizes in _partitions(n, n):
        per_size = [itertools.combinations_with_replacement(bipartite_level(k), m) for k, m in Counter(sizes).items()]
        for choice in itertools.product(*per_size):
            rows: list[int] = []
            for g in itertools.chain.from_iterable(choice):
                offset = len(rows)
                rows += [row << offset for row in g.adj]
            out.append(Graph(n, tuple(rows)))
    return tuple(out)


def parent_rows(g: Graph) -> tuple[int, ...]:
    """``g`` minus its last vertex: the enumerator appends each child's new
    vertex last, so for a connected representative these are the rows of the
    representative it was grown from (the oracle of its child ranges)."""
    drop = ~(1 << (g.n - 1))
    return tuple(row & drop for row in g.adj[:-1])


def round_one_keys(adj: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Refinement round-1 keys, (degree, sorted neighbour degrees) per vertex,
    from the rows bit by bit: a colouring every automorphism keeps."""
    n = len(adj)
    deg = [row.bit_count() for row in adj]
    return [(deg[v], tuple(sorted(deg[u] for u in range(n) if adj[v] >> u & 1))) for v in range(n)]

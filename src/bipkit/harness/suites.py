"""Named verification suites over the library: each suite is a deterministic
list of cases producing ok / FAIL / UNDECIDED verdicts, where a FAIL
carries a witness text that :func:`reverify_witness` re-checks on its own by
recomputing it, unless its case has nothing to show: an identity's values, a
calibration count, a spot case's pattern answers, a grid decoding, a letter
tamper, an embedding search or lift, a row occupancy and the grid
permutations fail with a note only.

Budget exhaustion in any exact search is reported as UNDECIDED, never as a
pass or a silent none.  Cases are independent, so a worker pool may run them
in any order; verdicts are aggregated in case order and are identical for any
worker count.

Suites are data.  ``_SUITES`` maps each suite name, in report order, to a
builder that lists its cases as specs ``(case name, case function,
arguments)``.  Specs are pickled across the worker pool, so a case function
is a module-level function, or a ``functools.partial`` of one, and its
arguments are plain data: ints, names, graphs and module-level functions.

- To add a case, append a spec to its suite's builder, reusing a shared case
  function where one fits: ``_case_identity`` (an identity function returning
  expected and actual values), ``_case_free`` (a graph free of forbidden
  graphs), ``_case_pair`` (one member of a registered family not embedding
  into another) or ``_case_spot`` (a graph inside or outside a lemma's
  universe).
- To add an exhaustive lemma, add a ``Lemma`` to ``LEMMAS`` under its suite
  name: its universe (connected bipartite graphs free of the ``forbidden``
  graphs and containing ``required``) and its claim (a generator of one note
  per violation on a member).  Then give the suite a builder whose specs come
  from ``_exhaustive``, and ``_exhaustive`` a walk that runs the claim on
  every member it admits; ``_case_lemma_chunk`` reports a chunk's outcome.
  A violation's witness is ``kind <suite>`` with sections ``@graph`` and
  ``@note``, and :func:`reverify_witness` accepts it when the graph is a
  member and the claim, run again, yields the note.

``_exhaustive`` reads each chunk off a walk of the levels from 1 up, made
while it lists the chunks.  The enumerator builds each graph of a level
from a parent one level down by adding a last vertex, and each parent's
children are one contiguous run of the level (``enumeration._child_starts``).
The forbidden patterns are induced subgraphs, so a graph whose parent is
not free holds one: a walk keeps the free graphs of each level by index and
visits only their children, in level order.  A visited graph gets one
search per pattern, and any copy found uses the last vertex: a copy that
avoids it would lie in the free parent.

The lemma suites share one walk.  Sun1 holds an induced C4, so every
(P7,C4)-free graph is (P7,Sun1)-free: the walk searches each child of a
(Sun1,P7)-free graph for Sun1, then P7, then C4.  A free child without C4
is a lemma-key member, one with C4 a lemma-reduction member, and that
suite's claim runs on it.  Over levels 1..10 that is 1,386 searches on
1,038 graphs (Sun1 1,038, P7 181, C4 167), against 2,577 on 2,067 for a
walk per suite.  ``_lemma_level`` keeps it per budget and level for the
process, so a level is walked once, in the ``build_seconds`` of whichever
lemma suite runs first.  Closure's claim, a build tree that recomposes,
certifies membership (``LEMMAS``), so its walk runs the claim first and
searches only a graph the claim fails.  It grows each child's tree from its
parent's (``structure._extend_tree``), checked once by ``structure._spans``
for both its recompose re-check and its children's growth, and decomposes
whole only level 1 and a child of a free parent without a tree.

Every search and claim takes the suite's budget.  A graph whose membership
search runs out is undecided, neither free nor rejected, and so are its
children, for which the parent rule has no answer; so is a member whose
claim runs out, and a graph whose C4 search runs out, which stays in the
walk.  Any other error in a search or a claim is handed to the graph's
chunk, with the graph, and the walk goes on: the parent rule only spares
searches, so the children are searched whole, or decomposed afresh.  A
search's run-out or error counts in each suite of its walk, a claim's in
its own.  A chunk with an error fails with a note; else a chunk with a
violation fails, with the first one as its witness; else a chunk that holds
an undecided graph is UNDECIDED, with their count in its note.  A spot case
reads membership off its own pattern searches; only :func:`reverify_witness`
runs the full search (``_member``).
"""

from __future__ import annotations

import itertools
import random
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

from ..graphs import (
    Bipartition,
    Graph,
    _canonical_int,
    _int_in,
    find_bipartition,
    is_connected,
    parse_graph,
    serialize_graph,
)
from ..matching import (
    Embedding,
    StepBudgetExceeded,
    _Budget,
    find_induced_embedding,
    has_path_subgraph,
    is_free,
    are_isomorphic,
    verify_embedding,
)
from ..perms import (
    Permutation,
    compose,
    contains_pattern,
    format_permutation,
    inverse,
    is_convex,
    mu_star,
    parse_permutation,
    permutation_graph,
    rho_star,
    star_perm_S,
    star_perm_T,
)
from ..families import (
    PERM_FAMILIES,
    build_family,
    complete_bipartite,
    cycle,
    p_tilde,
    path,
    s123,
    s_graph_star,
    sun1,
    sun4,
    t_graph_star,
    two_p3,
    universal_grid,
)
from ..structure import (
    DecompositionTree,
    _extend_tree,
    _recompose,
    _spans,
    decompose,
    format_tree,
    letter_representation_grid,
    decode_letter,
    verify_letter,
    parse_tree,
    recompose,
    verify_biconvex_order,
    find_biconvex_order,
    incomparability_graph,
)
from .enumeration import (
    MAX_VERTICES,
    _child_starts,
    bipartite_level,
    brute_force_bipartite_counts,
    euler_transform,
)

DEFAULT_BUDGET = 10**9


@dataclass
class CaseVerdict:
    case: str
    status: str  # "ok" | "FAIL" | "UNDECIDED"
    note: str = ""
    witness_text: str | None = None


@dataclass
class SuiteReport:
    suite: str
    verdicts: list[CaseVerdict]
    # building the case specs, enumeration levels and lemma membership included
    build_seconds: float = 0.0
    check_seconds: float = 0.0  # running the cases

    @property
    def seconds(self) -> float:
        return self.build_seconds + self.check_seconds

    @property
    def ok(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "FAIL")

    @property
    def undecided(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "UNDECIDED")

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "cases": len(self.verdicts),
            "ok": self.ok,
            "fail": self.failed,
            "undecided": self.undecided,
            "seconds": round(self.seconds, 3),
            "build_seconds": round(self.build_seconds, 3),
            "check_seconds": round(self.check_seconds, 3),
        }


@dataclass(frozen=True)
class SuiteOptions:
    budget: int | None = DEFAULT_BUDGET
    lemma_key_max: int = 9
    lemma_reduction_max: int = 10
    workers: int = 1

    def __post_init__(self):
        # each count and the budget through the package's one rule, before any suite runs
        _int_in("lemma-key range end", self.lemma_key_max, 9, MAX_VERTICES)
        _int_in("lemma-reduction range end", self.lemma_reduction_max, 4, MAX_VERTICES)
        _int_in("workers", self.workers)
        _Budget(self.budget)


# ---------------------------------------------------------------------------
# witnesses


def _graph_block(g: Graph) -> str:
    return serialize_graph(g).rstrip("\n")


def make_witness(kind: str, sections: dict[str, str]) -> str:
    lines = [f"kind {kind}"]
    for name, payload in sections.items():
        lines.append(f"@{name}")
        lines.append(payload.rstrip("\n"))
    return "\n".join(lines) + "\n"


def _split_witness(text: str) -> tuple[str, dict[str, str]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("kind "):
        raise ValueError("witness must start with a kind line")
    kind = lines[0][5:].strip()
    sections: dict[str, list[str]] = {}
    body: list[str] = []  # lines before the first section are dropped
    for line in lines[1:]:
        if line.startswith("@"):
            name = line[1:].strip()
            if name in sections:
                raise ValueError(f"witness kind {kind!r} repeats section @{name}")
            body = sections[name] = []
        else:
            body.append(line)
    return kind, {name: "\n".join(body) for name, body in sections.items()}


def _vertex_ids(kind: str, name: str, text: str, n: int) -> tuple[int, ...]:
    try:
        ids = tuple(_canonical_int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(
            f"witness kind {kind!r} section @{name} holds an id that is not an integer in canonical form"
        ) from None
    if any(not 1 <= v <= n for v in ids):
        raise ValueError(f"witness kind {kind!r} section @{name} holds an id outside 1..{n}")
    return ids


def reverify_witness(text: str) -> bool:
    """Re-check a failure witness through the module that produced it.

    A lemma witness, of kind its suite name, re-verifies when its graph is in
    the lemma's universe and the lemma's claim, run again on that graph,
    yields the witness's note.
    """
    kind, sec = _split_witness(text)

    def need(name: str) -> str:
        if name not in sec:
            raise ValueError(f"witness kind {kind!r} lacks section @{name}")
        return sec[name]

    if kind in LEMMAS:
        g, _ = parse_graph(need("graph"))
        note = need("note")
        b = _member(g, LEMMAS[kind])
        return b is not None and note in LEMMAS[kind].claim(g, b, None)
    if kind == "embedding":
        pattern, _ = parse_graph(need("pattern"))
        host, _ = parse_graph(need("host"))
        mapping = _vertex_ids(kind, "map", need("map"), host.n)
        return verify_embedding(Embedding(mapping), pattern, host)
    if kind == "perm-contain":
        host = parse_permutation(need("host"))
        pat = parse_permutation(need("pattern"))
        return contains_pattern(host, pat)
    if kind == "tree-not-free":
        g = recompose(parse_tree(need("tree")))
        return not is_free(g, LEMMAS["closure"].forbidden).free
    if kind in ("biconvex-orders-found", "biconvex-orders-rejected"):
        g, b = parse_graph(need("graph"))
        if b is None:
            raise ValueError(f"witness kind {kind!r} section @graph has no bipartition (b) line")
        order_a = _vertex_ids(kind, "order_a", need("order_a"), g.n)
        order_b = _vertex_ids(kind, "order_b", need("order_b"), g.n)
        return verify_biconvex_order(g, b, order_a, order_b) == (kind == "biconvex-orders-found")
    if kind == "incomparability-mismatch":
        # the incomparability graph is relabelled 1..k, so only its isomorphism type counts
        expected, _ = parse_graph(need("expected"))
        inc, _ = parse_graph(need("incomparability"))
        return not are_isomorphic(inc, expected)
    raise ValueError(f"unknown witness kind {kind!r}")


def _embedding_witness(pattern: Graph, host: Graph, emb: Embedding) -> str:
    return make_witness(
        "embedding",
        {
            "pattern": _graph_block(pattern),
            "host": _graph_block(host),
            "map": " ".join(str(x) for x in emb.mapping),
        },
    )


# ---------------------------------------------------------------------------
# case machinery


def _ok(case: str, note: str = "") -> CaseVerdict:
    return CaseVerdict(case, "ok", note)


def _fail(case: str, note: str, witness: str | None = None) -> CaseVerdict:
    return CaseVerdict(case, "FAIL", note, witness_text=witness)


def _exec_spec(spec) -> CaseVerdict:
    """Run one case.  A budget that runs out makes it UNDECIDED; any other
    error fails this case alone, with the traceback on stderr, so the other
    cases and suites still run."""
    case, fn, args = spec
    try:
        return fn(case, *args)
    except StepBudgetExceeded:
        return CaseVerdict(case, "UNDECIDED", "step budget exhausted")
    except Exception as exc:
        traceback.print_exc()
        return _fail(case, f"{type(exc).__name__}: {exc}")


def _run_cases(specs: list, workers: int) -> list[CaseVerdict]:
    if workers <= 1:
        return [_exec_spec(spec) for spec in specs]
    # imported here, so that a process that starts no pool does not load it
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return list(pool.imap(_exec_spec, specs, chunksize=1))


# ---------------------------------------------------------------------------
# identities suite (generator fidelity, composition, convexity, involution):
# each identity is a function returning its expected and its actual value

_PRINTED = (
    ("star-t", 6, (4, 2, 6, 1, 5, 3)),
    ("star-t", 8, (4, 2, 6, 1, 8, 3, 7, 5)),
    ("star-t", 10, (4, 2, 6, 1, 8, 3, 10, 5, 9, 7)),
    ("star-s", 8, (2, 3, 5, 1, 8, 4, 7, 6)),
    ("star-s", 10, (2, 3, 5, 1, 7, 4, 10, 6, 9, 8)),
    ("star-s", 12, (2, 3, 5, 1, 7, 4, 9, 6, 12, 8, 11, 10)),
    ("rho", 10, (1, 2, 3, 5, 7, 9, 10, 8, 6, 4)),
    ("mu", 10, (2, 3, 5, 7, 10, 9, 8, 6, 4, 1)),
)


def _printed(family: str, n: int, oneline: tuple[int, ...]) -> tuple:
    return oneline, PERM_FAMILIES[family](n).oneline


def _factor_value_at_3() -> tuple:
    return 5, compose(mu_star(10), inverse(rho_star(10)))(3)


def _involution(n: int) -> tuple:
    p = star_perm_T(n)
    return p, inverse(p)


def _convex(n: int) -> tuple:
    return (True, True), (is_convex(rho_star(n)), is_convex(mu_star(n)))


def _factorisation(n: int) -> tuple:
    return star_perm_S(n), compose(mu_star(n), inverse(rho_star(n)))


def _case_identity(case: str, identity: Callable[..., tuple], *args) -> CaseVerdict:
    expected, actual = identity(*args)
    if actual == expected:
        return _ok(case)
    return _fail(case, f"expected {expected}, got {actual}")


def _suite_identities(opts: SuiteOptions) -> list:
    specs = [(f"printed/{fam}-{n}", _case_identity, (_printed, fam, n, want)) for fam, n, want in _PRINTED]
    specs.append(("compose/eval-n10-at-3", _case_identity, (_factor_value_at_3,)))
    specs += [(f"involution/n{n}", _case_identity, (_involution, n)) for n in range(6, 42, 2)]
    specs += [(f"convex/n{n}", _case_identity, (_convex, n)) for n in range(8, 42, 2)]
    specs += [(f"compose/n{n}", _case_identity, (_factorisation, n)) for n in range(8, 42, 2)]
    return specs


# ---------------------------------------------------------------------------
# freeness and antichain suites over registered family members

_T_FORBIDDEN = (two_p3(), sun4())
_S_FORBIDDEN = (path(8), p_tilde(8))


def _case_free(case: str, g: Graph, forbidden: tuple[Graph, ...], budget: int | None) -> CaseVerdict:
    result = is_free(g, forbidden, budget=budget)
    if result.free:
        return _ok(case)
    pat = forbidden[result.pattern_index]
    return _fail(case, "forbidden pattern embeds", _embedding_witness(pat, g, result.witness))


def _suite_t_free(opts: SuiteOptions) -> list:
    return [(f"free/T{n}", _case_free, (t_graph_star(n).graph, _T_FORBIDDEN, opts.budget)) for n in range(6, 16, 2)]


def _case_pair(case: str, family: str, i: int, j: int, budget: int | None) -> CaseVerdict:
    """Member ``i`` of a registered graph or permutation family does not
    occur in member ``j``."""
    if family in PERM_FAMILIES:
        pat, host = PERM_FAMILIES[family](i), PERM_FAMILIES[family](j)
        if not contains_pattern(host, pat, budget=budget):
            return _ok(case)
        witness = make_witness(
            "perm-contain",
            {"host": format_permutation(host), "pattern": format_permutation(pat)},
        )
        return _fail(case, "pattern contained", witness)
    pat, host = build_family(family, i)[0], build_family(family, j)[0]
    emb = find_induced_embedding(pat, host, budget=budget)
    if emb is None:
        return _ok(case)
    return _fail(case, "member embeds", _embedding_witness(pat, host, emb))


def _pair_specs(label: str, family: str, pairs: list[tuple[int, int]], budget: int | None) -> list:
    """One ``_case_pair`` spec per ordered pair; ``label`` formats ``i`` and ``j``."""
    return [(label.format(i=i, j=j), _case_pair, (family, i, j, budget)) for i, j in pairs]


def _ordered_pairs(indices) -> list[tuple[int, int]]:
    return [(i, j) for i in indices for j in indices if i != j]


def _antichain_suite(perms: str, indices: tuple[int, ...], graphs: str, letter: str, pairs, budget) -> list:
    """The generator permutations pairwise, then each graph pair both ways.

    The graph pairs are fixed: (6, 8) for the T graphs and (8, 10) for the S
    graphs.  Widening them changes the case list, and so the pinned verdicts
    of ``perfbench/verify_verdicts.txt`` (ROADMAP item 7, the S-side antichain)."""
    both_ways = [pair for i, j in pairs for pair in ((i, j), (j, i))]
    label = f"graph/{letter}{{i}}-into-{letter}{{j}}"
    specs = _pair_specs("perm/{i}-into-{j}", perms, _ordered_pairs(indices), budget)
    return specs + _pair_specs(label, graphs, both_ways, budget)


def _suite_t_antichain(opts: SuiteOptions) -> list:
    return _antichain_suite("star-t", (6, 8, 10, 12), "t-graph", "T", ((6, 8),), opts.budget)


def _suite_s_antichain(opts: SuiteOptions) -> list:
    return _antichain_suite("star-s", (8, 10, 12, 14), "s-graph", "S", ((8, 10),), opts.budget)


# ---------------------------------------------------------------------------
# s-structure suite (freeness, incomparability graph, biconvex orders)


def _case_incomparability_iso(case: str, n: int) -> CaseVerdict:
    layout = s_graph_star(n)
    inc = incomparability_graph(layout.graph, set(layout.zone_vertices("B")))
    want = permutation_graph(star_perm_S(n))
    if are_isomorphic(inc, want):
        return _ok(case)
    witness = make_witness(
        "incomparability-mismatch", {"expected": _graph_block(want), "incomparability": _graph_block(inc)}
    )
    return _fail(case, "incomparability graph differs", witness)


def _incomparability_edges_n8() -> tuple:
    layout = s_graph_star(8)
    inc = incomparability_graph(layout.graph, set(layout.zone_vertices("B")))
    return [(1, 8), (2, 8), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 6)], inc.edges()


def proof_biconvex_orders(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The explicit order pair for the three-zone graphs: the A-zone reversed
    then the C-zone (largest neighbourhoods meet in the middle), B natural."""
    layout = s_graph_star(n)
    order_ac = tuple(reversed(layout.zone_vertices("A"))) + layout.zone_vertices("C")
    order_b = layout.zone_vertices("B")
    return order_ac, order_b


def _biconvex_witness(kind: str, g: Graph, b: Bipartition, order_a, order_b) -> str:
    return make_witness(
        kind,
        {
            "graph": serialize_graph(g, b).rstrip("\n"),
            "order_a": " ".join(map(str, order_a)),
            "order_b": " ".join(map(str, order_b)),
        },
    )


def _case_biconvex_proof_order(case: str, n: int) -> CaseVerdict:
    layout = s_graph_star(n)
    orders = proof_biconvex_orders(n)
    if verify_biconvex_order(layout.graph, layout.bipartition, *orders):
        return _ok(case)
    witness = _biconvex_witness("biconvex-orders-rejected", layout.graph, layout.bipartition, *orders)
    return _fail(case, "explicit order rejected", witness)


def _case_biconvex_cycle6(case: str) -> CaseVerdict:
    g = cycle(6)
    b = find_bipartition(g)
    found = find_biconvex_order(g, b)
    if found is None:
        return _ok(case)
    return _fail(case, "unexpected biconvex order", _biconvex_witness("biconvex-orders-found", g, b, *found))


def _suite_s_structure(opts: SuiteOptions) -> list:
    specs = [(f"free/S{n}", _case_free, (s_graph_star(n).graph, _S_FORBIDDEN, opts.budget)) for n in range(8, 18, 2)]
    specs += [(f"incomparability/iso-n{n}", _case_incomparability_iso, (n,)) for n in (8, 10, 12)]
    specs.append(("incomparability/edges-n8", _case_identity, (_incomparability_edges_n8,)))
    specs += [
        (f"biconvex/order-n{n}", _case_biconvex_proof_order, (n,)) for n in range(8, 18, 2)
    ]
    specs.append(("biconvex/cycle6-none", _case_biconvex_cycle6, ()))
    return specs


# ---------------------------------------------------------------------------
# exhaustive lemma suites

@dataclass(frozen=True)
class Lemma:
    """A claim over every connected bipartite graph free of ``forbidden``
    that contains ``required`` (when given): its universe.

    ``claim(g, b, budget)`` yields one note per violation of the claim on a
    member ``g`` with bipartition ``b``, its searches bounded by ``budget``;
    ``members`` names the members in a chunk's note.
    """

    forbidden: tuple[Graph, ...]
    required: Graph | None
    claim: Callable[[Graph, Bipartition, int | None], Iterator[str]]
    members: str


def _no_p9(g: Graph, b: Bipartition, budget: int | None) -> Iterator[str]:
    if has_path_subgraph(g, 9, budget=budget):
        yield "(P7,C4)-free graph with a 9-vertex path"


def _complete_bipartite(g: Graph, b: Bipartition, budget: int | None) -> Iterator[str]:
    if g.edge_count != b.mask_a.bit_count() * b.mask_b.bit_count():
        yield "graph with C4 is not complete bipartite"


_NO_TREE = "class member fails to decompose"


def _checked_tree(g: Graph, tree: DecompositionTree | None) -> tuple | None:
    """``tree`` with its checked pass (``structure._spans``) when it is a
    build tree that recomposes to ``g``, else None."""
    if tree is None:
        return None
    spans = _spans(tree)
    return (tree, spans) if _recompose(tree, spans) == g else None


def _decomposes(g: Graph, b: Bipartition, budget: int | None) -> Iterator[str]:
    if _checked_tree(g, decompose(g, b)) is None:
        yield _NO_TREE


LEMMAS = {
    "lemma-key": Lemma(
        forbidden=(cycle(4), path(7)), required=None, claim=_no_p9, members="in universe"
    ),
    "lemma-reduction": Lemma(
        forbidden=(sun1(), path(7)), required=cycle(4), claim=_complete_bipartite, members="with C4 in universe"
    ),
    "closure": Lemma(
        forbidden=(s123(), path(7)), required=None, claim=_decomposes, members="in class"
    ),
}
"""The lemmas by suite name, forbidden patterns listed cheapest rejection
first.  Three facts have an argument that carries them to every n, and one
lets closure's claim stand in for its membership search.

lemma-key's chords: every 7-vertex path of a member has one chord, (1,6) or
(2,7).  This half of the lemma holds on every bipartite (P7,C4)-free graph,
so the suite's claim is only the other half, no 9-vertex path.  The path's
vertices induce a bipartite (P7,C4)-free graph: the path and those of its
chords the member has, each joining path positions at odd distance, 3 or
5, as the graph is bipartite.  A distance-3 chord closes an induced C4 with
the path between its ends: the two pairs at distance 2 are on one side, so
non-adjacent.  The two distance-5 chords together close the induced C4
1-2-7-6.  With no chord the path is an induced P7.  So exactly one of (1,6)
and (2,7) is a chord.  ``test_seven_vertex_path_has_one_chord_in_every_member``
checks this on the 64 graphs the path and a subset of its six odd-distance
chords make, which covers every member of every size.  The other half is
decided for every n by the n=9 chunk: a 9-vertex path's vertices in a
member induce a bipartite (P7,C4)-free graph that holds the path, so is
connected: a 9-vertex member with the path.  None of the 36 members on 9
vertices has one (the longest path has 8 vertices), so no member of any
size has one, as ``test_no_nine_vertex_member_has_a_nine_vertex_path``
pins.  So the range ends at 9 by default; the chunks past it (``--nmax``
10..12) check the enumerator, not the lemma.

lemma-reduction: a connected bipartite graph G with an induced C4 that is
not complete bipartite holds an induced Sun1, P7-free or not.  Take a
maximal complete bipartite induced subgraph K of G that holds the C4.  K is
not all of G, so, G being connected, some x outside K has a neighbour b in
K.  x lies on the side of G opposite b, so it has no neighbour on K's side
opposite b, and by the maximality of K it misses some b' on b's side.  Then
b, b' and two vertices of K's other side make a C4 to which x is a pendant
at b: an induced Sun1.

Under a tight ``--budget`` lemma-key can read UNDECIDED on a graph with a
C4 whose Sun1 or P7 search runs out, as the lemma walk (module docstring)
searches C4 last; it never reads ok on a graph it has not decided.

closure certifies: a connected bipartite graph with a build tree that
recomposes to it is (P7,S123)-free.  Decomposability is hereditary: two
leaves are adjacent exactly when their lowest common ancestor's kind joins
their sides (``structure._sees``), and dropping the other leaves and
splicing out every node left with one operand keeps that ancestor and each
leaf's operand in it, so an induced subgraph of a buildable graph is
buildable (``structure.restrict``, checked in tier-1).  P7 and S123 do
not decompose (the ``decompose/path7-none`` case, and tier-1's check of
``decompose``'s "no" answers against (P7,S123)-freeness), so a buildable
graph holds neither.  The same heredity makes the walk's tree growth exact
(``structure.extend_tree``, run on the child range of each parent with a
tree): a child whose re-split subtree has no tree has none.  The walk
takes no verdict from this: every member has a member parent, so it is
either given a tree, re-checked to recompose to it, and the claim holds on
it, or searched exactly, and a member without a tree fails the claim.  The
argument decides only a chunk's member count and which children the walk
visits, and ``test_exhaustive_members_equal_full_search`` checks both
against the full search up to n=10.
"""


def _member(g: Graph, lemma: Lemma) -> Bipartition | None:
    """``g``'s bipartition when ``g`` is in the lemma's universe, else None."""
    if any(find_induced_embedding(h, g) is not None for h in lemma.forbidden):
        return None
    if lemma.required is not None and find_induced_embedding(lemma.required, g) is None:
        return None
    b = find_bipartition(g)
    return b if b is not None and is_connected(g) else None


def _lemma_witness(suite: str, g: Graph, note: str) -> str:
    return make_witness(suite, {"graph": _graph_block(g), "note": note})


def _case_lemma_chunk(
    case: str,
    suite: str,
    size: int,
    members: list[Graph],
    error: tuple[Graph, str] | None,
    undecided: int,
    violation: tuple[Graph, str] | None,
) -> CaseVerdict:
    """Report the walk's verdict on a chunk of ``size`` graphs of one
    connected level: ``members`` are the universe's members among them,
    ``error`` is the first graph on which a search or claim raised, with
    the error's type and message, or None, ``undecided`` counts the graphs
    whose membership or claim ran out of budget, and ``violation`` is the
    first member the claim fails, with the claim's note, or None.  An
    error fails the chunk with a note and no witness, since the walk's
    answers there are not known; else a violation fails it; else an
    undecided graph leaves it UNDECIDED."""
    if error is not None:
        g, message = error
        return _fail(case, f"walk error on the graph with edges {g.edges()}: {message}")
    if violation is not None:
        g, note = violation
        return _fail(case, note, _lemma_witness(suite, g, note))
    note = f"{size} graphs, {len(members)} {LEMMAS[suite].members}"
    if undecided:
        return CaseVerdict(case, "UNDECIDED", f"{note}, {undecided} undecided: step budget exhausted")
    return _ok(case, note)


def _case_spot(case: str, suite: str, g: Graph, embeds: tuple[bool, ...], budget: int | None) -> CaseVerdict:
    """``g`` embeds exactly the universe patterns (forbidden, then required)
    that ``embeds`` says, and satisfies the claim when a member."""
    lemma = LEMMAS[suite]
    k = len(lemma.forbidden)
    patterns = lemma.forbidden + ((lemma.required,) if lemma.required is not None else ())
    got = tuple(find_induced_embedding(h, g, budget=budget) is not None for h in patterns)
    if got != embeds:
        return _fail(case, f"universe patterns embed as {got}, expected {embeds}")
    # ``got`` already answers the searches ``_member`` would run again
    b = find_bipartition(g) if not any(got[:k]) and all(got[k:]) and is_connected(g) else None
    for note in lemma.claim(g, b, budget) if b is not None else ():
        return _fail(case, note, _lemma_witness(suite, g, note))
    return _ok(case)


# graphs per exhaustive case: one case name per chunk, such as ``n10/part02``;
# chunks slice the full level, members or not, so case names stay fixed
_CHUNK = 2000

# (budget, n) -> the lemma walk's level n under that budget (``_lemma_level``)
_LEMMA_LEVELS: dict[tuple[int | None, int], tuple] = {}


def _walk_level(walked: tuple[str, ...], n: int, below: tuple, budget: int | None, keep_trees: bool = False) -> tuple:
    """Level ``n`` of the walk of the suites ``walked``, closure's or the
    lemma walk (module docstring), from its level n-1, ``below``: the free
    and the undecided graphs' indices, the checked build trees with their
    ``_spans`` that ``keep_trees`` keeps for closure's next level, and per
    suite each chunk's ``_case_lemma_chunk`` arguments after the suite."""
    free_below, unknown_below, trees_below, _ = below
    walk = LEMMAS[walked[-1]]  # closure's universe, or Sun1 and P7 and the C4 that splits the lemma walk
    certifies = walk.claim is _decomposes  # closure's claim, a tree that recomposes, proves membership
    level, starts = bipartite_level(n), _child_starts(n)
    free, unknown, trees = set(), set(), {}
    members, undecided, error, violation = defaultdict(list), Counter(), {}, {}  # by (suite, chunk)
    # only the children of a free or undecided graph can be members: the
    # patterns are induced subgraphs, so the others hold one
    for i in sorted(free_below | unknown_below):
        children = range(starts[i], starts[i + 1])
        if i in unknown_below:
            # a graph whose membership is not known leaves its children undecided
            unknown.update(children)
            undecided.update((suite, j // _CHUNK) for j in children for suite in walked)
            continue
        grown = trees_below.pop(i, None)  # a tree is dropped once its children are grown
        for j in children:
            g, c = level[j], j // _CHUNK
            owners, note = walked, None  # a search's run-out or error counts in each suite of the walk
            try:
                if certifies:
                    tree = decompose(g, find_bipartition(g)) if grown is None else _extend_tree(*grown, g)
                    checked = _checked_tree(g, tree)
                    if checked is None:
                        note = _NO_TREE
                    elif keep_trees:
                        trees[j] = checked
                if (not certifies or note is not None) and any(
                    find_induced_embedding(h, g, budget=budget) is not None for h in walk.forbidden
                ):
                    continue
                free.add(j)
                if walk.required is not None:
                    split = find_induced_embedding(walk.required, g, budget=budget)
                    owners = ("lemma-key" if split is None else "lemma-reduction",)
                members[owners[0], c].append(g)
                if not certifies:
                    note = next(LEMMAS[owners[0]].claim(g, find_bipartition(g), budget), None)
            except StepBudgetExceeded:
                if j not in free:
                    unknown.add(j)
                undecided.update((owner, c) for owner in owners)
                continue
            except Exception as exc:
                # fails the chunk alone, as ``_exec_spec`` fails one case; the
                # parent rule only spares searches, so the children are still
                # decided, searched whole or decomposed afresh
                free.add(j)
                traceback.print_exc()
                for owner in owners:
                    error.setdefault((owner, c), (g, f"{type(exc).__name__}: {exc}"))
                continue
            if note is not None:
                violation.setdefault((owners[0], c), (g, note))
    sizes = [min(_CHUNK, len(level) - start) for start in range(0, len(level), _CHUNK)]
    chunks = {
        s: [
            (size, members[s, c], error.get((s, c)), undecided[s, c], violation.get((s, c)))
            for c, size in enumerate(sizes)
        ]
        for s in walked
    }
    return free, unknown, trees, chunks


def _lemma_level(n: int, budget: int | None) -> tuple:
    """The lemma walk's level ``n`` under ``budget`` (``_walk_level``), grown
    from its level n-1 on first use and kept for the process."""
    if (budget, n) not in _LEMMA_LEVELS:
        below = _lemma_level(n - 1, budget) if n > 1 else ({0}, set(), {}, None)
        _LEMMA_LEVELS[budget, n] = _walk_level(("lemma-key", "lemma-reduction"), n, below, budget)
    return _LEMMA_LEVELS[budget, n]


def _exhaustive(suite: str, n_min: int, n_max: int, budget: int | None = DEFAULT_BUDGET) -> list:
    """One ``_case_lemma_chunk`` spec per chunk of levels n_min..n_max, with
    every search bounded by ``budget``: read off the lemma walk for a lemma
    suite, walked afresh for closure, whose last level keeps no tree."""
    if suite != "closure":
        chunks = {n: _lemma_level(n, budget)[3][suite] for n in range(n_min, n_max + 1)}
    else:
        chunks, level = {}, ({0}, set(), {}, None)  # level 0 is one free graph
        for n in range(1, n_max + 1):
            level = _walk_level((suite,), n, level, budget, keep_trees=n < n_max)
            chunks[n] = level[3][suite]
    return [
        (f"exhaustive/n{n}/part{c:02d}", _case_lemma_chunk, (suite, *chunk))
        for n in range(n_min, n_max + 1)
        for c, chunk in enumerate(chunks[n])
    ]


def _case_calibration(case: str, n: int) -> CaseVerdict:
    want = brute_force_bipartite_counts(n)
    connected = [len(bipartite_level(k)) for k in range(1, n + 1)]
    got = (euler_transform(connected)[-1], connected[-1])
    if got == want:
        return _ok(case, f"all={got[0]} connected={got[1]}")
    return _fail(case, f"counts {got} != brute force {want}")


def _suite_lemma_key(opts: SuiteOptions) -> list:
    specs = [(f"calibration/n{n}", _case_calibration, (n,)) for n in range(1, 7)]
    # universe patterns: C4, P7; cycle(8) is C4-free yet contains an induced P7
    specs.append(("spot/s123", _case_spot, ("lemma-key", s123(), (False, False), opts.budget)))
    specs.append(("spot/cycle8", _case_spot, ("lemma-key", cycle(8), (False, True), opts.budget)))
    return specs + _exhaustive("lemma-key", 9, opts.lemma_key_max, opts.budget)


def _suite_lemma_reduction(opts: SuiteOptions) -> list:
    # universe patterns: Sun1, P7, then the required C4
    specs = [
        ("spot/k33", _case_spot, ("lemma-reduction", complete_bipartite(3, 3), (False, False, True), opts.budget)),
        ("spot/sun1", _case_spot, ("lemma-reduction", sun1(), (True, False, True), opts.budget)),
    ]
    return specs + _exhaustive("lemma-reduction", 4, opts.lemma_reduction_max, opts.budget)


# ---------------------------------------------------------------------------
# closure suite


def random_leaf_tree(rng: random.Random, max_depth: int = 6, max_leaves: int = 12) -> DecompositionTree:
    """Random build tree over single-vertex leaves with fresh ids 1..n.
    Every shape has a leaf, so ``max_leaves`` must be an int of at least 1;
    ``max_depth`` must be an int of at least 0."""
    _int_in("max_depth", max_depth, 0)
    _int_in("max_leaves", max_leaves)

    def shape(depth: int) -> list[str]:
        """A random tree's kinds in preorder, "leaf" at each leaf."""
        if depth >= max_depth or rng.random() < 0.3:
            return ["leaf"]
        kind = rng.choice(["union", "join", "skew"])
        return [kind, *shape(depth + 1), *shape(depth + 1)]

    s = shape(0)
    while s.count("leaf") > max_leaves:
        s = shape(0)

    # the leaves are numbered and given sides in preorder, once the shape is kept
    counter = itertools.count(1)
    tree: list[int | str] = []
    for kind in s:
        if kind == "leaf":
            v = next(counter)
            tree.append(v if rng.random() < 0.5 else -v)
        else:
            tree.append(kind)
    return DecompositionTree(tree)


def _case_closure_path7(case: str) -> CaseVerdict:
    g = path(7)
    b = find_bipartition(g)
    tree = decompose(g, b)
    if tree is None:
        return _ok(case)
    witness = make_witness("tree-not-free", {"tree": format_tree(tree)})
    return _fail(case, "path(7) unexpectedly decomposed", witness)


def _case_closure_random_trees(case: str, count: int, seed: int, budget: int | None) -> CaseVerdict:
    rng = random.Random(seed)
    for idx in range(count):
        tree = random_leaf_tree(rng)
        g = recompose(tree)
        result = is_free(g, LEMMAS["closure"].forbidden, budget=budget)
        if not result.free:
            return _fail(
                case,
                f"tree {idx} recomposes to a non-member",
                make_witness("tree-not-free", {"tree": format_tree(tree)}),
            )
    return _ok(case, f"{count} random trees")


def _suite_closure(opts: SuiteOptions) -> list:
    specs = [
        ("decompose/path7-none", _case_closure_path7, ()),
        ("random-trees/300", _case_closure_random_trees, (300, 20250808, opts.budget)),
    ]
    return specs + _exhaustive("closure", 1, 10, opts.budget)


# ---------------------------------------------------------------------------
# universality suite (grids, letters, permutation-graph embeddings)


def grid_permutation(k: int, m: int) -> tuple[Permutation, dict[int, int]]:
    """Permutation realizing the k-by-m grid, plus the vertex-to-value map.

    Closed form.  Row i of the grid holds vertices (i, 1..m), and (i, j)
    sees (i+1, jj) exactly when jj <= j.  Two orders of the vertices:
    values take row 1, then rows (2, 3), (4, 5), ... and positions take rows
    (1, 2), (3, 4), ...; a last unpaired row comes alone.  Inside a block the
    rows are interleaved column by column: the odd row first at each column
    in the value order, the even row first in the position order.  Vertex v
    gets value ``value[v]`` at its place in the position order, and two
    vertices cross (an edge of the permutation graph) exactly when the two
    orders disagree on them.

    Proof that the crossings are the grid edges.  Both orders go by block,
    then column, and both keep the row order between blocks.  One row's
    vertices are ordered by column in both.  Rows two or more apart lie in
    different blocks of both orders, so the lower row comes first in both.
    Adjacent rows i, i+1 share a block in exactly one order (the value order
    when i is even, the position order when i is odd), and the other order
    puts row i first.  In the shared block the row that comes first at equal
    columns is i+1 (it is the odd row when i is even, the even row when i is
    odd), so (i+1, jj) precedes (i, j) exactly when jj <= j.  So the orders
    disagree on (i, j) and (i+1, jj) exactly when jj <= j, the grid's edge
    rule, and agree on every other pair.
    """
    _int_in("k", k)
    _int_in("m", m)
    cells = [(i, j) for i in range(1, k + 1) for j in range(1, m + 1)]
    by_value = sorted(cells, key=lambda c: (c[0] // 2, c[1], 1 - c[0] % 2))
    by_position = sorted(cells, key=lambda c: ((c[0] + 1) // 2, c[1], c[0] % 2))
    value = {(i - 1) * m + j: rank for rank, (i, j) in enumerate(by_value, start=1)}
    return Permutation(tuple(value[(i - 1) * m + j] for i, j in by_position)), value


def _placement_degree(value: int, position: int, bigger: int) -> int:
    """Degree in the inversion graph of ``value`` at 0-based ``position``
    with ``bigger`` larger values before it: those ``bigger`` values, plus the
    ``value - 1 - (position - bigger)`` smaller values after it."""
    return 2 * bigger + value - 1 - position


def brute_grid_permutation(m: int) -> Permutation | None:
    """Search for a permutation of size m*m realizing the m-by-m grid.

    Exact DFS over one-line prefixes, least value first, so the hit is the
    first realizing permutation in lexicographic order; guarded to m <= 3
    (the search space is factorial in m*m).  Two necessary conditions prune a
    prefix without losing a hit.  Inversions are the graph's edges, so a
    prefix's inversion count must stay within reach of the grid's edge count.
    And a value's degree in the inversion graph is fixed once it is placed:
    every larger value before it is already placed, and every smaller value
    not placed yet comes after it (``_placement_degree``).  An isomorphism
    keeps the degree multiset, so a value is placed only while the grid has a
    vertex of its degree left unmatched.
    """
    _int_in("m", m, 1, 3)
    g, _ = universal_grid(m, m)
    target = g.edge_count
    n = m * m
    full = (1 << n) - 1
    total_pairs = n * (n - 1) // 2
    slots = [0] * n  # slots[d]: grid vertices of degree d no placed value matches yet
    for row in g.adj:
        slots[row.bit_count()] += 1
    prefix: list[int] = []

    def rec(remaining: int, inv: int) -> bool:  # value v is bit v - 1
        p = len(prefix)
        if inv > target or inv + total_pairs - p * (p - 1) // 2 < target:
            return False
        if not remaining:
            return are_isomorphic(permutation_graph(Permutation(tuple(prefix))), g)
        placed = full ^ remaining
        rest = remaining
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length()
            bigger = p - (placed & (low - 1)).bit_count()
            d = _placement_degree(v, p, bigger)
            if not slots[d]:
                continue
            slots[d] -= 1
            prefix.append(v)
            if rec(remaining ^ low, inv + bigger):
                return True
            prefix.pop()
            slots[d] += 1
        return False

    return Permutation(tuple(prefix)) if rec(full, 0) else None


def _case_letters_decode(case: str, limit: int) -> CaseVerdict:
    for k in range(1, limit + 1):
        for m in range(1, limit + 1):
            rep = letter_representation_grid(k, m)
            expected, _ = universal_grid(k, m)
            if decode_letter(rep) != expected:
                return _fail(case, f"grid {k}x{m} decode mismatch")
    return _ok(case, f"all grids up to {limit}x{limit}")


def _case_letters_tamper(case: str) -> CaseVerdict:
    rep = letter_representation_grid(5, 5)
    g, _ = universal_grid(5, 5)
    edges = g.edges()
    damaged = Graph.from_edges(g.n, edges[:-1])
    if verify_letter(rep, damaged):
        return _fail(case, "verify_letter accepted a damaged graph")
    return _ok(case)


def _grid_inclusion(emb: Embedding, m: int, target: int) -> Embedding:
    def inc(v: int) -> int:
        i, j = (v - 1) // m + 1, (v - 1) % m + 1
        return (i - 1) * target + j

    return Embedding(tuple(inc(x) for x in emb.mapping))


def _case_embed_size(case: str, m: int, budget: int | None) -> CaseVerdict:
    host, _ = universal_grid(m, m)
    big, _ = universal_grid(6, 6)
    total = bipartite = 0
    for p in itertools.permutations(range(1, m + 1)):
        total += 1
        gp = permutation_graph(Permutation(p))
        if find_bipartition(gp) is None:
            continue
        bipartite += 1
        emb = find_induced_embedding(gp, host, budget=budget)
        if emb is None:
            return _fail(case, f"{p} does not embed into the {m}x{m} grid")
        lifted = _grid_inclusion(emb, m, 6)
        if not verify_embedding(lifted, gp, big):
            return _fail(case, f"inclusion lift failed for {p}")
    return _ok(case, f"{bipartite} bipartite graphs of {total} permutations")


def _case_row_occupancy(case: str, m_max: int, budget: int | None) -> CaseVerdict:
    # induced paths are hereditary, as dropping an end vertex of an induced
    # P(j+1) leaves an induced P(j), so the longest one on at most m vertices
    # is found by scanning j = 1, 2, ... up to the first that does not embed
    paths = [path(j) for j in range(1, m_max + 1)]
    hosts: dict[tuple[int, int], Graph] = {}
    checked = 0
    for m in range(2, m_max + 1):
        for p in itertools.permutations(range(1, m + 1)):
            gp = permutation_graph(Permutation(p))
            if find_bipartition(gp) is None or not is_connected(gp):
                continue
            longest = 0
            while longest < m and find_induced_embedding(paths[longest], gp) is not None:
                longest += 1
            rows = min(longest + 1, m)
            if (rows, m) not in hosts:
                hosts[rows, m] = universal_grid(rows, m)[0]
            if find_induced_embedding(gp, hosts[rows, m], budget=budget) is None:
                return _fail(case, f"{p} needs more than {rows} rows")
            checked += 1
    return _ok(case, f"{checked} connected graphs")


def _case_grid_perm_brute(case: str, m: int) -> CaseVerdict:
    found = brute_grid_permutation(m)
    g, _ = universal_grid(m, m)
    if found is not None and are_isomorphic(permutation_graph(found), g):
        return _ok(case, format_permutation(found))
    return _fail(case, f"no realizing permutation found for the {m}x{m} grid")


def _case_grid_perm_witness(case: str, k: int, m: int) -> CaseVerdict:
    perm, value = grid_permutation(k, m)
    g, _ = universal_grid(k, m)
    relabeled = Graph.from_edges(
        g.n, [(min(value[u], value[v]), max(value[u], value[v])) for u, v in g.edges()]
    )
    if relabeled == permutation_graph(perm):
        return _ok(case, format_permutation(perm))
    return _fail(case, f"witness permutation does not realize the {k}x{m} grid")


def _suite_universality(opts: SuiteOptions) -> list:
    specs = [
        ("letters/decode-grids", _case_letters_decode, (8,)),
        ("letters/tamper-detected", _case_letters_tamper, ()),
    ]
    specs += [(f"embed/size{m}", _case_embed_size, (m, opts.budget)) for m in range(1, 7)]
    specs.append(("embed/row-occupancy", _case_row_occupancy, (6, opts.budget)))
    specs += [(f"grid-perm/brute-m{m}", _case_grid_perm_brute, (m,)) for m in (1, 2, 3)]
    specs += [
        (f"grid-perm/witness-{k}x{m}", _case_grid_perm_witness, (k, m))
        for k, m in ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 6), (6, 3))
    ]
    return specs


# ---------------------------------------------------------------------------
# runner

# suite name -> builder of its case specs, in report order
_SUITES = {
    "identities": _suite_identities,
    "t-free": _suite_t_free,
    "t-antichain": _suite_t_antichain,
    "s-structure": _suite_s_structure,
    "s-antichain": _suite_s_antichain,
    "lemma-key": _suite_lemma_key,
    "lemma-reduction": _suite_lemma_reduction,
    "universality": _suite_universality,
    "closure": _suite_closure,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, opts: SuiteOptions | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    opts = opts or SuiteOptions()
    start = time.perf_counter()
    specs = _SUITES[name](opts)
    built = time.perf_counter()
    verdicts = _run_cases(specs, opts.workers)
    end = time.perf_counter()
    return SuiteReport(name, verdicts, built - start, end - built)

"""Named verification suites over the library: each suite is a deterministic
list of cases producing ok / FAIL / UNDECIDED verdicts, where every FAIL
carries a witness text that re-verifies on its own through
:func:`reverify_witness`.

Budget exhaustion in any exact search is reported as UNDECIDED, never as a
pass or a silent none.  Cases are independent, so a worker pool may run them
in any order; verdicts are aggregated in case order and are identical for any
worker count.

Suites are data.  ``_SUITES`` maps each suite name, in report order, to a
builder that lists its cases as specs ``(case name, case function,
arguments)``.  Specs are pickled across the worker pool, so a case function
is a module-level function and its arguments are plain data: ints, graphs,
module-level functions, and family specs that name a member of the
:mod:`bipkit.families` registry, such as ``("path", 7)``.

- To add a case, append a spec to its suite's builder, reusing a shared case
  function where one fits: ``_case_identity`` (an identity function returning
  expected and actual values), ``_case_free`` (a family member free of
  forbidden members), ``_case_pair`` (one family member not embedding into
  another) or ``_case_spot`` (a named graph inside or outside a lemma's
  universe).
- To add an exhaustive lemma, add a ``Lemma`` to ``LEMMAS`` under its suite
  name: its universe (connected bipartite graphs free of ``forbidden`` and
  containing ``required``), its claim (a generator of violations on a
  member) and the witness kinds the claim reports.  Then give the suite a
  builder whose specs come from ``_exhaustive``.  ``_case_lemma_chunk``
  checks the claim on every member of its chunk, and :func:`reverify_witness`
  re-checks the lemma's witnesses against the same entry.

``_exhaustive`` decides membership while it lists the chunks, walking the
levels from 1 up.  A representative minus its last vertex is its enumerator
parent (``enumeration.parent_rows``), and the forbidden patterns are induced
subgraphs, so a graph whose parent is not free is rejected unsearched; every
other graph gets one search per forbidden pattern, and a free graph one
search for the required pattern, which is not inherited.  A spot case reads
membership off its own pattern searches; only :func:`reverify_witness` runs
the full search (``_member``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from ..graphs import (
    Bipartition,
    Graph,
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
    cycle,
    path,
    s_graph_star,
    universal_grid,
)
from ..structure import (
    DecompositionTree,
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
    bipartite_level,
    brute_force_bipartite_counts,
    euler_transform,
    parent_rows,
)

DEFAULT_BUDGET = 10**9

Spec = tuple  # a registered family name, then its parameters: ("path", 7)


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
    lemma_key_max: int = 11
    lemma_reduction_max: int = 10
    t_pairs: tuple[tuple[int, int], ...] = ((6, 8),)
    s_pairs: tuple[tuple[int, int], ...] = ((8, 10),)
    workers: int = 1

    def __post_init__(self):
        if not 9 <= self.lemma_key_max <= MAX_VERTICES:
            raise ValueError(f"lemma-key range must end between 9 and {MAX_VERTICES}")
        if not 4 <= self.lemma_reduction_max <= MAX_VERTICES:
            raise ValueError(f"lemma-reduction range must end between 4 and {MAX_VERTICES}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        _Budget(self.budget)  # the searches' own check, before any suite runs


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
            body = sections[line[1:].strip()] = []
        else:
            body.append(line)
    return kind, {name: "\n".join(body) for name, body in sections.items()}


def _vertex_ids(kind: str, name: str, text: str, n: int) -> tuple[int, ...]:
    try:
        ids = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"witness kind {kind!r} section @{name} holds a non-integer id") from None
    if any(not 1 <= v <= n for v in ids):
        raise ValueError(f"witness kind {kind!r} section @{name} holds an id outside 1..{n}")
    return ids


def reverify_witness(text: str) -> bool:
    """Re-check a failure witness through the module that produced it.

    A lemma witness re-verifies when its graph is in the lemma's universe and
    the lemma's claim, run again on that graph, reports the witness's
    violation, id sections included (a 7-path lowest end first).
    """
    kind, sec = _split_witness(text)

    def need(name: str) -> str:
        if name not in sec:
            raise ValueError(f"witness kind {kind!r} lacks section @{name}")
        return sec[name]

    if kind in _LEMMA_OF_KIND:
        lemma = LEMMAS[_LEMMA_OF_KIND[kind]]
        g, _ = parse_graph(need("graph"))
        ids = {name: _vertex_ids(kind, name, need(name), g.n) for name in lemma.witnesses[kind]}
        b = _member(g, *_universe(lemma))
        return b is not None and any(k == kind and found == ids for _, k, found in lemma.claim(g, b))
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
        return not is_free(g, _universe(LEMMAS["closure"])[0]).free
    if kind in ("biconvex-orders-found", "biconvex-orders-rejected"):
        g, b = parse_graph(need("graph"))
        if b is None:
            raise ValueError(f"witness kind {kind!r} section @graph has no bipartition (b) line")
        order_a = _vertex_ids(kind, "order_a", need("order_a"), g.n)
        order_b = _vertex_ids(kind, "order_b", need("order_b"), g.n)
        return verify_biconvex_order(g, b, order_a, order_b) == (kind == "biconvex-orders-found")
    if kind == "letter-mismatch":
        expected, _ = parse_graph(need("expected"))
        decoded, _ = parse_graph(need("decoded"))
        return decoded != expected
    if kind == "value-mismatch":
        return need("expected").strip() != need("actual").strip()
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


def _value_witness(expected: str, actual: str) -> str:
    return make_witness("value-mismatch", {"expected": expected, "actual": actual})


# ---------------------------------------------------------------------------
# case machinery


def _ok(case: str, note: str = "") -> CaseVerdict:
    return CaseVerdict(case, "ok", note)


def _fail(case: str, note: str, witness: str | None = None) -> CaseVerdict:
    return CaseVerdict(case, "FAIL", note, witness_text=witness)


def _exec_spec(spec) -> CaseVerdict:
    case, fn, args = spec
    try:
        return fn(case, *args)
    except StepBudgetExceeded:
        return CaseVerdict(case, "UNDECIDED", "step budget exhausted")


def _run_cases(specs: list, workers: int) -> list[CaseVerdict]:
    if workers <= 1:
        return [_exec_spec(spec) for spec in specs]
    with multiprocessing.Pool(workers) as pool:
        return list(pool.imap(_exec_spec, specs, chunksize=1))


def _graph(spec: Spec) -> Graph:
    return build_family(*spec)[0]


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
    return _fail(case, f"got {actual}", _value_witness(str(expected), str(actual)))


def _suite_identities(opts: SuiteOptions) -> list:
    specs = [(f"printed/{fam}-{n}", _case_identity, (_printed, fam, n, want)) for fam, n, want in _PRINTED]
    specs.append(("compose/eval-n10-at-3", _case_identity, (_factor_value_at_3,)))
    specs += [(f"involution/n{n}", _case_identity, (_involution, n)) for n in range(6, 42, 2)]
    specs += [(f"convex/n{n}", _case_identity, (_convex, n)) for n in range(8, 42, 2)]
    specs += [(f"compose/n{n}", _case_identity, (_factorisation, n)) for n in range(8, 42, 2)]
    return specs


# ---------------------------------------------------------------------------
# freeness and antichain suites over registered family members

_T_FORBIDDEN = (("two-p3",), ("sun4",))
_S_FORBIDDEN = (("path", 8), ("p-tilde", 8))


def _case_free(case: str, spec: Spec, forbidden: tuple[Spec, ...], budget: int | None) -> CaseVerdict:
    g = _graph(spec)
    patterns = [_graph(f) for f in forbidden]
    result = is_free(g, patterns, budget=budget)
    if result.free:
        return _ok(case)
    pat = patterns[result.pattern_index]
    return _fail(case, "forbidden pattern embeds", _embedding_witness(pat, g, result.witness))


def _suite_t_free(opts: SuiteOptions) -> list:
    return [(f"free/T{n}", _case_free, (("t-graph", n), _T_FORBIDDEN, opts.budget)) for n in range(6, 16, 2)]


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
    pat, host = _graph((family, i)), _graph((family, j))
    emb = find_induced_embedding(pat, host, budget=budget)
    if emb is None:
        return _ok(case)
    return _fail(case, "member embeds", _embedding_witness(pat, host, emb))


def _pair_specs(label: str, family: str, pairs: list[tuple[int, int]], budget: int | None) -> list:
    """One ``_case_pair`` spec per ordered pair; ``label`` formats ``i`` and ``j``."""
    return [(label.format(i=i, j=j), _case_pair, (family, i, j, budget)) for i, j in pairs]


def _ordered_pairs(indices) -> list[tuple[int, int]]:
    return [(i, j) for i in indices for j in indices if i != j]


_ANTICHAIN_FAMILIES = {"T": "t-graph", "S": "s-graph", "H": "h", "permT": "star-t", "permS": "star-s"}


def antichain_check(
    family: str, indices: list[int], *, budget: int | None = DEFAULT_BUDGET, workers: int = 1
) -> SuiteReport:
    """Pairwise non-containment over every ordered pair of family members;
    ``family`` is T, S or H (graphs) or permT or permS (permutations)."""
    if family not in _ANTICHAIN_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    start = time.perf_counter()
    pairs = _ordered_pairs(indices)
    specs = _pair_specs(family + "/{i}-into-{j}", _ANTICHAIN_FAMILIES[family], pairs, budget)
    built = time.perf_counter()
    verdicts = _run_cases(specs, workers)
    return SuiteReport(f"antichain-{family}", verdicts, built - start, time.perf_counter() - built)


def _antichain_suite(perms: str, indices: tuple[int, ...], graphs: str, letter: str, pairs, budget) -> list:
    """The generator permutations pairwise, then each graph pair both ways."""
    both_ways = [pair for i, j in pairs for pair in ((i, j), (j, i))]
    label = f"graph/{letter}{{i}}-into-{letter}{{j}}"
    specs = _pair_specs("perm/{i}-into-{j}", perms, _ordered_pairs(indices), budget)
    return specs + _pair_specs(label, graphs, both_ways, budget)


def _suite_t_antichain(opts: SuiteOptions) -> list:
    return _antichain_suite("star-t", (6, 8, 10, 12), "t-graph", "T", opts.t_pairs, opts.budget)


def _suite_s_antichain(opts: SuiteOptions) -> list:
    return _antichain_suite("star-s", (8, 10, 12, 14), "s-graph", "S", opts.s_pairs, opts.budget)


# ---------------------------------------------------------------------------
# s-structure suite (freeness, incomparability graph, biconvex orders)


def _case_incomparability_iso(case: str, n: int) -> CaseVerdict:
    layout = s_graph_star(n)
    inc = incomparability_graph(layout.graph, set(layout.zone_vertices("B")))
    want = permutation_graph(star_perm_S(n))
    if are_isomorphic(inc, want):
        return _ok(case)
    witness = make_witness(
        "letter-mismatch", {"expected": _graph_block(want), "decoded": _graph_block(inc)}
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
    specs = [(f"free/S{n}", _case_free, (("s-graph", n), _S_FORBIDDEN, opts.budget)) for n in range(8, 18, 2)]
    specs += [(f"incomparability/iso-n{n}", _case_incomparability_iso, (n,)) for n in (8, 10, 12)]
    specs.append(("incomparability/edges-n8", _case_identity, (_incomparability_edges_n8,)))
    specs += [
        (f"biconvex/order-n{n}", _case_biconvex_proof_order, (n,)) for n in range(8, 18, 2)
    ]
    specs.append(("biconvex/cycle6-none", _case_biconvex_cycle6, ()))
    return specs


# ---------------------------------------------------------------------------
# exhaustive lemma suites

Violation = tuple[str, str, dict[str, tuple[int, ...]]]  # note, witness kind, id sections


@dataclass(frozen=True)
class Lemma:
    """A claim over every connected bipartite graph free of ``forbidden``
    that contains ``required`` (when given): its universe.

    ``claim(g, b)`` yields the claim's violations on a member ``g`` with
    bipartition ``b``; ``witnesses`` maps each witness kind it yields to the
    names of its id sections; ``members`` names the members in a chunk's note.
    """

    forbidden: tuple[Spec, ...]
    required: Spec | None
    claim: Callable[[Graph, Bipartition], Iterator[Violation]]
    witnesses: dict[str, tuple[str, ...]]
    members: str


def _path_chords(g: Graph, seq: tuple[int, ...]) -> list[tuple[int, int]]:
    out = []
    for i in range(len(seq)):
        for j in range(i + 2, len(seq)):
            if g.has_edge(seq[i], seq[j]):
                out.append((i + 1, j + 1))
    return out


def _seven_vertex_paths(g: Graph):
    adj = g.adj

    def extend(seq: list[int], visited: int):
        if len(seq) == 7:
            if seq[0] < seq[-1]:
                yield tuple(seq)
            return
        rest = adj[seq[-1] - 1] & ~visited
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length()
            seq.append(v)
            yield from extend(seq, visited | low)
            seq.pop()

    for s in range(1, g.n + 1):
        yield from extend([s], 1 << (s - 1))


def _no_p9_one_chord(g: Graph, b: Bipartition) -> Iterator[Violation]:
    if has_path_subgraph(g, 9):
        yield "(P7,C4)-free graph with a 9-vertex path", "graph-p9", {}
    for seq in _seven_vertex_paths(g):
        ch = _path_chords(g, seq)
        if len(ch) != 1 or ch[0] not in ((1, 6), (2, 7)):
            yield f"7-path {seq} has chords {ch}", "graph-chords", {"path": seq}


def _complete_bipartite(g: Graph, b: Bipartition) -> Iterator[Violation]:
    if g.edge_count != len(b.part_a) * len(b.part_b):
        yield "graph with C4 is not complete bipartite", "graph-not-complete-bipartite", {}


def _decomposes(g: Graph, b: Bipartition) -> Iterator[Violation]:
    tree = decompose(g, b)
    if tree is None or recompose(tree) != g:
        yield "class member fails to decompose", "graph-no-decomposition", {}


# suite name -> lemma; forbidden patterns are listed cheapest rejection first
LEMMAS = {
    "lemma-key": Lemma(
        forbidden=(("cycle", 4), ("path", 7)),
        required=None,
        claim=_no_p9_one_chord,
        witnesses={"graph-p9": (), "graph-chords": ("path",)},
        members="in universe",
    ),
    "lemma-reduction": Lemma(
        forbidden=(("sun1",), ("path", 7)),
        required=("cycle", 4),
        claim=_complete_bipartite,
        witnesses={"graph-not-complete-bipartite": ()},
        members="with C4 in universe",
    ),
    "closure": Lemma(
        forbidden=(("s123",), ("path", 7)),
        required=None,
        claim=_decomposes,
        witnesses={"graph-no-decomposition": ()},
        members="in class",
    ),
}
_LEMMA_OF_KIND = {kind: suite for suite, lemma in LEMMAS.items() for kind in lemma.witnesses}


def _universe(lemma: Lemma) -> tuple[list[Graph], Graph | None]:
    required = _graph(lemma.required) if lemma.required else None
    return [_graph(spec) for spec in lemma.forbidden], required


def _member(g: Graph, forbidden: list[Graph], required: Graph | None) -> Bipartition | None:
    """``g``'s bipartition when ``g`` is in the universe, else None."""
    if any(find_induced_embedding(h, g) is not None for h in forbidden):
        return None
    if required is not None and find_induced_embedding(required, g) is None:
        return None
    b = find_bipartition(g)
    return b if b is not None and is_connected(g) else None


def _lemma_witness(kind: str, g: Graph, ids: dict[str, tuple[int, ...]]) -> str:
    sections = {"graph": _graph_block(g)}
    sections.update((name, " ".join(map(str, seq))) for name, seq in ids.items())
    return make_witness(kind, sections)


def _case_lemma_chunk(case: str, suite: str, size: int, members: list[Graph]) -> CaseVerdict:
    """Check the suite's lemma on ``members``, the universe's members among a
    chunk of ``size`` graphs of one connected level."""
    lemma = LEMMAS[suite]
    for g in members:
        for note, kind, ids in lemma.claim(g, find_bipartition(g)):
            return _fail(case, note, _lemma_witness(kind, g, ids))
    return _ok(case, f"{size} graphs, {len(members)} {lemma.members}")


def _case_spot(case: str, suite: str, spec: Spec, embeds: tuple[bool, ...]) -> CaseVerdict:
    """A named graph embeds exactly the universe patterns (forbidden, then
    required) that ``embeds`` says, and satisfies the claim when a member."""
    lemma = LEMMAS[suite]
    forbidden, required = _universe(lemma)
    g = _graph(spec)
    patterns = forbidden + ([required] if required else [])
    got = tuple(find_induced_embedding(h, g) is not None for h in patterns)
    if got != embeds:
        return _fail(case, f"universe patterns embed as {got}, expected {embeds}")
    # ``got`` already answers the searches ``_member`` would run again
    in_universe = not any(got[: len(forbidden)]) and all(got[len(forbidden) :]) and is_connected(g)
    b = find_bipartition(g) if in_universe else None
    for note, kind, ids in lemma.claim(g, b) if b is not None else ():
        return _fail(case, note, _lemma_witness(kind, g, ids))
    return _ok(case)


# graphs per exhaustive case: one case name per chunk, such as ``n10/part02``;
# chunks slice the full level, members or not, so case names stay fixed
_CHUNK = 2000


def _exhaustive(suite: str, n_min: int, n_max: int) -> list:
    """One ``_case_lemma_chunk`` spec per chunk of levels n_min..n_max, each
    with its members, decided by the parent rule of the module docstring."""
    forbidden, required = _universe(LEMMAS[suite])
    free = {()}  # rows of the free representatives one level down; () is level 0
    specs = []
    for n in range(1, n_max + 1):
        level = bipartite_level(n)
        free = {
            g.adj
            for g in level
            if parent_rows(g) in free and not any(find_induced_embedding(h, g) is not None for h in forbidden)
        }
        if n < n_min:
            continue
        for idx, start in enumerate(range(0, len(level), _CHUNK)):
            part = level[start : start + _CHUNK]
            members = [
                g
                for g in part
                if g.adj in free and (required is None or find_induced_embedding(required, g) is not None)
            ]
            specs.append((f"exhaustive/n{n}/part{idx:02d}", _case_lemma_chunk, (suite, len(part), members)))
    return specs


def _case_calibration(case: str, n: int) -> CaseVerdict:
    want = brute_force_bipartite_counts(n)
    connected = [len(bipartite_level(k)) for k in range(1, n + 1)]
    got = (euler_transform(connected)[-1], connected[-1])
    if got == want:
        return _ok(case, f"all={got[0]} connected={got[1]}")
    return _fail(case, f"counts {got} != brute force {want}", _value_witness(str(want), str(got)))


def _suite_lemma_key(opts: SuiteOptions) -> list:
    specs = [(f"calibration/n{n}", _case_calibration, (n,)) for n in range(1, 7)]
    # universe patterns: C4, P7; cycle(8) is C4-free yet contains an induced P7
    specs.append(("spot/s123", _case_spot, ("lemma-key", ("s123",), (False, False))))
    specs.append(("spot/cycle8", _case_spot, ("lemma-key", ("cycle", 8), (False, True))))
    return specs + _exhaustive("lemma-key", 9, opts.lemma_key_max)


def _suite_lemma_reduction(opts: SuiteOptions) -> list:
    # universe patterns: Sun1, P7, then the required C4
    specs = [
        ("spot/k33", _case_spot, ("lemma-reduction", ("kab", 3, 3), (False, False, True))),
        ("spot/sun1", _case_spot, ("lemma-reduction", ("sun1",), (True, False, True))),
    ]
    return specs + _exhaustive("lemma-reduction", 4, opts.lemma_reduction_max)


# ---------------------------------------------------------------------------
# closure suite


def random_leaf_tree(rng: random.Random, max_depth: int = 6, max_leaves: int = 12) -> DecompositionTree:
    """Random build tree over single-vertex leaves with fresh ids 1..n."""

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


def _case_closure_random_trees(case: str, count: int, seed: int) -> CaseVerdict:
    rng = random.Random(seed)
    forbidden, _ = _universe(LEMMAS["closure"])
    for idx in range(count):
        tree = random_leaf_tree(rng)
        g = recompose(tree)
        result = is_free(g, forbidden)
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
        ("random-trees/300", _case_closure_random_trees, (300, 20250808)),
    ]
    return specs + _exhaustive("closure", 1, 10)


# ---------------------------------------------------------------------------
# universality suite (grids, letters, permutation-graph embeddings)


def grid_permutation(k: int, m: int) -> tuple[Permutation, dict[int, int]]:
    """Permutation realizing the k-by-m grid, plus the vertex-to-value map.

    Construction: orient grid edges from the odd row to the even row (no
    directed two-step paths, hence transitive), orient non-edges toward the
    higher column inside a row, toward the higher row otherwise.  Both unions
    are acyclic tournaments; their two linear orders give each vertex its
    value and its position, and crossings reproduce exactly the grid edges.
    """
    g, _ = universal_grid(k, m)
    n = g.n

    def rowcol(v: int) -> tuple[int, int]:
        return (v - 1) // m + 1, (v - 1) % m + 1

    edge_forward = [[False] * (n + 1) for _ in range(n + 1)]
    non_forward = [[False] * (n + 1) for _ in range(n + 1)]
    for u in range(1, n + 1):
        ru, cu = rowcol(u)
        for v in range(u + 1, n + 1):
            rv, cv = rowcol(v)
            if g.has_edge(u, v):
                if ru % 2 == 1 and rv % 2 == 0:
                    edge_forward[u][v] = True
                else:
                    edge_forward[v][u] = True
            else:
                if ru == rv:
                    first = u if cu < cv else v
                else:
                    first = u if ru < rv else v
                non_forward[first][u + v - first] = True

    def total_order(edge_dir) -> dict[int, int]:
        indeg = [0] * (n + 1)
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and (edge_dir[u][v] or non_forward[u][v]):
                    indeg[v] += 1
        ranks = sorted(range(1, n + 1), key=lambda v: indeg[v])
        if sorted(indeg[1:]) != list(range(n)):
            raise AssertionError("orientation did not produce a total order")
        return {v: i + 1 for i, v in enumerate(ranks)}

    value = total_order(edge_forward)
    reverse = [[edge_forward[v][u] for v in range(n + 1)] for u in range(n + 1)]
    position = total_order(reverse)
    oneline = [0] * n
    for v in range(1, n + 1):
        oneline[position[v] - 1] = value[v]
    return Permutation(tuple(oneline)), value


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
    if m > 3:
        raise ValueError("brute search is guarded to m <= 3")
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
            decoded = decode_letter(rep)
            if decoded != expected or not verify_letter(rep, expected):
                witness = make_witness(
                    "letter-mismatch",
                    {"expected": _graph_block(expected), "decoded": _graph_block(decoded)},
                )
                return _fail(case, f"grid {k}x{m} decode mismatch", witness)
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
            witness = make_witness(
                "value-mismatch",
                {"expected": f"embedding of {p} into {m}x{m} grid", "actual": "none"},
            )
            return _fail(case, f"{p} does not embed into the {m}x{m} grid", witness)
        lifted = _grid_inclusion(emb, m, 6)
        if not verify_embedding(lifted, gp, big):
            return _fail(case, f"inclusion lift failed for {p}")
    return _ok(case, f"{bipartite} bipartite graphs of {total} permutations")


def _case_row_occupancy(case: str, m_max: int, budget: int | None) -> CaseVerdict:
    checked = 0
    for m in range(2, m_max + 1):
        for p in itertools.permutations(range(1, m + 1)):
            gp = permutation_graph(Permutation(p))
            if find_bipartition(gp) is None or not is_connected(gp):
                continue
            longest = max(
                j for j in range(1, m + 1) if find_induced_embedding(path(j), gp) is not None
            )
            rows = min(longest + 1, m)
            host, _ = universal_grid(rows, m)
            if find_induced_embedding(gp, host, budget=budget) is None:
                witness = make_witness(
                    "value-mismatch",
                    {"expected": f"{p} inside {rows} rows", "actual": "no embedding"},
                )
                return _fail(case, f"{p} needs more than {rows} rows", witness)
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

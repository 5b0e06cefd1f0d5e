"""Named verification suites over the library: each suite is a deterministic
list of cases producing ok / FAIL / UNDECIDED verdicts, where every FAIL
carries a witness text that re-verifies on its own through
:func:`reverify_witness`.

Budget exhaustion in any exact search is reported as UNDECIDED, never as a
pass or a silent none.  Cases are independent, so a worker pool may run them
in any order; verdicts are aggregated in case order and are identical for any
worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import time
from dataclasses import dataclass

from ..graphs import (
    Graph,
    find_bipartition,
    is_connected,
    parse_graph,
    serialize_graph,
)
from ..matching import (
    Embedding,
    StepBudgetExceeded,
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
    complete_bipartite,
    cycle,
    h_antichain,
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
from .enumeration import bipartite_level, brute_force_bipartite_counts

SUITE_NAMES = (
    "identities",
    "t-free",
    "t-antichain",
    "s-structure",
    "s-antichain",
    "lemma-key",
    "lemma-reduction",
    "universality",
    "closure",
)

DEFAULT_BUDGET = 10**9


@dataclass
class CaseVerdict:
    case: str
    status: str  # "ok" | "FAIL" | "UNDECIDED"
    note: str = ""
    witness_text: str | None = None
    witness_file: str | None = None


@dataclass
class SuiteReport:
    suite: str
    verdicts: list[CaseVerdict]
    seconds: float = 0.0

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
        }


@dataclass(frozen=True)
class SuiteOptions:
    budget: int | None = DEFAULT_BUDGET
    lemma_key_max: int = 11
    lemma_reduction_max: int = 10
    t_pairs: tuple[tuple[int, int], ...] = ((6, 8),)
    s_pairs: tuple[tuple[int, int], ...] = ((8, 10),)
    workers: int = 1
    chunk: int = 2000


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
    sections: dict[str, str] = {}
    name = None
    buf: list[str] = []
    for line in lines[1:]:
        if line.startswith("@"):
            if name is not None:
                sections[name] = "\n".join(buf)
            name = line[1:].strip()
            buf = []
        else:
            buf.append(line)
    if name is not None:
        sections[name] = "\n".join(buf)
    return kind, sections


def reverify_witness(text: str) -> bool:
    """Re-check a failure witness through the module that produced it."""
    kind, sec = _split_witness(text)

    def need(name: str) -> str:
        if name not in sec:
            raise ValueError(f"witness kind {kind!r} lacks section @{name}")
        return sec[name]

    if kind == "embedding":
        pattern, _ = parse_graph(need("pattern"))
        host, _ = parse_graph(need("host"))
        mapping = tuple(int(tok) for tok in need("map").split())
        return verify_embedding(Embedding(mapping), pattern, host)
    if kind == "perm-contain":
        host = parse_permutation(need("host"))
        pat = parse_permutation(need("pattern"))
        return contains_pattern(host, pat)
    if kind == "graph-p9":
        g, _ = parse_graph(need("graph"))
        free = is_free(g, [path(7), cycle(4)]).free
        return free and has_path_subgraph(g, 9)
    if kind == "graph-chords":
        g, _ = parse_graph(need("graph"))
        seq = tuple(int(tok) for tok in need("path").split())
        if len(seq) != 7 or len(set(seq)) != 7:
            return False
        if not all(g.has_edge(seq[i], seq[i + 1]) for i in range(6)):
            return False
        ch = _path_chords(g, seq)
        return not (len(ch) == 1 and ch[0] in ((1, 6), (2, 7)))
    if kind == "graph-not-complete-bipartite":
        g, _ = parse_graph(need("graph"))
        if not is_free(g, [path(7), sun1()]).free:
            return False
        if find_induced_embedding(cycle(4), g) is None:
            return False
        b = find_bipartition(g)
        return b is None or g.edge_count != len(b.part_a) * len(b.part_b)
    if kind == "graph-no-decomposition":
        g, b = parse_graph(need("graph"))
        if not is_free(g, [path(7), s123()]).free:
            return False
        if b is None:
            b = find_bipartition(g)
        return decompose(g, b) is None
    if kind == "tree-not-free":
        tree = parse_tree(need("tree"))
        g = recompose(tree)
        return not is_free(g, [path(7), s123()]).free
    if kind == "biconvex-orders-found":
        g, b = parse_graph(need("graph"))
        order_a = tuple(int(tok) for tok in need("order_a").split())
        order_b = tuple(int(tok) for tok in need("order_b").split())
        return verify_biconvex_order(g, b, order_a, order_b)
    if kind == "biconvex-orders-rejected":
        g, b = parse_graph(need("graph"))
        order_a = tuple(int(tok) for tok in need("order_a").split())
        order_b = tuple(int(tok) for tok in need("order_b").split())
        return not verify_biconvex_order(g, b, order_a, order_b)
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


# ---------------------------------------------------------------------------
# case machinery


def _ok(case: str, note: str = "") -> CaseVerdict:
    return CaseVerdict(case, "ok", note)


def _fail(case: str, note: str, witness: str | None = None) -> CaseVerdict:
    return CaseVerdict(case, "FAIL", note, witness_text=witness)


def _undecided(case: str, note: str) -> CaseVerdict:
    return CaseVerdict(case, "UNDECIDED", note)


def _exec_spec(spec) -> CaseVerdict:
    case, fn, args = spec
    try:
        return fn(case, *args)
    except StepBudgetExceeded:
        return _undecided(case, "step budget exhausted")


def _run_cases(specs: list, workers: int) -> list[CaseVerdict]:
    if workers <= 1:
        return [_exec_spec(spec) for spec in specs]
    with multiprocessing.Pool(workers) as pool:
        return list(pool.imap(_exec_spec, specs, chunksize=1))


# ---------------------------------------------------------------------------
# identities suite (generator fidelity, composition, convexity, involution)

_PRINTED = {
    "star-t-6": ((4, 2, 6, 1, 5, 3), lambda: star_perm_T(6)),
    "star-t-8": ((4, 2, 6, 1, 8, 3, 7, 5), lambda: star_perm_T(8)),
    "star-t-10": ((4, 2, 6, 1, 8, 3, 10, 5, 9, 7), lambda: star_perm_T(10)),
    "star-s-8": ((2, 3, 5, 1, 8, 4, 7, 6), lambda: star_perm_S(8)),
    "star-s-10": ((2, 3, 5, 1, 7, 4, 10, 6, 9, 8), lambda: star_perm_S(10)),
    "star-s-12": ((2, 3, 5, 1, 7, 4, 9, 6, 12, 8, 11, 10), lambda: star_perm_S(12)),
    "rho-10": ((1, 2, 3, 5, 7, 9, 10, 8, 6, 4), lambda: rho_star(10)),
    "mu-10": ((2, 3, 5, 7, 10, 9, 8, 6, 4, 1), lambda: mu_star(10)),
}


def _value_witness(expected: str, actual: str) -> str:
    return make_witness("value-mismatch", {"expected": expected, "actual": actual})


def _case_printed(case: str, key: str) -> CaseVerdict:
    expected, builder = _PRINTED[key]
    got = builder().oneline
    if got == expected:
        return _ok(case)
    return _fail(case, f"got {got}", _value_witness(str(expected), str(got)))


def _case_involution(case: str, n: int) -> CaseVerdict:
    p = star_perm_T(n)
    q = inverse(p)
    if q == p:
        return _ok(case)
    return _fail(case, "not an involution", _value_witness(format_permutation(p), format_permutation(q)))


def _case_convex(case: str, n: int) -> CaseVerdict:
    for tag, p in (("rho", rho_star(n)), ("mu", mu_star(n))):
        if not is_convex(p):
            return _fail(case, f"{tag} not convex", _value_witness("convex", format_permutation(p)))
    return _ok(case)


def _case_compose(case: str, n: int) -> CaseVerdict:
    got = compose(mu_star(n), inverse(rho_star(n)))
    want = star_perm_S(n)
    if got == want:
        return _ok(case)
    return _fail(case, "composition mismatch", _value_witness(format_permutation(want), format_permutation(got)))


def _case_compose_eval(case: str) -> CaseVerdict:
    got = compose(mu_star(10), inverse(rho_star(10)))(3)
    if got == 5:
        return _ok(case)
    return _fail(case, f"value at 3 is {got}", _value_witness("5", str(got)))


def _suite_identities(opts: SuiteOptions) -> list:
    specs = [(f"printed/{key}", _case_printed, (key,)) for key in _PRINTED]
    specs.append(("compose/eval-n10-at-3", _case_compose_eval, ()))
    specs += [(f"involution/n{n}", _case_involution, (n,)) for n in range(6, 42, 2)]
    specs += [(f"convex/n{n}", _case_convex, (n,)) for n in range(8, 42, 2)]
    specs += [(f"compose/n{n}", _case_compose, (n,)) for n in range(8, 42, 2)]
    return specs


# ---------------------------------------------------------------------------
# freeness suites


def _case_t_free(case: str, n: int, budget: int | None) -> CaseVerdict:
    g = t_graph_star(n).graph
    forbidden = [two_p3(), sun4()]
    result = is_free(g, forbidden, budget=budget)
    if result.free:
        return _ok(case)
    pat = forbidden[result.pattern_index]
    return _fail(case, "forbidden pattern embeds", _embedding_witness(pat, g, result.witness))


def _suite_t_free(opts: SuiteOptions) -> list:
    return [(f"free/T{n}", _case_t_free, (n, opts.budget)) for n in range(6, 16, 2)]


def _case_s_free(case: str, n: int, budget: int | None) -> CaseVerdict:
    g = s_graph_star(n).graph
    forbidden = [path(8), p_tilde(8)]
    result = is_free(g, forbidden, budget=budget)
    if result.free:
        return _ok(case)
    pat = forbidden[result.pattern_index]
    return _fail(case, "forbidden pattern embeds", _embedding_witness(pat, g, result.witness))


# ---------------------------------------------------------------------------
# antichain suites

_FAMILY_GRAPH = {
    "T": lambda i: t_graph_star(i).graph,
    "S": lambda i: s_graph_star(i).graph,
    "H": h_antichain,
}
_FAMILY_PERM = {"permT": star_perm_T, "permS": star_perm_S}


def _case_perm_pair(case: str, family: str, i: int, j: int) -> CaseVerdict:
    gen = _FAMILY_PERM[family]
    pat, host = gen(i), gen(j)
    if not contains_pattern(host, pat):
        return _ok(case)
    witness = make_witness(
        "perm-contain",
        {"host": format_permutation(host), "pattern": format_permutation(pat)},
    )
    return _fail(case, "pattern contained", witness)


def _case_graph_pair(case: str, family: str, i: int, j: int, budget: int | None) -> CaseVerdict:
    gen = _FAMILY_GRAPH[family]
    pat, host = gen(i), gen(j)
    emb = find_induced_embedding(pat, host, budget=budget)
    if emb is None:
        return _ok(case)
    return _fail(case, "member embeds", _embedding_witness(pat, host, emb))


def antichain_check(
    family: str, indices: list[int], *, budget: int | None = DEFAULT_BUDGET, workers: int = 1
) -> SuiteReport:
    """Pairwise non-containment over every ordered pair of family members."""
    if family in _FAMILY_PERM:
        specs = [
            (f"{family}/{i}-into-{j}", _case_perm_pair, (family, i, j))
            for i in indices
            for j in indices
            if i != j
        ]
    elif family in _FAMILY_GRAPH:
        specs = [
            (f"{family}/{i}-into-{j}", _case_graph_pair, (family, i, j, budget))
            for i in indices
            for j in indices
            if i != j
        ]
    else:
        raise ValueError(f"unknown family {family!r}")
    start = time.perf_counter()
    verdicts = _run_cases(specs, workers)
    return SuiteReport(f"antichain-{family}", verdicts, time.perf_counter() - start)


def _suite_t_antichain(opts: SuiteOptions) -> list:
    idxs = (6, 8, 10, 12)
    specs = [
        (f"perm/{i}-into-{j}", _case_perm_pair, ("permT", i, j))
        for i in idxs
        for j in idxs
        if i != j
    ]
    for i, j in opts.t_pairs:
        specs.append((f"graph/T{i}-into-T{j}", _case_graph_pair, ("T", i, j, opts.budget)))
        specs.append((f"graph/T{j}-into-T{i}", _case_graph_pair, ("T", j, i, opts.budget)))
    return specs


def _suite_s_antichain(opts: SuiteOptions) -> list:
    idxs = (8, 10, 12, 14)
    specs = [
        (f"perm/{i}-into-{j}", _case_perm_pair, ("permS", i, j))
        for i in idxs
        for j in idxs
        if i != j
    ]
    for i, j in opts.s_pairs:
        specs.append((f"graph/S{i}-into-S{j}", _case_graph_pair, ("S", i, j, opts.budget)))
        specs.append((f"graph/S{j}-into-S{i}", _case_graph_pair, ("S", j, i, opts.budget)))
    return specs


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


def _case_incomparability_edges(case: str) -> CaseVerdict:
    layout = s_graph_star(8)
    inc = incomparability_graph(layout.graph, set(layout.zone_vertices("B")))
    want = {(1, 8), (2, 8), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 6)}
    got = set(inc.edges())
    if got == want:
        return _ok(case)
    return _fail(case, f"edge set {sorted(got)}", _value_witness(str(sorted(want)), str(sorted(got))))


def proof_biconvex_orders(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The explicit order pair for the three-zone graphs: the A-zone reversed
    then the C-zone (largest neighbourhoods meet in the middle), B natural."""
    layout = s_graph_star(n)
    order_ac = tuple(reversed(layout.zone_vertices("A"))) + layout.zone_vertices("C")
    order_b = layout.zone_vertices("B")
    return order_ac, order_b


def _case_biconvex_proof_order(case: str, n: int) -> CaseVerdict:
    layout = s_graph_star(n)
    order_ac, order_b = proof_biconvex_orders(n)
    if verify_biconvex_order(layout.graph, layout.bipartition, order_ac, order_b):
        return _ok(case)
    witness = make_witness(
        "biconvex-orders-rejected",
        {
            "graph": serialize_graph(layout.graph, layout.bipartition).rstrip("\n"),
            "order_a": " ".join(map(str, order_ac)),
            "order_b": " ".join(map(str, order_b)),
        },
    )
    return _fail(case, "explicit order rejected", witness)


def _case_biconvex_cycle6(case: str) -> CaseVerdict:
    g = cycle(6)
    b = find_bipartition(g)
    found = find_biconvex_order(g, b)
    if found is None:
        return _ok(case)
    order_a, order_b = found
    witness = make_witness(
        "biconvex-orders-found",
        {
            "graph": serialize_graph(g, b).rstrip("\n"),
            "order_a": " ".join(map(str, order_a)),
            "order_b": " ".join(map(str, order_b)),
        },
    )
    return _fail(case, "unexpected biconvex order", witness)


def _suite_s_structure(opts: SuiteOptions) -> list:
    specs = [(f"free/S{n}", _case_s_free, (n, opts.budget)) for n in range(8, 18, 2)]
    specs += [(f"incomparability/iso-n{n}", _case_incomparability_iso, (n,)) for n in (8, 10, 12)]
    specs.append(("incomparability/edges-n8", _case_incomparability_edges, ()))
    specs += [
        (f"biconvex/order-n{n}", _case_biconvex_proof_order, (n,)) for n in range(8, 18, 2)
    ]
    specs.append(("biconvex/cycle6-none", _case_biconvex_cycle6, ()))
    return specs


# ---------------------------------------------------------------------------
# exhaustive lemma suites


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


def _case_calibration(case: str, n: int) -> CaseVerdict:
    want = brute_force_bipartite_counts(n)
    got = (len(bipartite_level(n, False)), len(bipartite_level(n, True)))
    if got == want:
        return _ok(case, f"all={got[0]} connected={got[1]}")
    return _fail(case, f"counts {got} != brute force {want}", _value_witness(str(want), str(got)))


def _case_lemma_key_spot_s123(case: str) -> CaseVerdict:
    g = s123()
    if not is_free(g, [path(7), cycle(4)]).free:
        return _fail(case, "spot graph not in the universe")
    if has_path_subgraph(g, 9):
        return _fail(case, "unexpected 9-vertex path", make_witness("graph-p9", {"graph": _graph_block(g)}))
    return _ok(case)


def _case_lemma_key_spot_cycle8(case: str) -> CaseVerdict:
    g = cycle(8)
    # the universe filter must exclude it: it is C4-free yet contains an induced P7
    if find_induced_embedding(cycle(4), g) is not None:
        return _fail(case, "cycle(8) should be C4-free")
    if find_induced_embedding(path(7), g) is None:
        return _fail(case, "cycle(8) should contain an induced P7")
    return _ok(case)


def _case_lemma_key_chunk(case: str, graphs: list[Graph]) -> CaseVerdict:
    p7, c4 = path(7), cycle(4)
    free_count = 0
    for g in graphs:
        if find_induced_embedding(c4, g) is not None:
            continue
        if find_induced_embedding(p7, g) is not None:
            continue
        free_count += 1
        if has_path_subgraph(g, 9):
            return _fail(
                case,
                "(P7,C4)-free graph with a 9-vertex path",
                make_witness("graph-p9", {"graph": _graph_block(g)}),
            )
        for seq in _seven_vertex_paths(g):
            ch = _path_chords(g, seq)
            if len(ch) != 1 or ch[0] not in ((1, 6), (2, 7)):
                return _fail(
                    case,
                    f"7-path {seq} has chords {ch}",
                    make_witness(
                        "graph-chords",
                        {"graph": _graph_block(g), "path": " ".join(map(str, seq))},
                    ),
                )
    return _ok(case, f"{len(graphs)} graphs, {free_count} in universe")


def _chunked(graphs: list[Graph], size: int) -> list[list[Graph]]:
    return [graphs[i : i + size] for i in range(0, len(graphs), size)]


def _suite_lemma_key(opts: SuiteOptions) -> list:
    if not (9 <= opts.lemma_key_max <= 12):
        raise ValueError("lemma-key range must end between 9 and 12")
    specs = [(f"calibration/n{n}", _case_calibration, (n,)) for n in range(1, 7)]
    specs.append(("spot/s123", _case_lemma_key_spot_s123, ()))
    specs.append(("spot/cycle8", _case_lemma_key_spot_cycle8, ()))
    for n in range(9, opts.lemma_key_max + 1):
        chunks = _chunked(bipartite_level(n, True), opts.chunk)
        for idx, chunk in enumerate(chunks):
            specs.append((f"exhaustive/n{n}/part{idx:02d}", _case_lemma_key_chunk, (chunk,)))
    return specs


def _case_reduction_spot_k33(case: str) -> CaseVerdict:
    g = complete_bipartite(3, 3)
    if not is_free(g, [path(7), sun1()]).free:
        return _fail(case, "K33 should be in the universe")
    if find_induced_embedding(cycle(4), g) is None:
        return _fail(case, "K33 should contain a C4")
    b = find_bipartition(g)
    if g.edge_count != len(b.part_a) * len(b.part_b):
        return _fail(case, "K33 should be complete bipartite")
    return _ok(case)


def _case_reduction_spot_sun1(case: str) -> CaseVerdict:
    g = sun1()
    if find_induced_embedding(cycle(4), g) is None:
        return _fail(case, "sun1 should contain a C4")
    if is_free(g, [sun1()]).free:
        return _fail(case, "sun1 should be excluded from the universe")
    return _ok(case)


def _case_reduction_chunk(case: str, graphs: list[Graph]) -> CaseVerdict:
    p7, s1, c4 = path(7), sun1(), cycle(4)
    hits = 0
    for g in graphs:
        if find_induced_embedding(p7, g) is not None:
            continue
        if find_induced_embedding(s1, g) is not None:
            continue
        if find_induced_embedding(c4, g) is None:
            continue
        hits += 1
        b = find_bipartition(g)
        if g.edge_count != len(b.part_a) * len(b.part_b):
            return _fail(
                case,
                "graph with C4 is not complete bipartite",
                make_witness("graph-not-complete-bipartite", {"graph": _graph_block(g)}),
            )
    return _ok(case, f"{len(graphs)} graphs, {hits} with C4 in universe")


def _suite_lemma_reduction(opts: SuiteOptions) -> list:
    if not (4 <= opts.lemma_reduction_max <= 12):
        raise ValueError("lemma-reduction range must end between 4 and 12")
    specs = [
        ("spot/k33", _case_reduction_spot_k33, ()),
        ("spot/sun1", _case_reduction_spot_sun1, ()),
    ]
    for n in range(4, opts.lemma_reduction_max + 1):
        chunks = _chunked(bipartite_level(n, True), opts.chunk)
        for idx, chunk in enumerate(chunks):
            specs.append((f"exhaustive/n{n}/part{idx:02d}", _case_reduction_chunk, (chunk,)))
    return specs


# ---------------------------------------------------------------------------
# closure suite


def random_leaf_tree(rng: random.Random, max_depth: int = 6, max_leaves: int = 12) -> DecompositionTree:
    """Random build tree over single-vertex leaves with fresh ids 1..n."""

    def shape(depth: int) -> list:
        if depth >= max_depth or rng.random() < 0.3:
            return ["leaf"]
        kind = rng.choice(["union", "join", "skew"])
        return [kind, shape(depth + 1), shape(depth + 1)]

    def count_leaves(s) -> int:
        if s[0] == "leaf":
            return 1
        return count_leaves(s[1]) + count_leaves(s[2])

    s = shape(0)
    while count_leaves(s) > max_leaves:
        s = shape(0)

    counter = itertools.count(1)

    def build(s) -> DecompositionTree:
        if s[0] == "leaf":
            v = next(counter)
            if rng.random() < 0.5:
                return DecompositionTree("leaf", (v,), ())
            return DecompositionTree("leaf", (), (v,))
        left = build(s[1])
        right = build(s[2])
        return DecompositionTree(
            s[0],
            tuple(sorted(left.part_x + right.part_x)),
            tuple(sorted(left.part_y + right.part_y)),
            left,
            right,
        )

    return build(s)


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
    forbidden = [path(7), s123()]
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


def _case_closure_chunk(case: str, graphs: list[Graph]) -> CaseVerdict:
    p7, s = path(7), s123()
    members = 0
    for g in graphs:
        if find_induced_embedding(p7, g) is not None:
            continue
        if find_induced_embedding(s, g) is not None:
            continue
        members += 1
        b = find_bipartition(g)
        tree = decompose(g, b)
        if tree is None or recompose(tree) != g:
            return _fail(
                case,
                "class member fails to decompose",
                make_witness(
                    "graph-no-decomposition", {"graph": serialize_graph(g, b).rstrip("\n")}
                ),
            )
    return _ok(case, f"{len(graphs)} graphs, {members} in class")


def _suite_closure(opts: SuiteOptions) -> list:
    specs = [
        ("decompose/path7-none", _case_closure_path7, ()),
        ("random-trees/300", _case_closure_random_trees, (300, 20250808)),
    ]
    for n in range(1, 11):
        chunks = _chunked(bipartite_level(n, True), opts.chunk)
        for idx, chunk in enumerate(chunks):
            specs.append((f"exhaustive/n{n}/part{idx:02d}", _case_closure_chunk, (chunk,)))
    return specs


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


def brute_grid_permutation(m: int) -> Permutation | None:
    """Search for a permutation of size m*m realizing the m-by-m grid.

    Exact DFS over one-line prefixes with inversion-count pruning; guarded to
    m <= 3 (the search space is factorial in m*m).
    """
    if m > 3:
        raise ValueError("brute search is guarded to m <= 3")
    g, _ = universal_grid(m, m)
    target = g.edge_count
    n = m * m
    degs = sorted(g.adj[i].bit_count() for i in range(n))
    total_pairs = n * (n - 1) // 2
    hit: list[Permutation] = []

    def rec(prefix: list[int], remaining: set[int], inv: int) -> None:
        if hit:
            return
        p = len(prefix)
        max_future = total_pairs - p * (p - 1) // 2
        if inv > target or inv + max_future < target:
            return
        if not remaining:
            cand = Permutation(tuple(prefix))
            pg = permutation_graph(cand)
            if sorted(pg.adj[i].bit_count() for i in range(n)) == degs and are_isomorphic(pg, g):
                hit.append(cand)
            return
        for v in sorted(remaining):
            bigger = sum(1 for u in prefix if u > v)
            rec(prefix + [v], remaining - {v}, inv + bigger)
            if hit:
                return

    rec([], set(range(1, n + 1)), 0)
    return hit[0] if hit else None


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

_SUITE_BUILDERS = {
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


def run_suite(name: str, opts: SuiteOptions | None = None) -> SuiteReport:
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    opts = opts or SuiteOptions()
    start = time.perf_counter()
    specs = _SUITE_BUILDERS[name](opts)
    verdicts = _run_cases(specs, opts.workers)
    return SuiteReport(name, verdicts, time.perf_counter() - start)

"""The four benchmark workloads.

Each workload drives bipkit through its public functions only.  A workload
has a set-up (timed, reported as ``setup_s``), an untimed ``prepare`` step
that computes oracle answers, a pass (the timed body, repeated), and a
``check`` that compares one pass's outputs with the oracles outside any
timed region.  Every call into bipkit goes through ``tracer.call`` so that a
traced pass records one span per call; with tracing off the call goes
straight through.

bipkit is imported inside ``setup`` so that this module loads without it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from time import perf_counter

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_VERDICTS = os.path.join(HERE, "verify_verdicts.txt")


class Checks:
    """Oracle comparisons: each ``expect`` is one attempted check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str, *args) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message % args if args else message)


def work_clock(tr) -> float:
    """perf_counter() that stands still while the session's speed probe runs
    (the probe adds its time to ``tr.paused``), for per-unit latencies."""
    return perf_counter() - tr.paused


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, returning its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class State(dict):
    """Set-up products of one session, by name."""

    __getattr__ = dict.__getitem__


# ---------------------------------------------------------------------------


class EnumCold:
    """Connected levels 1..10 built from an empty level cache."""

    name = "enum-cold"
    cold = True  # the level cache is module-global: one pass per interpreter
    throughput_name = "classes_per_s"
    latency_name = None

    def units(self, st):
        return sum(oracles.CONNECTED_BIPARTITE)

    def setup(self, seed, tracer, work_dir):
        from bipkit.harness.enumeration import bipartite_level

        return State(bipartite_level=bipartite_level)

    def prepare(self, st, first):
        pass

    def run_pass(self, st, tr, latencies):
        return [tr.call(f"enumeration.level.n{n}", st.bipartite_level, n, True) for n in range(1, 11)]

    def check(self, st, levels, chk):
        for n, graphs in enumerate(levels, start=1):
            want = oracles.CONNECTED_BIPARTITE[n - 1]
            chk.expect(len(graphs) == want, "n=%d: %d classes, expected %d", n, len(graphs), want)
            bad = sum(1 for g in graphs if not oracles.rows_connected_bipartite(n, g.adj))
            chk.expect(bad == 0, "n=%d: %d graphs are not connected bipartite", n, bad)


# ---------------------------------------------------------------------------


class LemmaSweep:
    """Three lemma checks and decompose over every connected bipartite graph
    on up to 10 vertices, plus seeded random build trees."""

    name = "lemma-sweep"
    cold = False
    throughput_name = "graphs_per_s"
    latency_name = "graph"
    trees = 300

    def setup(self, seed, tracer, work_dir):
        from bipkit.families import cycle, path, s123, sun1
        from bipkit.harness.enumeration import bipartite_level
        from bipkit.harness.suites import random_leaf_tree

        graphs = []
        for n in range(1, 11):
            level = tracer.call(f"enumeration.level.n{n}", bipartite_level, n, True)
            graphs += [(n, g) for g in level]
        rng = random.Random(seed)
        trees = [random_leaf_tree(rng, max_leaves=16) for _ in range(self.trees)]
        return State(graphs=graphs, trees=trees, p7=path(7), c4=cycle(4), sun1=sun1(), s123=s123())

    def prepare(self, st, first):
        pass

    def run_pass(self, st, tr, latencies):
        from bipkit.graphs import Bipartition, find_bipartition
        from bipkit.matching import find_induced_embedding, has_path_subgraph
        from bipkit.structure import decompose, format_tree, parse_tree, recompose

        def tree_text(t):
            return parse_tree(format_tree(t))

        call = tr.call
        p7, c4, sun1, s123 = st.p7, st.c4, st.sun1, st.s123
        out = []
        for n, g in st.graphs:
            t0 = work_clock(tr)
            has_c4 = call("matching.embed_small.c4", find_induced_embedding, c4, g) is not None
            has_p7 = call("matching.embed_small.p7", find_induced_embedding, p7, g) is not None
            p9 = has_sun1 = has_s123 = None
            if not has_c4 and not has_p7:
                p9 = call("matching.path_dfs", has_path_subgraph, g, 9)
            if not has_p7:
                has_sun1 = call("matching.embed_small.sun1", find_induced_embedding, sun1, g) is not None
                has_s123 = call("matching.embed_small.s123", find_induced_embedding, s123, g) is not None
            b = call("graphs.find_bipartition", find_bipartition, g)
            tree = call("structure.decompose", decompose, g, b)
            rebuilt = text = None
            if tree is not None:
                rebuilt = call("structure.recompose", recompose, tree)
                text = call("structure.tree_text", tree_text, tree)
            latencies.append(work_clock(tr) - t0)
            out.append((n, g, has_c4, has_p7, p9, has_sun1, has_s123, b, tree, rebuilt, text))
        tree_out = []
        for t in st.trees:
            t0 = work_clock(tr)
            g = call("structure.recompose", recompose, t)
            found = call("structure.decompose", decompose, g, Bipartition.of(t.part_x, t.part_y))
            rebuilt = text = None
            if found is not None:
                rebuilt = call("structure.recompose", recompose, found)
                text = call("structure.tree_text", tree_text, found)
            latencies.append(work_clock(tr) - t0)
            tree_out.append((g, found, rebuilt, text))
        return out, tree_out

    def check(self, st, outputs, chk):
        out, tree_out = outputs
        universe: dict[int, int] = {}
        hits: dict[int, int] = {}
        members: dict[int, int] = {}
        for n, g, has_c4, has_p7, p9, has_sun1, has_s123, b, tree, rebuilt, text in out:
            if not has_c4 and not has_p7:
                universe[n] = universe.get(n, 0) + 1
                chk.expect(p9 is False, "(P7,C4)-free graph %s has a 9-vertex path", g.adj)
            if not has_p7 and not has_sun1 and has_c4:
                hits[n] = hits.get(n, 0) + 1
                complete = g.edge_count == len(b.part_a) * len(b.part_b)
                chk.expect(complete, "(P7,Sun1)-free graph %s with a C4 is not complete bipartite", g.adj)
            member = not has_p7 and not has_s123
            chk.expect((tree is not None) == member, "decompose(%s) disagrees with (P7,S123)-freeness", g.adj)
            if tree is not None:
                members[n] = members.get(n, 0) + 1
                chk.expect(rebuilt == g, "recompose(decompose(%s)) differs", g.adj)
                chk.expect(text == tree, "tree text round trip differs for %s", g.adj)
        for n in (9, 10):
            want = oracles.P7_C4_UNIVERSE[n]
            chk.expect(universe.get(n, 0) == want, "(P7,C4) universe n=%d: %d, expected %d", n, universe.get(n, 0), want)
        got_hits = {n: hits.get(n, 0) for n in oracles.REDUCTION_HITS}
        chk.expect(got_hits == oracles.REDUCTION_HITS, "reduction hits %s", got_hits)
        got_members = tuple(members.get(n, 0) for n in range(1, 11))
        chk.expect(got_members == oracles.P7_S123_MEMBERS, "(P7,S123) members %s", got_members)
        for g, found, rebuilt, text in tree_out:
            chk.expect(found is not None, "random tree graph %s does not decompose", g.adj)
            if found is not None:
                chk.expect(rebuilt == g, "random tree graph %s recomposes differently", g.adj)
                chk.expect(text == found, "tree text round trip differs for random tree graph %s", g.adj)


# ---------------------------------------------------------------------------

# README examples by name; ``{work}`` is the session's scratch directory.
CLI_EXAMPLES = (
    ("gen-t6", ("gen", "t-graph", "6", "--out", "{work}/t6.graph")),
    ("gen-grid", ("gen", "grid", "5", "5")),
    ("gen-perm-graph", ("gen", "perm-graph", "(4,2,6,1,5,3)")),
    ("perm-star-s", ("perm", "star-s", "12")),
    ("perm-contains", ("perm", "contains", "(2,3,5,1,8,4,7,6)", "(3,1,2)")),
    ("check-free", ("check", "free", "{work}/t6.graph", "--forbid", "two-p3", "sun4")),
    ("embed", ("embed", "path:7", "grid:7,7")),
    ("paths", ("paths", "kab:5,4", "9")),
    ("decompose", ("decompose", "path:6")),
    ("letter", ("letter", "grid", "5", "5", "--verify", "grid:5,5")),
    ("biconvex", ("biconvex", "path:6")),
)


class FamilySearch:
    """The paper's constructions at scale: few, large hosts."""

    name = "family-search"
    cold = False
    throughput_name = "searches_per_s"
    latency_name = "search"
    t_sizes = tuple(range(6, 18, 2))
    s_sizes = tuple(range(8, 20, 2))
    t_pairs = ((6, 8), (8, 10), (10, 12))
    s_pairs = ((8, 10), (10, 12))
    grid_max = 8
    grid_hosts = ((4, 5), (5, 5), (6, 6), (7, 7), (8, 8))
    path_cases = ((4, 5, 9), (4, 5, 12), (5, 5, 9), (5, 5, 12))
    hosts_per_length = 8
    # Length-80 hosts are one fixed draw, not seeded: some random length-80
    # hosts make contains_pattern search for seconds (up to 6.3 s for one
    # size-8 pattern in 20 draws), which would make the pass time depend on
    # the seed.  This draw holds one such host (about 2.5 s of search), so
    # that cost is measured on every run.
    long_host_draw = 7

    def setup(self, seed, tracer, work_dir):
        from bipkit.families import p_tilde, path, sun4, two_p3
        from bipkit.harness.cli import main
        from bipkit.perms import Permutation, mu_star, rho_star, star_perm_S, star_perm_T

        hosts = []
        for length, rng in ((40, random.Random(seed)), (80, random.Random(self.long_host_draw))):
            for _ in range(self.hosts_per_length):
                values = list(range(1, length + 1))
                rng.shuffle(values)
                hosts.append(Permutation(tuple(values)))
        return State(
            work=work_dir,
            cli_main=main,
            cli_argv=[[a.replace("{work}", work_dir) for a in argv] for _, argv in CLI_EXAMPLES],
            t_forbid=[two_p3(), sun4()],
            s_forbid=[path(8), p_tilde(8)],
            p5=path(5),
            p6=path(6),
            perms={m: [Permutation(p) for p in oracles.perms_avoiding_321(m)] for m in (7, 8)},
            perm_hosts=hosts,
            perm_patterns=[star_perm_T(8), star_perm_S(8), rho_star(8), mu_star(8)],
        )

    def prepare(self, st, first):
        """Oracle answers that depend on the seed or on the grids."""
        from bipkit.families import t_graph_star, universal_grid
        from bipkit.graphs import find_bipartition
        from bipkit.perms import Permutation, permutation_graph

        t10 = t_graph_star(10).graph
        g6, _ = universal_grid(6, 6)
        st["count_want"] = [
            oracles.count_induced_paths(t10.n, t10.adj, 5),
            oracles.count_induced_paths(g6.n, g6.adj, 6),
        ]
        st["path_want"] = []
        for k, m, length in self.path_cases:
            g, _ = universal_grid(k, m)
            st["path_want"].append(oracles.has_path(g.n, g.adj, length))
        st["contains_want"] = [
            oracles.contains_pattern(h.oneline, p.oneline) for h in st.perm_hosts for p in st.perm_patterns
        ]
        st["contains_cli_want"] = oracles.contains_pattern((2, 3, 5, 1, 8, 4, 7, 6), (3, 1, 2))
        if first:
            # bipkit's own bipartiteness test over every permutation agrees with 321-avoidance
            st["bipartite_counts"] = {
                m: sum(
                    1
                    for p in itertools.permutations(range(1, m + 1))
                    if find_bipartition(permutation_graph(Permutation(p))) is not None
                )
                for m in st.perms
            }

    def run_pass(self, st, tr, latencies):
        from bipkit.families import s_graph_star, t_graph_star, universal_grid
        from bipkit.graphs import find_bipartition, parse_graph, serialize_graph
        from bipkit.matching import count_induced_embeddings, find_induced_embedding, has_path_subgraph, is_free
        from bipkit.perms import contains_pattern, permutation_graph
        from bipkit.structure import decode_letter, letter_representation_grid, verify_biconvex_order

        call = tr.call

        def timed(name, fn, *args):
            t0 = work_clock(tr)
            result = call(name, fn, *args)
            latencies.append(work_clock(tr) - t0)
            return result

        def letters(k, m):
            return decode_letter(letter_representation_grid(k, m))

        def text_roundtrip(g, b):
            return parse_graph(serialize_graph(g, b))

        out = {}
        t = {n: timed("families.build", t_graph_star, n) for n in self.t_sizes}
        s = {n: timed("families.build", s_graph_star, n) for n in self.s_sizes}
        sizes = range(1, self.grid_max + 1)
        grids = {(k, m): timed("families.build", universal_grid, k, m) for k in sizes for m in sizes}
        out["free"] = [timed("matching.is_free", is_free, t[n].graph, st.t_forbid) for n in self.t_sizes]
        out["free"] += [timed("matching.is_free", is_free, s[n].graph, st.s_forbid) for n in self.s_sizes]
        out["antichain"] = [
            timed("matching.embed_large", find_induced_embedding, fam[i].graph, fam[j].graph)
            for fam, pairs in ((t, self.t_pairs), (s, self.s_pairs))
            for a, b in pairs
            for i, j in ((a, b), (b, a))
        ]
        out["perm"] = []
        for m, perms in st.perms.items():
            host = grids[(m, m)][0]
            for p in perms:
                t0 = work_clock(tr)
                g = call("perms.permutation_graph", permutation_graph, p)
                b = call("graphs.find_bipartition", find_bipartition, g)
                emb = call("matching.embed_large", find_induced_embedding, g, host)
                latencies.append(work_clock(tr) - t0)
                out["perm"].append((m, g, b, emb, host))
        out["count"] = [
            timed("matching.count", count_induced_embeddings, st.p5, t[10].graph, 10**9),
            timed("matching.count", count_induced_embeddings, st.p6, grids[(6, 6)][0], 10**9),
        ]
        out["path"] = [
            timed("matching.path_dp", has_path_subgraph, grids[(k, m)][0], length) for k, m, length in self.path_cases
        ]
        out["contains"] = [
            timed("perms.contains_pattern", contains_pattern, h, p) for h in st.perm_hosts for p in st.perm_patterns
        ]
        out["letters"] = [(timed("structure.letters", letters, k, m), grids[(k, m)][0]) for k, m in grids]
        out["biconvex"] = [
            timed(
                "structure.biconvex",
                verify_biconvex_order,
                s[n].graph,
                s[n].bipartition,
                tuple(reversed(s[n].zone_vertices("A"))) + s[n].zone_vertices("C"),
                s[n].zone_vertices("B"),
            )
            for n in self.s_sizes
        ]
        hosts = [(x.graph, x.bipartition) for x in (*t.values(), *s.values())]
        hosts += [grids[km] for km in self.grid_hosts]
        out["roundtrip"] = [(timed("graphs.text_roundtrip", text_roundtrip, g, b), (g, b)) for g, b in hosts]
        out["cli"] = [timed("cli.command", run_cli, st.cli_main, argv) for argv in st.cli_argv]
        return out

    def check(self, st, out, chk):
        from bipkit.families import path, t_graph_star, universal_grid
        from bipkit.graphs import find_bipartition, parse_graph
        from bipkit.matching import Embedding, verify_embedding
        from bipkit.perms import Permutation, format_permutation, permutation_graph, star_perm_S
        from bipkit.structure import parse_tree, recompose, verify_biconvex_order

        for res in out["free"]:
            chk.expect(res.free, "family member is not free of its forbidden pair")
        for emb in out["antichain"]:
            chk.expect(emb is None, "antichain member embeds: %s", emb)
        per_size: dict[int, int] = {}
        for m, g, b, emb, host in out["perm"]:
            per_size[m] = per_size.get(m, 0) + 1
            chk.expect(b is not None, "321-avoiding permutation graph %s is not bipartite", g.adj)
            chk.expect(emb is not None and verify_embedding(emb, g, host), "bad embedding into the %dx%d grid", m, m)
        for m, count in {**per_size, **st.get("bipartite_counts", {})}.items():
            chk.expect(count == oracles.catalan(m), "%d bipartite permutation graphs of size %d", count, m)
        chk.expect(out["count"] == st.count_want, "embedding counts %s, expected %s", out["count"], st.count_want)
        chk.expect(out["path"] == st.path_want, "path answers %s, expected %s", out["path"], st.path_want)
        chk.expect(out["contains"] == st.contains_want, "pattern containment answers differ from the oracle")
        for decoded, grid in out["letters"]:
            chk.expect(decoded == grid, "letter decoding differs from the grid")
        for ok in out["biconvex"]:
            chk.expect(ok, "explicit biconvex order rejected")
        for parsed, original in out["roundtrip"]:
            chk.expect(parsed == original, "graph text round trip differs")

        cli = {name: result for (name, _), result in zip(CLI_EXAMPLES, out["cli"])}
        for name, (code, _) in cli.items():
            chk.expect(code == 0, "CLI example %s exited with %d", name, code)
        text = {name: stdout.strip() for name, (_, stdout) in cli.items()}
        t6 = t_graph_star(6)
        with open(os.path.join(st.work, "t6.graph"), encoding="utf-8") as fh:
            chk.expect(parse_graph(fh.read()) == (t6.graph, t6.bipartition), "gen t-graph 6 wrote another graph")
        chk.expect(parse_graph(text["gen-grid"]) == universal_grid(5, 5), "gen grid 5 5 differs")
        perm_graph = permutation_graph(Permutation((4, 2, 6, 1, 5, 3)))
        chk.expect(parse_graph(text["gen-perm-graph"])[0] == perm_graph, "gen perm-graph differs")
        chk.expect(text["perm-star-s"] == format_permutation(star_perm_S(12)), "perm star-s 12 differs")
        want = "yes" if st.contains_cli_want else "no"
        chk.expect(text["perm-contains"] == want, "perm contains answered %r", text["perm-contains"])
        chk.expect(text["check-free"] == "ok free", "check free answered %r", text["check-free"])
        mapping = tuple(int(pair.split("->")[1]) for pair in text["embed"].split())
        chk.expect(verify_embedding(Embedding(mapping), path(7), universal_grid(7, 7)[0]), "embed gave a bad map")
        chk.expect(text["paths"] == "yes", "paths kab:5,4 9 answered %r", text["paths"])
        chk.expect(recompose(parse_tree(text["decompose"])) == path(6), "decompose path:6 tree differs")
        chk.expect(text["letter"].endswith("ok decoder-consistent"), "letter grid 5 5 --verify failed")
        line_a, line_b = text["biconvex"].splitlines()
        p6 = path(6)
        orders = [tuple(int(v) for v in line.split()[1:]) for line in (line_a, line_b)]
        chk.expect(verify_biconvex_order(p6, find_bipartition(p6), *orders), "biconvex path:6 orders rejected")


# ---------------------------------------------------------------------------


class Verify:
    """Every verification suite through the CLI, from a cold interpreter."""

    name = "verify"
    cold = True  # suites build the enumeration levels into the module cache
    throughput_name = "cases_per_s"
    latency_name = None
    workers = 1  # pool workers would contend with the speed probe's slices (see README)
    nmax = 10

    def units(self, st):
        return len(st.pinned)

    def setup(self, seed, tracer, work_dir):
        from bipkit.harness.cli import main
        from bipkit.harness.suites import SUITE_NAMES

        witness_dir = os.path.join(work_dir, "witnesses")
        argv = {
            suite: ["verify", suite, "--workers", str(self.workers), "--nmax", str(self.nmax), "--witness-dir", witness_dir]
            for suite in SUITE_NAMES
        }
        with open(PINNED_VERDICTS, encoding="utf-8") as fh:
            pinned = fh.read().splitlines()
        return State(cli_main=main, argv=argv, pinned=pinned)

    def prepare(self, st, first):
        pass

    def run_pass(self, st, tr, latencies):
        return [(suite, tr.call(f"cli.verify.{suite}", run_cli, st.cli_main, argv)) for suite, argv in st.argv.items()]

    def check(self, st, out, chk):
        lines = []
        for suite, (code, text) in out:
            chk.expect(code == 0, "verify %s exited with %d", suite, code)
            lines += [line for line in text.splitlines() if not line.startswith("{")]
        for idx, want in enumerate(st.pinned):
            got = lines[idx] if idx < len(lines) else None
            chk.expect(got == want, "verdict line %d: %r, expected %r", idx + 1, got, want)
        chk.expect(len(lines) == len(st.pinned), "%d verdict lines, expected %d", len(lines), len(st.pinned))


WORKLOADS = {w.name: w for w in (EnumCold(), LemmaSweep(), FamilySearch(), Verify())}

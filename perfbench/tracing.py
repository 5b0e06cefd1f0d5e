"""Spans around the benchmark's calls into bipkit, and the per-layer metrics
derived from them.

A span is ``[name, start, end, parent, run_id, value, paused]``: ``parent``
is the index of the enclosing span (-1 at top level), ``run_id`` names the
set-up or pass the span belongs to, ``value`` summarises the call's result
(classes built, embedding found or not, ...), and ``paused`` is the time the
session's speed probe spent inside the span, which is not the span's work.
Spans stay in memory and are written as JSON when the session ends.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


def result_value(result) -> int:
    """Number recorded for a call's result: None -> 0, bool -> 0/1, a list ->
    its length, an int -> itself, anything else -> 1."""
    if result is None:
        return 0
    if isinstance(result, (bool, int)):
        return int(result)
    if type(result) is list:
        return len(result)
    return 1


class NullTracer:
    """Tracing off: calls go straight through."""

    run_id = ""
    paused = 0.0

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self.paused = 0.0  # the speed probe adds its slices' time here
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        spans = self.spans
        idx = len(spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, 0, 0.0]
        spans.append(span)
        self._stack.append(idx)
        paused = self.paused
        span[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            span[2] = perf_counter()
            span[6] = self.paused - paused
            self._stack.pop()
        span[5] = result_value(result)
        return result

    def dump(self, path: str) -> None:
        fields = ["name", "start", "end", "parent", "run_id", "value", "paused"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once), and minus the probe
    time paused in the span itself rather than in a child."""
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append(span)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        kids = children.get(idx, [])
        for kid in sorted(kids, key=lambda k: k[1]):
            c_start, c_end = max(kid[1], cursor), min(kid[2], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        own_pause = span[6] - sum(kid[6] for kid in kids)
        out.append((end - start) - covered - own_pause)
    return out


def aggregate(spans: list[list]) -> dict[str, dict[str, dict[str, float]]]:
    """run_id -> span name -> {"calls", "self_s", "value"} totals."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        by_name = out.setdefault(span[4], {})
        acc = by_name.setdefault(span[0], {"calls": 0, "self_s": 0.0, "value": 0})
        acc["calls"] += 1
        acc["self_s"] += self_s
        acc["value"] += span[5]
    return out


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


# (metric, unit, better, kind, span prefix).  kind: "s" sums self time,
# "calls" counts spans, "value" sums recorded values, "ratio" is value/calls.
LAYER_METRICS = [
    ("enumeration.level_s.n9", "s", "lower", "s", "enumeration.level.n9"),
    ("enumeration.level_s.n10", "s", "lower", "s", "enumeration.level.n10"),
    ("enumeration.classes.n10", "count", "higher", "value", "enumeration.level.n10"),
    ("matching.embed_small.calls", "count", "lower", "calls", "matching.embed_small"),
    ("matching.embed_small.s", "s", "lower", "s", "matching.embed_small"),
    ("matching.embed_small.hit_ratio", "ratio", "higher", "ratio", "matching.embed_small"),
    ("matching.embed_small.p7.s", "s", "lower", "s", "matching.embed_small.p7"),
    ("matching.embed_small.c4.s", "s", "lower", "s", "matching.embed_small.c4"),
    ("matching.embed_small.sun1.s", "s", "lower", "s", "matching.embed_small.sun1"),
    ("matching.embed_small.s123.s", "s", "lower", "s", "matching.embed_small.s123"),
    ("matching.path_dfs.calls", "count", "lower", "calls", "matching.path_dfs"),
    ("matching.path_dfs.s", "s", "lower", "s", "matching.path_dfs"),
    ("structure.decompose.calls", "count", "lower", "calls", "structure.decompose"),
    ("structure.decompose.s", "s", "lower", "s", "structure.decompose"),
    ("structure.decompose.found_ratio", "ratio", "higher", "ratio", "structure.decompose"),
    ("structure.recompose.s", "s", "lower", "s", "structure.recompose"),
    ("structure.tree_text.s", "s", "lower", "s", "structure.tree_text"),
    ("graphs.find_bipartition.s", "s", "lower", "s", "graphs.find_bipartition"),
    ("matching.is_free.s", "s", "lower", "s", "matching.is_free"),
    ("matching.embed_large.calls", "count", "lower", "calls", "matching.embed_large"),
    ("matching.embed_large.s", "s", "lower", "s", "matching.embed_large"),
    ("matching.count.s", "s", "lower", "s", "matching.count"),
    ("matching.path_dp.calls", "count", "lower", "calls", "matching.path_dp"),
    ("matching.path_dp.s", "s", "lower", "s", "matching.path_dp"),
    ("perms.contains_pattern.calls", "count", "lower", "calls", "perms.contains_pattern"),
    ("perms.contains_pattern.s", "s", "lower", "s", "perms.contains_pattern"),
    ("perms.permutation_graph.s", "s", "lower", "s", "perms.permutation_graph"),
    ("families.build.s", "s", "lower", "s", "families.build"),
    ("structure.letters.s", "s", "lower", "s", "structure.letters"),
    ("structure.biconvex.s", "s", "lower", "s", "structure.biconvex"),
    ("graphs.text_roundtrip.s", "s", "lower", "s", "graphs.text_roundtrip"),
    ("cli.command.s", "s", "lower", "s", "cli.command"),
] + [
    (f"cli.verify.{suite}.s", "s", "lower", "s", f"cli.verify.{suite}")
    for suite in (
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
]

# Reported next to the layer metrics; the runner computes it from walls.
TRACE_OVERHEAD = ("trace_overhead_s", "s", "lower")


def layer_metrics(units: list[dict[str, dict[str, float]]]) -> dict[str, float]:
    """Per-layer metrics from per-unit span totals (one dict per traced set-up
    or pass, as ``aggregate`` returns them).  Each metric is the median over
    the units that made a matching call, and 0 where no unit made one: that
    workload does not load the layer."""
    out = {}
    for metric, _unit, _better, kind, prefix in LAYER_METRICS:
        per_unit = []
        for by_name in units:
            calls = self_s = value = 0
            for name, acc in by_name.items():
                if _matches(name, prefix):
                    calls += acc["calls"]
                    self_s += acc["self_s"]
                    value += acc["value"]
            if calls:
                per_unit.append(
                    {"s": self_s, "calls": calls, "value": value, "ratio": value / calls}[kind]
                )
        out[metric] = statistics.median(per_unit) if per_unit else 0
    return out

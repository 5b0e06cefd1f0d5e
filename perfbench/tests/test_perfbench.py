"""Unit tests for the benchmark's own arithmetic, on tiny synthetic inputs.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from stats import percentile, percentile_label, tail_percentile  # noqa: E402
from tracing import LAYER_METRICS, TRACE_OVERHEAD, aggregate, layer_metrics, self_times  # noqa: E402


def span(name, start, end, parent=-1, run_id="pass0", value=0, paused=0.0):
    return [name, start, end, parent, run_id, value, paused]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(self_times([span("a", 1.0, 3.5)]), [2.5])

    def test_sequential_children_are_subtracted(self):
        spans = [span("root", 0.0, 10.0), span("x", 1.0, 3.0, 0), span("y", 4.0, 8.0, 0)]
        self.assertEqual(self_times(spans), [4.0, 2.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0), span("x", 1.0, 5.0, 0), span("y", 3.0, 6.0, 0)]
        self.assertEqual(self_times(spans)[0], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 2.0, 6.0), span("x", 1.0, 3.0, 0), span("y", 5.0, 9.0, 0)]
        self.assertEqual(self_times(spans)[0], 2.0)

    def test_grandchildren_reduce_only_their_parent(self):
        spans = [span("root", 0.0, 10.0), span("x", 2.0, 8.0, 0), span("z", 3.0, 4.0, 1)]
        self.assertEqual(self_times(spans), [4.0, 5.0, 1.0])

    def test_probe_pauses_leave_the_span_that_contains_them(self):
        # 1.0 s of probe slices in the root itself, 0.5 s inside the child
        spans = [span("root", 0.0, 10.0, paused=1.5), span("x", 2.0, 6.0, 0, paused=0.5)]
        self.assertEqual(self_times(spans), [5.0, 3.5])

    def test_aggregate_groups_by_run_and_name(self):
        spans = [
            span("structure.decompose", 0.0, 1.0, value=1),
            span("structure.decompose", 1.0, 1.5, value=0),
            span("structure.decompose", 0.0, 2.0, run_id="pass1", value=1),
        ]
        agg = aggregate(spans)
        self.assertEqual(agg["pass0"]["structure.decompose"], {"calls": 2, "self_s": 1.5, "value": 1})
        self.assertEqual(agg["pass1"]["structure.decompose"]["calls"], 1)

    def test_layer_metrics_take_the_median_over_units_that_load_the_layer(self):
        units = [
            {"matching.embed_small.p7": {"calls": 4, "self_s": 1.0, "value": 1}},
            {"matching.embed_small.p7": {"calls": 4, "self_s": 3.0, "value": 3},
             "matching.embed_small.c4": {"calls": 4, "self_s": 2.0, "value": 0}},
            {"enumeration.level.n10": {"calls": 1, "self_s": 9.0, "value": 4032}},
        ]
        m = layer_metrics(units)
        self.assertEqual(m["matching.embed_small.p7.s"], 2.0)
        self.assertEqual(m["matching.embed_small.s"], 3.0)  # median of 1.0 and 5.0
        self.assertEqual(m["matching.embed_small.calls"], 6)  # median of 4 and 8
        self.assertEqual(m["matching.embed_small.hit_ratio"], 0.3125)  # median of 1/4 and 3/8
        self.assertEqual(m["enumeration.classes.n10"], 4032)
        self.assertEqual(m["matching.path_dp.s"], 0)  # no unit loads the layer


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(tail_percentile([float(i) for i in range(10)]))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile([float(i) for i in range(99)]))
        p, value, beyond = tail_percentile([float(i) for i in range(1, 101)])
        self.assertEqual((p, value, beyond), (90.0, 90.0, 10))

    def test_highest_qualifying_percentile_wins(self):
        samples = [float(i) for i in range(1, 1001)]
        self.assertEqual(tail_percentile(samples), (99.0, 990.0, 10))
        self.assertEqual(tail_percentile(samples + [5000.0])[0], 99.0)
        self.assertEqual(tail_percentile([float(i) for i in range(1, 10001)])[:2], (99.9, 9990.0))

    def test_percentile_is_nearest_rank_of_unsorted_input(self):
        self.assertEqual(percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50), 3.0)
        self.assertEqual(percentile([5.0, 1.0], 50), 1.0)
        self.assertEqual(percentile_label(99.0), "p99")
        self.assertEqual(percentile_label(99.9), "p99.9")


class CompareTest(unittest.TestCase):
    def test_pairs_match_seeds(self):
        base = [(1, 10.0), (2, 10.0), (3, 10.0)]
        new = [(1, 9.0), (2, 11.0), (4, 1.0)]
        self.assertEqual(compare.pair_wins(base, new, "lower"), (1, 2))

    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        self.assertEqual(compare.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.05], "lower", 0.1, 1.0), "improved")
        self.assertEqual(compare.verdict(base, [10.2, 10.1, 10.3, 10.2, 10.25], "lower", 0.1, 0.0), "no worse")
        self.assertEqual(compare.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.05], "lower", 0.1, 0.0), "worse")
        self.assertEqual(compare.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.05], "higher", 0.1, 1.0), "improved")
        noisy = [5.0, 15.0, 10.0, 8.0, 12.0]
        self.assertEqual(compare.verdict(base, noisy, "lower", 0.1, 0.4), "unresolved")
        self.assertEqual(compare.verdict(base, [1.0, 2.0, 3.0, 4.0, 5.0], "lower", 0.1, 1.0), "improved")


class OracleTest(unittest.TestCase):
    def test_321_avoiders_are_counted_by_catalan_numbers(self):
        self.assertEqual([len(oracles.perms_avoiding_321(n)) for n in range(1, 7)],
                         [oracles.catalan(n) for n in range(1, 7)])

    def test_pattern_containment(self):
        self.assertTrue(oracles.contains_pattern((2, 3, 5, 1, 8, 4, 7, 6), (3, 1, 2)))
        self.assertFalse(oracles.contains_pattern((1, 2, 3, 4), (2, 1)))
        self.assertTrue(oracles.contains_pattern((4, 1, 3, 2), (3, 1, 2)))

    def test_induced_paths_in_a_four_cycle(self):
        c4 = (0b1010, 0b0101, 0b1010, 0b0101)
        self.assertEqual(oracles.count_induced_paths(4, c4, 3), 8)
        self.assertEqual(oracles.count_induced_paths(4, c4, 4), 0)
        self.assertTrue(oracles.has_path(4, c4, 4))


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        layers = [(name, unit, better) for name, unit, better, _kind, _prefix in LAYER_METRICS]
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], layers + [TRACE_OVERHEAD]
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

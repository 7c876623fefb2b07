#!/usr/bin/env python3
"""Tests for tools/run_bench.py's estimators and row writer."""

import importlib.util
import json
import math
import statistics
import tempfile
import unittest
from pathlib import Path
from unittest import mock

_SPEC = importlib.util.spec_from_file_location(
    "run_bench", Path(__file__).resolve().parent.parent / "tools" /
    "run_bench.py")
run_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_bench)


def pairs_with_overheads(overheads, base_ns=1e9):
    return [{"base_ns": base_ns, "treated_ns": base_ns * (1 + r)}
            for r in overheads]


def near_floor_median(pairs):
    """The retired filter: pairs within 15 % of the fastest pair's time."""
    floor = min(p["base_ns"] + p["treated_ns"] for p in pairs)
    quiet = [p for p in pairs
             if p["base_ns"] + p["treated_ns"] <= floor * 1.15]
    return statistics.median(p["treated_ns"] / p["base_ns"] - 1
                             for p in quiet)


class EstimatorTest(unittest.TestCase):

    def test_median_covers_all_pairs(self):
        # Three fast pairs read -5 %, six slower ones +4 %: the quiet
        # filter keeps only the fast ones and reports -5 %.
        pairs = (pairs_with_overheads([-0.05] * 3, base_ns=1e9) +
                 pairs_with_overheads([0.04] * 6, base_ns=1.3e9))
        self.assertAlmostEqual(near_floor_median(pairs), -0.05)
        estimate = run_bench.overhead_estimate(pairs)
        self.assertEqual(estimate["pairs"], 9)
        self.assertAlmostEqual(estimate["overhead_median"], 0.04)

    def test_interval_ranks_match_binomial(self):
        def coverage(n, k):  # P(k <= B <= n - k), B ~ Binomial(n, 1/2)
            return sum(math.comb(n, j) for j in range(k, n - k + 1)) / 2**n

        for n, k in ((6, 1), (10, 2), (24, 7)):
            got_k, got_coverage = run_bench.binomial_interval(n)
            self.assertEqual(got_k, k)
            self.assertAlmostEqual(got_coverage, coverage(n, k))
            self.assertGreaterEqual(coverage(n, k), 0.95)
            self.assertLess(coverage(n, k + 1), 0.95)
        self.assertAlmostEqual(run_bench.binomial_interval(6)[1], 62 / 64)
        self.assertAlmostEqual(run_bench.binomial_interval(10)[1],
                               1002 / 1024)

        overheads = [i / 100 for i in range(24)]  # sorted already
        estimate = run_bench.overhead_estimate(
            pairs_with_overheads(reversed(overheads)))
        self.assertAlmostEqual(estimate["interval_95"][0], overheads[6])
        self.assertAlmostEqual(estimate["interval_95"][1], overheads[17])
        self.assertAlmostEqual(estimate["interval_coverage"],
                               coverage(24, 7))

    def test_fewer_than_six_pairs_is_unresolved(self):
        for n in range(0, 6):
            self.assertIsNone(run_bench.binomial_interval(n))
        for n in range(1, 6):
            estimate = run_bench.overhead_estimate(
                pairs_with_overheads([0.001] * n))
            self.assertIsNone(estimate["interval_95"])
            self.assertIsNone(estimate["interval_coverage"])
            self.assertEqual(estimate["verdict"], "unresolved")

    def test_verdicts_at_the_budget_edges(self):
        budget = 0.03
        self.assertEqual(run_bench.verdict([-0.01, budget], budget), "within")
        self.assertEqual(run_bench.verdict([-0.01, 0.0301], budget),
                         "unresolved")
        self.assertEqual(run_bench.verdict([budget, 0.05], budget),
                         "unresolved")
        self.assertEqual(run_bench.verdict([0.0301, 0.05], budget), "OVER")
        self.assertEqual(run_bench.verdict(None, budget), "unresolved")
        # Through the estimator: six pairs, so the interval is min..max.
        within = run_bench.overhead_estimate(
            pairs_with_overheads([-0.02, -0.01, 0.0, 0.01, 0.02, 0.025]))
        self.assertEqual(within["verdict"], "within")
        over = run_bench.overhead_estimate(
            pairs_with_overheads([0.04, 0.05, 0.06, 0.07, 0.08, 0.09]))
        self.assertEqual(over["verdict"], "OVER")


def benchmark_report(times_ms, repetitions=True):
    """A Google Benchmark JSON report over {name: [real_time ms, ...]}.

    With repetitions, each benchmark gets one iteration row per time and
    then its mean and median aggregates, as --benchmark_repetitions
    writes them; without, only its first time as the one iteration row.
    """
    benchmarks = []
    for name, times in times_ms.items():
        for i, t in enumerate(times if repetitions else times[:1]):
            benchmarks.append({"name": name, "run_name": name,
                               "run_type": "iteration",
                               "repetition_index": i, "real_time": t,
                               "cpu_time": t, "time_unit": "ms"})
        if repetitions:
            for aggregate, value in (("mean", statistics.mean(times)),
                                     ("median", statistics.median(times))):
                benchmarks.append({"name": f"{name}_{aggregate}",
                                   "run_name": name,
                                   "run_type": "aggregate",
                                   "aggregate_name": aggregate,
                                   "real_time": value, "cpu_time": value,
                                   "time_unit": "ms"})
    return {"benchmarks": benchmarks}


class StemmingOptRowTest(unittest.TestCase):

    def test_rows_read_the_median_aggregates(self):
        # The first repetition alone reads 4.5x and the means 5.7x; the
        # medians read 6x.
        report = benchmark_report({
            "BM_StemmingLegacy/330000": [495, 600, 610, 590, 605],
            "BM_StemmingArena/330000": [110, 100, 101, 99, 100],
            "BM_StemmingArenaThreads/1": [200, 80, 81, 79, 82],
        })
        row, failure = run_bench.stemming_opt_row(report, quick=False)
        self.assertIsNone(failure)
        self.assertEqual(len(row["rows"]), 1)
        big = row["rows"][0]
        self.assertEqual(big["events"], 330_000)
        self.assertAlmostEqual(big["legacy_ns_per_op"], 600e6)
        self.assertAlmostEqual(big["arena_ns_per_op"], 100e6)
        self.assertAlmostEqual(row["serial_speedup_330k"], 6.0)
        self.assertEqual(row["parallel_330k"],
                         [{"threads": 1, "ns_per_op": 81e6,
                           "main_thread_cpu_ns_per_op": 81e6}])

    def test_gate_fails_below_five_times(self):
        times = {"BM_StemmingLegacy/330000": [480, 700, 470, 490, 300],
                 "BM_StemmingArena/330000": [100, 90, 100, 110, 100]}
        row, failure = run_bench.stemming_opt_row(benchmark_report(times),
                                                  quick=False)
        self.assertAlmostEqual(row["serial_speedup_330k"], 4.8)
        self.assertIn("4.80x, below the 5x target", failure)
        # --quick never gates, and reads the single iteration rows.
        row, failure = run_bench.stemming_opt_row(
            benchmark_report(times, repetitions=False), quick=True)
        self.assertIsNone(failure)
        self.assertAlmostEqual(row["rows"][0]["legacy_ns_per_op"], 480e6)


class WriterTest(unittest.TestCase):

    META = {"git_sha": "abc", "build_type": "Release", "host_cpus": 4}

    def test_merge_keeps_other_rows_and_adds_metadata(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "bench.json"
            out.write_text(json.dumps({"other": {"x": 1}}))
            run_bench.write_row(out, "serve_overhead", {"pairs": 6},
                                self.META)
            data = json.loads(out.read_text())
            self.assertEqual(data["other"], {"x": 1})
            self.assertEqual(data["serve_overhead"],
                             {"pairs": 6, **self.META})
            self.assertEqual(list(Path(tmp).iterdir()), [out])

    def test_failed_write_leaves_old_file_intact(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "bench.json"
            old = json.dumps({"other": {"x": 1}})
            out.write_text(old)
            with self.assertRaises(TypeError):  # a set is not JSON
                run_bench.write_row(out, "bad", {"value": {1}}, self.META)
            with mock.patch.object(run_bench.os, "replace",
                                   side_effect=OSError("disk full")):
                with self.assertRaises(OSError):
                    run_bench.write_row(out, "row", {"pairs": 1}, self.META)
            self.assertEqual(out.read_text(), old)
            self.assertEqual(list(Path(tmp).iterdir()), [out])


if __name__ == "__main__":
    unittest.main()

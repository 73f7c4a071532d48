#!/usr/bin/env python3
"""Tests of the benchmark's statistics, output parsing and checks.

  python3 perfbench/test_run.py

The histogram test needs a built pb_load (any earlier run.py invocation
builds it) and is skipped otherwise.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def good_trial():
    res = {"mallocs": 10, "frees": 10, "reallocs": 2, "ops": 22,
           "failed": 0, "bad_tags": 0, "expected": 77, "observed": 77}
    oracle = dict(res)
    stats = {"allocations": 12, "large_allocations": 1, "failed": 0,
             "ignored_frees": 0, "realloc_rejects": 0}
    return res, oracle, stats


class Statistics(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_spread_degenerate(self):
        self.assertEqual(run.spread([5.0]), 0.0)
        self.assertEqual(run.spread([0.0, 0.0, 0.0]), 0.0)

    def test_median_of_even_count(self):
        self.assertEqual(run.median([1, 3, 2, 4]), 2.5)
        self.assertEqual(run.median([]), 0.0)

    def test_seeds_are_stable_and_distinct(self):
        self.assertEqual(run.trial_seed(3, 1), run.trial_seed(3, 1))
        seeds = {run.trial_seed(s, i) for s in range(4) for i in range(50)}
        self.assertEqual(len(seeds), 200)
        self.assertTrue(all(s < 1 << 63 for s in seeds))
        self.assertTrue(all(run.heap_seed(s) % 2 == 1 for s in seeds))

    def test_mix64_reference_values(self):
        # SplitMix64 of 0 and 1 (the finalizer after one increment).
        self.assertEqual(run.mix64(0), 0xE220A8397B1DCDAF)
        self.assertEqual(run.mix64(1), 0x910A2DEC89025CC1)


class Parsing(unittest.TestCase):
    def test_last_json_skips_other_lines(self):
        text = "noise\n{\"a\": 1}\nmore noise\n{\"b\": 2}\ntrailer\n"
        self.assertEqual(run.last_json(text), {"b": 2})

    def test_last_json_without_object_fails(self):
        with self.assertRaises(run.BenchError):
            run.last_json("no json here\n")

    def test_json_lines(self):
        self.assertEqual(run.json_lines("{\"t\": 1}\nx\n{\"t\": 2}\n"),
                         [{"t": 1}, {"t": 2}])

    def test_shim_stats_line(self):
        text = ("{\"diehard_stats\":{\"allocations\":5,\"failed\":0}}\n"
                "{\"diehard_stats\":{\"allocations\":9,\"failed\":1}}\n")
        self.assertEqual(run.parse_shim_stats(text),
                         {"allocations": 9, "failed": 1})
        with self.assertRaises(run.BenchError):
            run.parse_shim_stats("{\"other\": 1}\n")

    def test_result_line_has_contract_keys(self):
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                           "metrics": {}})
        self.assertEqual(sorted(run.last_json(line)),
                         ["attempted", "correct", "failed", "metrics"])


class Checks(unittest.TestCase):
    def test_clean_trial(self):
        self.assertEqual(run.check_trial(*good_trial()), [])

    def test_checksum_mismatch(self):
        res, oracle, stats = good_trial()
        res["observed"] = 76
        self.assertEqual(len(run.check_trial(res, oracle, stats)), 1)

    def test_stream_differs_from_oracle(self):
        res, oracle, stats = good_trial()
        oracle["expected"] = 78
        self.assertTrue(run.check_trial(res, oracle, stats))

    def test_leak_and_shim_rejections(self):
        res, oracle, stats = good_trial()
        res["frees"] = oracle["frees"] = 9
        stats["ignored_frees"] = 2
        reasons = [why for why, _ in run.check_trial(res, oracle, stats)]
        self.assertIn("allocations != frees", reasons)
        self.assertIn("shim reports ignored_frees", reasons)

    def test_null_allocations_count(self):
        res, oracle, stats = good_trial()
        res["failed"] = 4
        self.assertEqual(run.check_trial(res, oracle, stats),
                         [("allocations returned null", 4)])

    def test_trial_metrics(self):
        res = {"ops": 2000, "timed_ns": 1e9, "malloc_p50_ns": 1,
               "malloc_p99_ns": 2, "free_p50_ns": 3, "free_p99_ns": 4,
               "peak_rss_kb": 5, "idle_rss_kb": 6, "cpu_ns": 4000,
               "setup_ns": 2.5e6}
        m = run.trial_metrics(res)
        self.assertEqual(m["ops_per_s"], 2000)
        self.assertEqual(m["cpu_ns_per_op"], 2)
        self.assertEqual(m["setup_s"], 0.0025)
        self.assertEqual(sorted(m), sorted(n for n, _ in run.END_TO_END))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class HistogramSelfTest(unittest.TestCase):
    def test_relative_error_bound(self):
        exe = os.path.join(run.BUILD, "pb_load")
        if not os.path.isfile(exe):
            self.skipTest("pb_load not built")
        out = subprocess.run([exe, "selftest"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        res = json.loads(out)
        self.assertTrue(res["ok"])
        self.assertLessEqual(res["worst_relative_error"], 1 / 128)
        # 1000 values 100..100000 ns: p50 ~ 50000, p99 ~ 99000.
        self.assertAlmostEqual(res["p50"], 50000, delta=50000 / 128)
        self.assertAlmostEqual(res["p99"], 99000, delta=99000 / 128)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own rules. Run from the repository root:

    python3 -m unittest discover -s hostbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TailRule(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(run.tail(list(range(10))))

    def test_ten_samples_beyond(self):
        for n in (11, 12, 24, 100, 1000, 5033):
            samples = [float(i) for i in reversed(range(n))]
            value, pct, count = run.tail(samples)
            self.assertEqual(count, n)
            self.assertEqual(sum(1 for x in samples if x > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_highest_such_percentile(self):
        samples = [1.0] * 50 + [2.0] * 9 + [3.0] * 10
        value, _, _ = run.tail(samples)
        # the value just past ten samples is a 2.0; no higher one has ten beyond it
        self.assertEqual(value, 2.0)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_are_well_formed(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(NAME.fullmatch(name), name)

    def test_benchmark_json_matches_the_driver(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], run.WORKLOADS)


class Determinism(unittest.TestCase):
    def test_any_difference_fails(self):
        a = {"det": {"ops": 10, "alloc_mb_per_op": 1.5}}
        b = {"det": {"ops": 10, "alloc_mb_per_op": 1.5000000000000002}}
        self.assertEqual(len(run.determinism_errors(a, b, both_untraced=True)), 1)
        self.assertEqual(run.determinism_errors(a, a, both_untraced=True), [])

    def test_traced_pass_skips_allocation(self):
        a = {"det": {"ops": 10, "alloc_mb_per_op": 1.5, "tuner.configs": 7}}
        b = {"det": {"ops": 10, "alloc_mb_per_op": 2.5, "tuner.configs": 7}}
        self.assertEqual(run.determinism_errors(a, b, both_untraced=False), [])
        b["det"]["tuner.configs"] = 8
        self.assertEqual(len(run.determinism_errors(a, b, both_untraced=False)), 1)


class OpCosts(unittest.TestCase):
    def test_median_over_repetitions_and_passes(self):
        a = {"list_len": 2, "op_norm_s": [1.0, 10.0, 3.0, 30.0]}
        b = {"list_len": 2, "op_norm_s": [2.0, 20.0, 9.0, 90.0]}
        self.assertEqual(run.op_costs([a, b]), [2.5, 25.0])


class CpuTimer(unittest.TestCase):
    def test_resolution_well_below_smallest_p50(self):
        # the smallest latency_p50_ms of any workload is warm-serve's,
        # about 1.6 ms; the timer must resolve 1% of it
        run.build()
        timer = run.exe("timer")
        self.assertLess(timer["resolution_s"], 16e-6)
        self.assertLess(timer["read_s"], 16e-6)


if __name__ == "__main__":
    unittest.main()

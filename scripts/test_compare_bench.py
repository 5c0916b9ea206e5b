#!/usr/bin/env python3
"""Self-test of the benchmark gate, scripts/compare_bench.py.

    python3 scripts/test_compare_bench.py

Runs the gate on the committed accuracy baselines and on small
hand-written reports, and checks the direction of each verdict: a lower
F1 fails and a higher one passes, while a latency still fails when it
rises.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GATE = os.path.join(HERE, "compare_bench.py")


def committed(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def gbench(cpu_time):
    return {"benchmarks": [{"name": "BM_Frame", "run_name": "BM_Frame",
                            "run_type": "iteration", "cpu_time": cpu_time}]}


class CompareBench(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, baseline, current, tolerance_pct=10):
        paths = []
        for tag, report in (("baseline", baseline), ("current", current)):
            path = os.path.join(self.tmp.name, tag + ".json")
            with open(path, "w") as f:
                json.dump(report, f)
            paths.append(path)
        return subprocess.run(
            [sys.executable, GATE, *paths,
             "--tolerance-pct", str(tolerance_pct)],
            capture_output=True, text=True)

    def assert_passes(self, p):
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("OK:", p.stdout)

    def assert_fails(self, p, name):
        self.assertNotEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("REGRESSION] " + name, p.stdout)
        self.assertIn("FAIL:", p.stderr)

    def scaled(self, report, index, factor):
        out = copy.deepcopy(report)
        out["points"][index]["f1"] *= factor
        return out

    def test_committed_baselines_pass_against_themselves(self):
        # BENCH_robustness.json holds an F1 of 0 (iq_saturation@0.2),
        # which has no relative change and must be skipped, not divided.
        for name in ("BENCH_robustness.json", "BENCH_recovery.json"):
            with self.subTest(name=name):
                report = committed(name)
                self.assert_passes(self.gate(report, report))

    def test_lower_robustness_f1_fails(self):
        base = committed("BENCH_robustness.json")
        # Point 0 is the fault-free control, "none@0".
        self.assert_fails(self.gate(base, self.scaled(base, 0, 0.8)),
                          "none@0/f1")

    def test_lower_recovery_f1_fails(self):
        base = committed("BENCH_recovery.json")
        self.assert_fails(self.gate(base, self.scaled(base, 1, 0.8)),
                          "50/f1")

    def test_higher_f1_passes(self):
        for name in ("BENCH_robustness.json", "BENCH_recovery.json"):
            with self.subTest(name=name):
                base = committed(name)
                p = self.gate(base, self.scaled(base, 1, 1.2))
                self.assert_passes(p)
                self.assertIn("[    better]", p.stdout)

    def test_f1_within_tolerance_passes(self):
        base = committed("BENCH_recovery.json")
        self.assert_passes(self.gate(base, self.scaled(base, 1, 0.95)))

    def test_rising_latency_still_fails(self):
        self.assert_fails(self.gate(gbench(100.0), gbench(150.0)),
                          "BM_Frame")

    def test_falling_latency_passes(self):
        self.assert_passes(self.gate(gbench(100.0), gbench(50.0)))

    def test_mismatched_report_kinds_are_rejected(self):
        # Two kinds share no entry names, so comparing them would check
        # nothing and pass.
        for baseline, current in (("BENCH_recovery.json", gbench(100.0)),
                                  ("BENCH_perf.json",
                                   committed("BENCH_perf_stages.json"))):
            with self.subTest(baseline=baseline):
                p = self.gate(committed(baseline), current)
                self.assertNotEqual(p.returncode, 0)
                self.assertIn("not the same report kind", p.stderr)

if __name__ == "__main__":
    unittest.main()

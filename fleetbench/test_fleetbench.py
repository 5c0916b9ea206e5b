#!/usr/bin/env python3
"""Tests for the fleet benchmark itself.

    python3 fleetbench/test_fleetbench.py

Runs a short smoke of every workload in both modes and checks that each
metric BENCHMARK.json names is emitted with its unit, and that a
perturbed reference makes the correctness check fail, naming the
workload and the session.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p, json.loads(lines[-1]) if lines else None


class SmokeMetrics(unittest.TestCase):
    def check(self, workload, trace):
        p, result = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in expected))
        for m in expected:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_workloads_are_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["steady_drain", "churn_drain", "live_impaired"])

    def test_steady_drain(self):
        self.check("steady_drain", 0)

    def test_steady_drain_traced(self):
        self.check("steady_drain", 1)

    def test_churn_drain(self):
        self.check("churn_drain", 0)

    def test_churn_drain_traced(self):
        self.check("churn_drain", 1)

    def test_live_impaired(self):
        self.check("live_impaired", 0)

    def test_live_impaired_traced(self):
        self.check("live_impaired", 1)


class CorrectnessCheck(unittest.TestCase):
    def test_perturbed_reference_fails(self):
        for workload in ("steady_drain", "churn_drain", "live_impaired"):
            p, result = run(workload, 0, "--perturb-reference")
            self.assertEqual(p.returncode, 1, workload)
            self.assertFalse(result["correct"])
            self.assertIn(f"workload {workload}", p.stderr)
            self.assertIn("session 0", p.stderr)

    def test_unknown_workload_is_a_usage_error(self):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 2)


if __name__ == "__main__":
    unittest.main()

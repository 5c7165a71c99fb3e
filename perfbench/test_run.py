#!/usr/bin/env python3
"""The benchmark's own test: runs the smoke size of every workload.

    python3 perfbench/test_run.py

For each workload in BENCHMARK.json it checks that an untraced and a traced
invocation succeed, that every metric BENCHMARK.json names prints with its
unit, that the traced run's checks hold, and that the deterministic counters
of two invocations with the same seed repeat exactly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, seed=7):
    """The report and result objects of one smoke-size invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, result, names):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_metrics_and_determinism(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                report, result = bench(w["name"], 0)
                self.check(result, SPEC["end_to_end"])
                self.assertEqual(report["provenance"]["seed"], 7)
                self.assertIsInstance(report["provenance"]["host_cpus"], int)
                again, _ = bench(w["name"], 0)
                self.assertEqual(report["detail"]["outputs"], again["detail"]["outputs"])

    def test_traced_metrics_and_checks(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                report, result = bench(w["name"], 1)
                self.check(result, SPEC["per_layer"])
                checks = report["detail"]["checks"]
                self.assertTrue(checks and all(checks.values()), checks)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself, run from the root of a checkout:

    python3 perfbench/test_bench.py

* the output-check self-test (a perturbed output element is counted as a
  failed reduction);
* exact counts repeat: two traced runs with the same seed report identical
  transfer counts and bytes, stream tasks, extra FT flops and recovery
  ledger, on every workload;
* the run refuses to measure with a tracing sink armed by environment.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ["paper-n1022", "small-n128", "family-n384"]
EXACT_COUNTS = [
    "hybrid.tasks", "hybrid.h2d_count", "hybrid.d2h_count", "hybrid.h2d_bytes",
    "hybrid.d2h_bytes", "ft.tasks", "ft.h2d_count", "ft.d2h_count", "ft.extra_flops",
    "fault.injected", "fault.detected_frac", "fault.corrected_frac", "ft.rollbacks",
    "ft.reexecutions", "ft.data_corrections",
]


def run(workload, seed, trace, env=None):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                                 "--trace", str(trace)],
                          capture_output=True, text=True, env=env, timeout=180)
    return proc


class BenchmarkTest(unittest.TestCase):
    def test_selftest(self):
        proc = subprocess.run(RUN + ["--selftest"], capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                results = []
                for _ in range(2):
                    proc = run(workload, 5, 1)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    results.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
                self.assertEqual(results[0], results[1])
                self.assertEqual(results[0]["fault.detected_frac"], 1.0)
                self.assertEqual(results[0]["fault.corrected_frac"], 1.0)

    def test_refuses_with_trace_armed(self):
        env = dict(os.environ, FTH_TRACE=os.path.join(".bench_build", "refused_trace.json"))
        proc = run("small-n128", 1, 0, env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

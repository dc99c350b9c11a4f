#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root (about three minutes; builds on first use):

  python3 perfbench/test_perfbench.py

Checks that:
  * the same seed gives byte-identical simulated-clock metrics;
  * every metric BENCHMARK.json names is printed, with its unit, by the
    run that reports it (end_to_end with --trace 0, per_layer with
    --trace 1), on every workload;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    command fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Host-clock metrics; every other end-to-end metric is simulated.
HOST_METRICS = {"host_frames_per_cpu_s", "setup_s", "peak_rss_mb"}


def run_bench(workload, seed, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check_units(self, result, expected):
        metrics = result["metrics"]
        for spec in expected:
            self.assertIn(spec["name"], metrics)
            self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"],
                             spec["name"])
            self.assertIsInstance(metrics[spec["name"]]["value"], (int, float))

    def test_seeded_runs_are_deterministic_and_complete(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run_bench(workload, 3, 0) for _ in range(2)]
                for proc in runs:
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                first, second = (last_json(p) for p in runs)
                self.assertTrue(first["correct"])
                self.assertEqual(first["failed"], 0)
                self.check_units(first, SPEC["end_to_end"])
                self.assertEqual(set(first["metrics"]),
                                 {m["name"] for m in SPEC["end_to_end"]})
                sim = [json.dumps({k: v for k, v in r["metrics"].items()
                                   if k not in HOST_METRICS}, sort_keys=True)
                       for r in (first, second)]
                self.assertEqual(sim[0], sim[1])

    def test_traced_run_prints_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 3, 1)
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                result = last_json(proc)
                self.assertTrue(result["correct"])
                self.check_units(result, SPEC["per_layer"])
                self.assertIn("trace: OK", proc.stdout)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertNotIn('"metrics"', line)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests for tools/ledger_diff.py (stdlib only).

Run from anywhere:
  python3 tools/test_ledger_diff.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "ledger_diff.py"

METRICS = {
    "batch_fps": ("4.0073736122697943", "1/s"),
    "host_frames_per_cpu_s": ("0.68783713886767117", "1/s"),
    "peak_rss_mb": ("45.5390625", "MB"),
    "setup_s": ("7.6179999999999997e-06", "s"),
    "mr.samples": ("254391704", "count"),
    "mr.sort_host_s": ("0.050999321", "s"),
    "volren.cast_ns_per_sample": ("8.9611999297554021", "ns"),
    "rounds": ("2", "count"),
}


def capture(metrics=None, attempted=12, failed=0, trace_line="trace: OK"):
    """A perfbench stdout capture in the shape perfbench prints."""
    metrics = dict(METRICS, **(metrics or {}))
    lines = ["workload paper_frames seed 7919 trace 1", "metrics:"]
    lines += [f"  {name} = {value} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(trace_line)
    summary = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n"


class LedgerDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def diff(self, parent, change):
        paths = []
        for name, text in (("parent.txt", parent), ("change.txt", change)):
            path = Path(self.dir.name) / name
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        return subprocess.run([sys.executable, str(TOOL), *paths],
                              capture_output=True, text=True)

    def test_identical_captures_pass(self):
        result = self.diff(capture(), capture())
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("OK", result.stdout)

    def test_one_digit_simulated_change_fails(self):
        changed = capture({"batch_fps": ("4.0073736122697944", "1/s")})
        result = self.diff(capture(), changed)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("DIFF batch_fps", result.stdout)

    def test_simulated_count_change_fails(self):
        result = self.diff(capture(), capture({"mr.samples": ("254391705", "count")}))
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_host_only_changes_pass_with_percent_deltas(self):
        changed = capture({
            "host_frames_per_cpu_s": ("0.75", "1/s"),
            "peak_rss_mb": ("50.0", "MB"),
            "setup_s": ("9e-06", "s"),
            "mr.sort_host_s": ("0.06", "s"),
            "volren.cast_ns_per_sample": ("7.5", "ns"),
            "rounds": ("3", "count"),
        }, attempted=18)
        result = self.diff(capture(), changed)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("host_frames_per_cpu_s", result.stdout)
        self.assertIn("+9.8%", result.stdout)  # 0.6878 -> 0.75
        self.assertIn("+50.0%", result.stdout)  # attempted 12 -> 18

    def test_json_failed_count_is_simulated(self):
        result = self.diff(capture(), capture(failed=1))
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_text_line_change_fails(self):
        result = self.diff(capture(), capture(trace_line="trace: FAIL"))
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_missing_field_fails(self):
        parent = capture()
        change = "\n".join(l for l in parent.splitlines()
                           if not l.startswith("  mr.samples")) + "\n"
        result = self.diff(parent, change)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("mr.samples: missing", result.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, report.

Run from the repository root:

  python3 perfbench/run.py --workload {paper_frames|interactive_mix|farm_scan}
                           --seed N --seconds S --trace {0|1}

Builds perfbench/ (and the vrmr library from src/) into $CARGO_TARGET_DIR,
default .bench_build, on first use. Runs the workload, and with --trace 1
validates the exported trace with tools/validate_trace.py. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every check passed. Build output
goes to stderr. See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_frames", "interactive_mix", "farm_scan")

# Trace events each workload must export (validate_trace.py --require).
# paper_frames drives volren directly, with no service layer.
TRACE_REQUIRE = {
    "paper_frames": ["map", "sort", "reduce", "send"],
    "interactive_mix": ["map", "sort", "reduce", "admit", "cache", "frame"],
    "farm_scan": ["map", "sort", "reduce", "admit", "cache", "frame",
                  "decompress", "hydrate"],
}

# One run must end within 180 s; the first run in a checkout may also
# build (up to 900 s in total).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(bdir):
    """Configure (once) and build perfbench; returns the executable."""
    bdir.mkdir(parents=True, exist_ok=True)
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    exe = bdir / "perfbench"
    if not exe.is_file():
        raise FileNotFoundError(f"build produced no {exe}")
    return exe


def run_workload(exe, bdir, workload, seed, seconds, trace):
    """Runs perfbench once; returns (result dict, human-readable lines)."""
    trace_file = bdir / f"trace_{workload}.json"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-file", str(trace_file), "--work-dir", str(bdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"perfbench printed nothing (exit {proc.returncode})")
    result = json.loads(lines.pop())
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    if trace:
        require = [arg for name in TRACE_REQUIRE[workload]
                   for arg in ("--require", name)]
        check = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "validate_trace.py"),
             str(trace_file), *require],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines += ["trace: " + line for line in check.stdout.splitlines()]
        if check.returncode != 0:
            result["correct"] = False
            result["failed"] += 1
            result.setdefault("failures", []).append(
                "trace export failed tools/validate_trace.py")
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        bdir = build_dir()
        exe = build(bdir)
        result, lines = run_workload(exe, bdir, args.workload, args.seed,
                                     args.seconds, args.trace)
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    for failure in result.get("failures", []):
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

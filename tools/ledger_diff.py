#!/usr/bin/env python3
"""Compare two perfbench stdout captures, simulated clock exactly.

The inputs are the stdout of two `perfbench/run.py` runs of the same
workload, seed and trace setting, e.g. one from a parent commit and one
from a change. Each capture holds `name = value unit` metric lines,
free-text lines (the workload header, the trace check) and a final JSON
object with `correct`, `attempted`, `failed` and `metrics`.

  * Host-clock fields are the ones the globs in ledger_host_fields.txt
    (next to this script) name. They are printed as percent deltas and
    never gated: they measure the machine.
  * Every other field is on the simulated clock and must match to the
    last printed digit. So must the free-text lines and the JSON's
    top-level keys other than `metrics`, whose values repeat the metric
    lines.

Exit code 0 when every simulated field, text line and JSON key matches;
1 on any difference, missing or extra field (each is printed); 2 when an
input cannot be read.

Usage:
  python3 tools/ledger_diff.py PARENT.txt CHANGE.txt
"""

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

METRIC = re.compile(r"^\s*(?P<name>[A-Za-z_][\w.]*) = (?P<value>\S+)(?: (?P<unit>.+))?$")
HOST_FIELDS = Path(__file__).resolve().parent / "ledger_host_fields.txt"


def load_globs():
    globs = []
    for line in HOST_FIELDS.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            globs.append(line)
    return globs


def is_host(name, globs):
    return any(fnmatch.fnmatchcase(name, g) for g in globs)


def parse_capture(path):
    """Returns (fields: name -> printed value, text lines in order)."""
    fields = {}
    text = []
    lines = [l for l in Path(path).read_text(encoding="utf-8").splitlines()
             if l.strip()]
    if lines and lines[-1].lstrip().startswith("{"):
        summary = json.loads(lines.pop())
        for key, value in summary.items():
            if key != "metrics":
                fields[key] = json.dumps(value)
    for line in lines:
        match = METRIC.match(line)
        if match is None:
            text.append(line)
            continue
        name = match["name"]
        if name in fields:
            raise ValueError(f"{path}: field {name} printed twice")
        unit = match["unit"] or ""
        fields[name] = f"{match['value']} {unit}".rstrip()
    return fields, text


def percent_delta(old, new):
    try:
        a = float(old.split()[0])
        b = float(new.split()[0])
    except (ValueError, IndexError):
        return "n/a"
    if a == b:
        return "+0.0%"
    if a == 0.0:
        return "n/a"
    return f"{(b - a) / abs(a) * 100.0:+.1f}%"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="perfbench stdout of the baseline run")
    parser.add_argument("change", help="perfbench stdout of the changed run")
    args = parser.parse_args()

    try:
        globs = load_globs()
        old_fields, old_text = parse_capture(args.parent)
        new_fields, new_text = parse_capture(args.change)
    except (OSError, ValueError) as err:
        print(f"FAIL: {err}")
        return 2

    errors = []
    if old_text != new_text:
        for a, b in zip(old_text, new_text):
            if a != b:
                errors.append(f"text: {a!r} != {b!r}")
        if len(old_text) != len(new_text):
            errors.append(f"text: {len(old_text)} lines != {len(new_text)} lines")

    simulated = 0
    host_rows = []
    for name in sorted(old_fields.keys() | new_fields.keys()):
        if name not in new_fields:
            errors.append(f"{name}: missing from {args.change}")
            continue
        if name not in old_fields:
            errors.append(f"{name}: not in {args.parent}")
            continue
        old, new = old_fields[name], new_fields[name]
        if is_host(name, globs):
            host_rows.append((name, old, new, percent_delta(old, new)))
        elif old != new:
            errors.append(f"{name}: {old} != {new}")
        else:
            simulated += 1

    print(f"simulated: {simulated} fields identical")
    if host_rows:
        print("host (not gated):")
        width = max(len(row[0]) for row in host_rows)
        for name, old, new, delta in host_rows:
            print(f"  {name.ljust(width)}  {old} -> {new}  {delta}")
    for error in errors:
        print(f"DIFF {error}")
    print("OK" if not errors else f"FAIL: {len(errors)} simulated difference(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

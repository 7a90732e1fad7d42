#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, plus the manual mixed-open workload,
for one second on a 5% dataset, once untraced and once traced. It fails
unless each run exits 0 and its last line is a result object that is
correct, has no failures, and carries every metric BENCHMARK.json names for
that mode with the unit it declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable by name but left out of BENCHMARK.json (see README.md).
MANUAL_WORKLOADS = ["mixed-open"]


def check_run(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "0.05"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d\n%s" % (where, proc.returncode,
                                          proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["%s: last line is not a JSON object" % where]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys are %s" % (where, sorted(result)))
        return errors
    if result["correct"] is not True:
        errors.append("%s: correct is %r" % (where, result["correct"]))
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s: attempted %r, failed %r" %
                      (where, result["attempted"], result["failed"]))
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (where, m["name"]))
        elif got.get("unit") != m["unit"]:
            errors.append("%s: metric %s has unit %r, declared %r" %
                          (where, m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            errors.append("%s: metric %s has no numeric value" %
                          (where, m["name"]))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    names = [w["name"] for w in bench["workloads"]] + MANUAL_WORKLOADS
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errs = check_run(name, trace, bench[key])
            print("%-14s trace %d: %s" % (name, trace,
                                          "ok" if not errs else "FAILED"))
            errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sk-2pct-file --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the library sources it
compiles) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs only re-check the build. Build output goes to standard error, so the
last line of standard output is the benchmark's result object. Temporary
files live in a per-run directory under the build directory and are removed
at exit; the traced run leaves its span log in <build>/spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        sys.exit("perfbench: no library sources next to the benchmark")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", default="1.0",
                    help="dataset scale factor (the self-test uses a tiny one)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(workdir)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--scale", args.scale,
           "--spans-out", os.path.join(
               spans_dir, "%s-seed%d.ndjson" % (args.workload, args.seed))]
    try:
        code = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

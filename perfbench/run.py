#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload judge_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench (and the repository libraries it links) into .bench_build/ and runs
the benchmark's own tests; later calls rebuild incrementally. The benchmark's
stdout is passed through, so its last line is the result JSON. A per-run
report stamped with the host fingerprint is also written under
.bench_build/perfbench_out/ (see compare.py).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench_out")


def build():
    jobs = str(os.cpu_count() or 1)
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "perfbench_test", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    stamp = os.path.join(BUILD_DIR, "perfbench_test.passed")
    test = os.path.join(BUILD_DIR, "perfbench_test")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(test)):
        if subprocess.run([test], stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: self-tests failed\n")
            return 1
        open(stamp, "w").close()
    os.makedirs(OUT_DIR, exist_ok=True)
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", args.trace,
                           "--out-dir", OUT_DIR]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_node --seed 1 --seconds 20 \
        --trace 0

Every argument is passed through to the perfbench binary (see README.md),
together with the end-to-end and per-layer metric names and units listed in
BENCHMARK.json, the one place they are defined.
Build output goes to stderr, so the last line of stdout is the binary's
one-line JSON result. The build tree and the detailed results live under
.bench_build/ at the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no adamgnn sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", BUILD, "-j", "4"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def metric_list(contract, key):
    return ",".join(m["name"] + ":" + m["unit"] for m in contract[key])


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            contract = json.load(f)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: " + str(e),
              file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--bench-dir", HERE,
           "--out-dir", RESULTS,
           "--end-to-end", metric_list(contract, "end_to_end"),
           "--per-layer", metric_list(contract, "per_layer")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

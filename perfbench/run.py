#!/usr/bin/env python3
"""Simulator benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench program (and the gnna libraries it links, from src/)
in Release mode under .bench_build/perfbench, then runs one workload. The
program's last stdout line is the JSON result; build output goes to stderr.
Workloads: gcn-mesh, mpnn-quiet, sweep-observed (see BENCHMARK.json).
Exits non-zero without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.txt")

RUN_TIMEOUT_S = 175
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure (once) and build the benchmark program; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 1
    if not build():
        return 1
    try:
        run = subprocess.run([BINARY, "--fingerprints", FINGERPRINTS] + argv,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

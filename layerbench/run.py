#!/usr/bin/env python3
"""Build and run the layer-timed SOR benchmark.

Run from the root of a checkout:

    python3 layerbench/run.py --workload join_storm --seed 1 --seconds 50 --trace 0
    python3 layerbench/run.py --self-test

The first call configures and builds the SOR libraries from src/ plus the
benchmark program into .bench_build/layerbench (later calls rebuild only what
changed; build output goes to stderr). The program's last stdout line is the
result JSON. A traced run (--trace 1) also writes its spans as Chrome
trace_event JSON to .bench_build/layerbench/trace-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
SOURCE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("join_storm", "sensing_day")


def fail(message):
    print(f"layerbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.hpp")):
        fail(f"no SOR source tree under {ROOT}/src; run from a checkout root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "layerbench",
         "layerbench_selftest"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    build()
    if args.self_test:
        cmd = [os.path.join(BUILD, "layerbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "layerbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                BUILD, f"trace-{args.workload}-{args.seed}.json")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

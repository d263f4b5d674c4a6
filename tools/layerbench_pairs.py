#!/usr/bin/env python3
"""Compare two checkouts with alternating layerbench pairs.

    tools/layerbench_pairs.py A_DIR B_DIR --workload W --pairs N
        [--seconds S] [--seed-base K] [--trace 0|1]

A_DIR is the baseline (the parent commit), B_DIR the change. Pair i runs
`python3 layerbench/run.py --workload W --seed K+i --seconds S` once in each
checkout, with the same seed on both sides, and alternates which side runs
first (A B, B A, A B, ...), so a drift of the host over a pair, or a cost
that falls on whichever run comes second, does not favour one side. Each
checkout builds into its own .bench_build; build them before timing (the
first run of each side builds, so discard it or run `--self-test` first).

Prints, per metric: the medians of A and B, the change in percent, the
interquartile range of A's runs, and in how many pairs B was better
(direction from BENCHMARK.json), split by whether B ran first or second.
Exits 1 if any run reports `correct: false` or a failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("layerbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"layerbench_pairs: run failed in {checkout} "
                 f"(seed {seed}, exit {done.returncode})")
    return json.loads(lines[-1])


def directions(checkout):
    """Metric name -> "lower"/"higher", from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir")
    parser.add_argument("b_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    better = directions(args.a_dir)
    runs = {"A": [], "B": []}
    b_first = []
    ok = True
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        b_first.append(order[0] == "B")
        for side in order:
            checkout = args.a_dir if side == "A" else args.b_dir
            result = run_once(checkout, args.workload, seed, args.seconds,
                              args.trace)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"pair {i} side {side}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            runs[side].append(result["metrics"])
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {'-'.join(order)}) done",
              file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, {args.seconds} s runs, "
          f"seeds {args.seed_base}-{args.seed_base + args.pairs - 1}")
    header = (f"{'metric':<34} {'A median':>12} {'B median':>12} "
              f"{'change':>8} {'A IQR':>10} {'B better':>9} "
              f"{'B 1st':>6} {'B 2nd':>6}")
    print(header)
    n_first = sum(b_first)
    n_second = len(b_first) - n_first
    for name in runs["A"][0]:
        a = [r[name]["value"] for r in runs["A"]]
        b = [r[name]["value"] for r in runs["B"]]
        a_med, b_med = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        change = (b_med - a_med) / a_med * 100 if a_med else 0.0
        direction = better.get(name, "lower")
        wins = [(bv < av) if direction == "lower" else (bv > av)
                for av, bv in zip(a, b)]
        first = sum(w for w, f in zip(wins, b_first) if f)
        second = sum(w for w, f in zip(wins, b_first) if not f)
        print(f"{name:<34} {a_med:>12.6g} {b_med:>12.6g} {change:>+7.1f}% "
              f"{q3 - q1:>10.4g} {sum(wins):>5}/{len(wins):<3} "
              f"{first:>2}/{n_first:<3} {second:>2}/{n_second:<3}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

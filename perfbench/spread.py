#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds S]
        [--trace 0] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median of the runs and the interquartile range as
a share of that median, with quartiles as statistics.quantiles(n=4) gives
them. A metric whose spread exceeds its BENCHMARK.json bound is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """(Q3 - Q1) / median of a sample of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; BENCHMARK.json's run_seconds if unset")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    values = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in sorted(
                result["metrics"].items())), file=sys.stderr)
    ok = True
    for name, vals in sorted(values.items()):
        s = spread(vals)
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and s > bound:
            mark, ok = "  OVER BOUND", False
        print(f"{name:28s} median {statistics.median(vals):.6g}  "
              f"spread {s:.4f}  bound {bound}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

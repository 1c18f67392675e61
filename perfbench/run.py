#!/usr/bin/env python3
"""Pipeline benchmark for bgpatoms: builds the perfbench driver from source,
runs one workload and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload <campaign|reanalyze> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset. The reanalyze workload's set-up phase runs
in its own process first, so the run phase's peak RSS is the workload's own. README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "reanalyze")
SETUP_WORKLOADS = ("reanalyze",)
# Child processes are killed past these budgets: the build may take up to
# 900 s the first time, and the workload's phases end within 180 s.
BUILD_BUDGET_S = 840
RUN_BUDGET_S = 170


class ResultError(ValueError):
    """A phase's output is not a well-formed result line."""


def parse_result(stdout):
    """Parses the last non-empty line of a phase's stdout as a result."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ResultError("no output")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ResultError(f"last line is not JSON: {e}") from e
    if not isinstance(doc, dict) or set(doc) != {
        "correct", "attempted", "failed", "metrics"}:
        raise ResultError("result needs exactly correct/attempted/failed/metrics")
    if not isinstance(doc["correct"], bool):
        raise ResultError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) \
                or doc[key] < 0:
            raise ResultError(f"{key} must be a non-negative integer")
    if not isinstance(doc["metrics"], dict):
        raise ResultError("metrics must be an object")
    for name, m in doc["metrics"].items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"} \
                or not isinstance(m["value"], (int, float)) \
                or isinstance(m["value"], bool) \
                or not isinstance(m["unit"], str):
            raise ResultError(f"metric {name} needs a numeric value and a unit")
    return doc


def merge_results(parts):
    """Merges phase results: checks add up, metrics of one name are summed
    (set-up time and work done in the set-up phase belong to the run)."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for part in parts:
        out["correct"] = out["correct"] and part["correct"]
        out["attempted"] += part["attempted"]
        out["failed"] += part["failed"]
        for name, m in part["metrics"].items():
            have = out["metrics"].get(name)
            if have is None:
                out["metrics"][name] = dict(m)
            elif have["unit"] != m["unit"]:
                raise ResultError(f"metric {name} has units {have['unit']} "
                                  f"and {m['unit']}")
            else:
                have["value"] += m["value"]
    return out


def expected_metrics(benchmark, trace):
    """Metric name -> unit the result must carry, from BENCHMARK.json."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def contract_errors(result, expected, trace):
    """What keeps `result` from meeting the metric contract."""
    errors = []
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        errors.append(f"missing metric {name}")
    for name in sorted(set(got) - set(expected)):
        errors.append(f"unlisted metric {name}")
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            errors.append(f"metric {name} has unit {got[name]}, "
                          f"expected {expected[name]}")
        if not trace and not result["metrics"][name]["value"] > 0:
            errors.append(f"end-to-end metric {name} is not positive")
    if result["attempted"] < 1:
        errors.append("no operation was attempted")
    return errors


def build(build_dir):
    """Configures and builds the perfbench driver; returns its path."""
    deadline = time.monotonic() + BUILD_BUDGET_S

    def step(cmd):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build_dir, "--target", "perfbench",
          "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(build_dir, "perfbench")


def run_phase(binary, phase, args, work_dir, deadline):
    cmd = [binary, "--workload", args.workload, "--phase", phase,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", work_dir,
           "--golden", os.path.join(BENCH_DIR, "golden.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    result = parse_result(proc.stdout)
    if proc.returncode != 0:
        result["correct"] = False
        if result["failed"] == 0:
            result["failed"] = 1
            result["attempted"] += 1
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        expected = expected_metrics(json.load(f), args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        parts = []
        if args.workload in SETUP_WORKLOADS:
            parts.append(run_phase(binary, "setup", args, work_dir, deadline))
        parts.append(run_phase(binary, "run", args, work_dir, deadline))
        result = merge_results(parts)
    except (ResultError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {args.workload} failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    errors = contract_errors(result, expected, args.trace)
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    if errors:
        result["correct"] = False
    for name, m in sorted(result["metrics"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed'] / max(1, result['attempted']):.6g}"
          f" ({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

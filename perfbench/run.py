#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The simulator libraries and the driver are built as a Release CMake project
rooted at perfbench/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr. Standard output carries
the driver's build-info line and, last, one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The result is re-checked here against BENCHMARK.json: exactly the declared
metrics for the mode (end_to_end for --trace 0, per_layer for --trace 1),
each with its declared unit and a finite value, every end-to-end value
positive. Exits non-zero, without a result, when the sources are missing, the
build fails, or the driver crashes, refuses the build or runs out of time.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, what):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"{what} timed out after {timeout} s")
    if proc.returncode != 0:
        die(f"{what} failed with exit code {proc.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
    target_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_root), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                BUILD_TIMEOUT_S, "cmake build")
    return os.path.join(build_dir, "perfbench")


def check(result, declared, trace):
    """Returns the reasons the result is not correct (empty when it is)."""
    problems = []
    attempted = result.get("attempted")
    failed = result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append("attempted must be a whole number >= 1")
    elif not isinstance(failed, int) or not 0 <= failed <= attempted:
        problems.append("failed must be a whole number within attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metric set differs from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark run timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"benchmark exited with code {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        die("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        die(f"unparsable result line: {e}")

    trace = args.trace == "1"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = check(result, declared, trace)
    for problem in problems:
        print(f"perfbench: incorrect output: {problem}", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": bool(result.get("correct")) and not problems,
        "attempted": result.get("attempted", 1),
        "failed": result.get("failed", 1),
        "metrics": result.get("metrics", {}),
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the library sources
it compiles from src/) with CMake into $CARGO_TARGET_DIR, default
.bench_build, runs one workload, and prints as the last stdout line one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics. Exits non-zero, without a result line, when the build or
the run fails; exits 1 after the result line when a correctness check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.realpath(os.path.join(ROOT, d))
    if os.path.commonpath([d, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        fail(f"build directory {d} is outside the checkout")
    return d


def run_quiet(cmd, timeout):
    """Runs a build step; on failure shows its output and exits."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail(f"failed: {' '.join(cmd)}")


def build(out_dir):
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                   out_dir, "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out_dir, "--target", "perfbench", "-j",
               jobs], BUILD_TIMEOUT_S)
    binary = os.path.join(out_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.decode().strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600", 2)

    out_dir = build_dir()
    binary = build(out_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.tsv")]
    # Measure the library's default configuration: no SEMLOCK_* knob from
    # the calling environment reaches the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMLOCK_")}
    print(json.dumps({"stamp": {"git_sha": git_sha()}}), flush=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=3 * args.seconds + 120, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = proc.stdout.decode(errors="replace").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        measured = result["metrics"]
    except (ValueError, KeyError, TypeError):
        fail(f"unreadable result line (exit {proc.returncode}): {lines[-1]}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} missing or not a finite number")
        if got.get("unit") != m["unit"]:
            fail(f"metric {m['name']} has unit {got.get('unit')}, "
                 f"expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = {k: v for k, v in measured.items() if k not in metrics}
    if extra:
        print(json.dumps({"other_metrics": extra}))
    correct = bool(result.get("correct")) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the loop benchmark binary from this checkout's sources and runs one
workload, printing the result as the last line of standard output.

Usage (from the root of a checkout):

    python3 loopbench/run.py --workload loop|serve|offline --seed N \
        --seconds S --trace 0|1 [--double STAGE]

The binary is built with CMake into $CARGO_TARGET_DIR/loopbench (default
.bench_build/loopbench); the first run builds the libraries under src/, later
runs rebuild only what changed. --trace 1 prints the per-layer metrics of
BENCHMARK.json instead of the end-to-end ones and keeps the run's spans in
the build directory. --double STAGE is the positive control (see
selftest.py). Exits non-zero, printing no result, when the sources are
missing, the build fails, the run fails or its output is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"loopbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "loopbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt beside loopbench/: nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "loopbench",
                  "-j3"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(out_dir, "loopbench")


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def with_units(measured, trace):
    """The metrics of BENCHMARK.json in its order, with its units, from the
    binary's bare values. A traced run reports 0 for a layer its workload
    never calls; an untraced run must measure every end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in spec}
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    missing = [m["name"] for m in spec if m["name"] not in measured]
    if missing and not trace:
        fail(f"end-to-end metrics not measured: {missing}")
    return {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["loop", "serve", "offline"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--double", default=None,
                        help="positive control: stage whose calls to double")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    binary = build(out_dir)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "work-" + tag),
           "--trace-out", os.path.join(out_dir, f"trace-{args.workload}.jsonl"),
           "--git-describe", git_describe()]
    if args.double:
        cmd += ["--double", args.double]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark binary failed: {e}")
    if done.returncode != 0:
        fail(f"benchmark binary exited {done.returncode}")

    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark binary printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    result["metrics"] = with_units(result["metrics"], args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

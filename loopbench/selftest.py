#!/usr/bin/env python3
"""Positive control: a deliberately doubled stage must be caught on the
workload that uses it and not on the workload that bypasses it.

Usage (from the root of a checkout):

    python3 loopbench/selftest.py

For each case it runs the two workloads RUNS times for BENCHMARK.json's
run_seconds, with and without `--double STAGE` (same seeds, alternating
which runs first), and compares the medians against the bounds in
BENCHMARK.json:

  * doubling store.encode worsens loop/throughput_per_s beyond its bound and
    leaves every end-to-end metric of serve within its bound;
  * doubling serve.decide worsens serve/throughput_per_s beyond its bound
    and leaves every end-to-end metric of offline within its bound.

Exits 0 when every case holds, 1 otherwise.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runs per side and workload: three pairs already separate a doubled stage
# (40-50% worse) from the bounds (10-25%) by a wide margin.
RUNS = 3

# (doubled stage, workload that uses it, metric that must catch it,
#  workload that bypasses it)
CASES = [
    ("store.encode", "loop", "throughput_per_s", "serve"),
    ("serve.decide", "serve", "throughput_per_s", "offline"),
]


def run(workload, seed, seconds, doubled):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if doubled:
        cmd += ["--double", doubled]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd[2:])} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"selftest: {' '.join(cmd[2:])} reported a failure")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worsening(metric, base, doubled):
    """Relative change of the median in the metric's worse direction."""
    change = (doubled - base) / base
    return -change if metric["better"] == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for stage, uses, catch, bypasses in CASES:
        for workload in (uses, bypasses):
            base, doubled = [], []
            for i in range(RUNS):
                seed = 101 + i
                order = [None, stage] if i % 2 == 0 else [stage, None]
                for d in order:
                    (doubled if d else base).append(
                        run(workload, seed, seconds, d))
            for name, metric in metrics.items():
                b = statistics.median(r[name] for r in base)
                d = statistics.median(r[name] for r in doubled)
                worse = worsening(metric, b, d)
                if workload == uses:
                    if name != catch:
                        continue
                    passed = worse > metric["bound"]
                    want = f"worse by > {metric['bound']:.0%}"
                else:
                    passed = worse <= metric["bound"]
                    want = f"worse by <= {metric['bound']:.0%}"
                ok &= passed
                print(f"double {stage:13s} {workload:8s} {name:17s} "
                      f"base {b:.6g} doubled {d:.6g} worse {worse:+.1%} "
                      f"(want {want}) {'ok' if passed else 'FAIL'}",
                      flush=True)
    print("selftest:", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload campaign_sim --seed 1 --seconds 10 --trace 0

Run from the repository root. The program's libraries (src/) and the
benchmark program are built into .bench_build/ on first use; the harness
self-test runs before every measurement. The last line of standard output
is the JSON result: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1 (then also annotated with the end-to-end metric and
workload each one is predicted to move, from perfbench/predictions.json).
Exits non-zero when the build, the self-test or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ("campaign_sim", "staging_small", "staging_bulk")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    compiled = False
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return None
        compiled = compiled or "Linking" in done.stdout
    if compiled:
        # Flush the fresh objects now, so their write-back does not stall
        # the measured run that follows.
        os.sync()
    return build_dir


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    trace = args.trace == "1"
    root = os.getcwd()

    build_dir = build(root)
    if build_dir is None:
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                               "--gtest_brief=1"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        log(selftest.stdout)
        log("harness self-test failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if trace:
        cmd += ["--spans",
                os.path.join(build_dir, "spans-%s.csv" % args.workload)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("benchmark printed no result (exit code %d)" % done.returncode)
        return done.returncode or 1

    # The metric sheet must be exactly what BENCHMARK.json lists.
    want = expected_metrics(root, trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("metric sheet does not match BENCHMARK.json")
        log("  missing:", sorted(set(want) - set(got)))
        log("  unexpected:", sorted(set(got) - set(want)))
        log("  unit mismatch:", sorted(n for n in set(got) & set(want)
                                      if got[n] != want[n]))
        return 1

    if trace:
        with open(os.path.join(root, "perfbench", "predictions.json")) as f:
            predictions = json.load(f)["per_layer"]
        if set(predictions) != set(want):
            log("predictions.json does not cover the per-layer metrics")
            return 1
        for name in sorted(want):
            p = predictions[name]
            print("# predict %-40s %14.6g %-10s moves %s on %s" % (
                name, result["metrics"][name]["value"], want[name],
                p["moves"], p["on"]))
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

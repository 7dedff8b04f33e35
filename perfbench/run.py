#!/usr/bin/env python3
"""The repository benchmark (see BENCHMARK.json at the checkout root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds the profiler
libraries from src/ and the perfbench driver (perfbench/*.cpp, Release)
into .bench_build/perfbench, then runs one workload and relays the
driver's output. The last stdout line is the result JSON; --trace 1 also
writes the run's spans as Chrome trace_event JSON to
.bench_build/trace-<workload>-<seed>.json. Exits non-zero without a
result when the build, the run or the result's shape fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                # A failed configure leaves a cache behind; start afresh next time.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fingerprints", os.path.join(HERE, "fingerprints.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if list(result["metrics"]) != expected:
        fail("result metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

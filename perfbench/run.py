#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout's sources and runs one
workload of the repository benchmark.

    python3 perfbench/run.py --workload <serve_lookup|serve_churn|classify> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness and the gfomq libraries are
built with CMake into .bench_build/perfbench (incremental after the first
run). The last line of standard output is the run's JSON result; build logs
and diagnostics go to standard error. Each run also appends a record (host
diagnostics and result) to .bench_build/perfbench/runs.jsonl, and a traced
run writes its spans to .bench_build/perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_lookup", "serve_churn", "classify")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 3


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no gfomq sources under {ROOT}/src; run from a full checkout")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench",
           "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        log("build failed")
        return None
    return os.path.join(BUILD, "perfbench")


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr.decode() if isinstance(e.stderr, bytes)
                         else (e.stderr or ""))
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        log(f"harness exited with {proc.returncode} and no valid result")
        return 1

    host = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: host "):
            host = json.loads(line[len("perfbench: host "):])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "wall_s": round(time.monotonic() - start, 3), "host": host,
              "result": result}
    with open(os.path.join(BUILD, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

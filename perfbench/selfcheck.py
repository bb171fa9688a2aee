#!/usr/bin/env python3
"""The benchmark's own checks. Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seconds N]

1. The same seed gives a byte-identical command trace (serving workloads)
   and ontology batch (classify); a different seed gives a different one.
2. A second seed runs clean: correct, with zero failed operations, on
   every workload.
3. Every metric prints with its name and unit, and the (workload, metric)
   pairs of a plain run equal BENCHMARK.json's end_to_end list, those of a
   traced run its per_layer list.

Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's runner: build + workload list)


def dump(binary, workload, seed):
    return subprocess.run([binary, "--dump", workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, check=True).stdout


def run_workload(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    binary = run.build()
    if binary is None:
        return 1
    problems = []

    for w in workloads:
        a, b, c = dump(binary, w, 7), dump(binary, w, 7), dump(binary, w, 8)
        if a != b:
            problems.append(f"{w}: seed 7 gave two different inputs")
        if a == c:
            problems.append(f"{w}: seeds 7 and 8 gave the same input")
        print(f"determinism {w}: {len(a)} bytes, same seed identical="
              f"{a == b}, other seed differs={a != c}")

    for w in workloads:
        for trace in (0, 1):
            result = run_workload(w, 20170514, args.seconds, trace)
            if result is None:
                problems.append(f"{w} trace={trace}: run failed")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{w} trace={trace}: missing {missing}, "
                                f"extra {extra}, unit mismatch {units}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))]
            if bad:
                problems.append(f"{w} trace={trace}: non-numeric {bad}")
            print(f"run {w} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(got)}")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/test_bench.py

Runs every workload at smoke size, untraced and traced, on two seeds,
and checks that each result is correct and prints exactly the metric
names of BENCHMARK.json with their units. Then checks that the
benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (1, 2):
            for trace in (0, 1):
                label = f"{workload} seed {seed} trace {trace}"
                done = run(ROOT, workload, seed, trace)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    problems.append(f"{label}: exit {done.returncode}\n"
                                    f"{done.stderr[-2000:]}")
                    continue
                result = json.loads(lines[-1])
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append(f"{label}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{label}: not correct: {done.stdout}")
                units = {name: m["unit"]
                         for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{label}: metrics {units} != "
                                    f"{expected[trace]}")
                for name in expected[trace]:
                    if not any(line.split()[:1] == [name] for line in lines):
                        problems.append(f"{label}: {name} not printed")
                print(f"ok   {label}", flush=True)

    # Without the engine sources the benchmark must fail, and print nothing
    # that looks like a result.
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "e2ebench"))
        done = run(bare, "ds1_movies", 1, 0)
        if done.returncode == 0 or '"correct"' in done.stdout:
            problems.append("bare directory: did not refuse")
        else:
            print("ok   bare directory refused", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

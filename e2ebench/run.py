#!/usr/bin/env python3
"""End-to-end XML -> dedup-output benchmark runner (see README.md).

    python3 e2ebench/run.py --workload ds1_movies --seed 1 --seconds 15 \
        --trace 0 [--size full|smoke]

Run from the repository root. It builds e2e_bench from source into
.bench_build/e2ebench (first run only), generates the workload's corpus
from the seed (timed as setup_s), runs the closed loop for --seconds and
prints a provenance block, the metrics with their units and bases, and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_DIR = os.path.join(STATE_DIR, "build")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("ds1_movies", "repeated_subtree", "freedb_ds3")
# Every run must end within 180 s; leave room for setup and the tail.
RUN_DEADLINE_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sxnm", "detector.h")):
        fail(f"no engine sources under {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build failed: " + " ".join(step))


def bench(args, timeout):
    """Runs e2e_bench and returns the JSON object on its last stdout line."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"e2e_bench {args[0]} timed out after {timeout:.0f} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"e2e_bench {args[0]} exited {done.returncode} without a result")
    try:
        return done.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"e2e_bench {args[0]} printed no JSON result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    started = time.monotonic()
    _, info = bench(["info"], 30)
    corpus_dir = os.path.join(STATE_DIR, "data",
                              f"{opts.workload}-{opts.size}-{opts.seed}")
    try:
        code, setup = bench(["setup", "--workload", opts.workload,
                             "--seed", str(opts.seed), "--size", opts.size,
                             "--dir", corpus_dir], 120)
        if code != 0:
            fail(f"setup exited {code}")
        spans_path = os.path.join(
            STATE_DIR, "traces", f"{opts.workload}-{opts.size}-{opts.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        code, run = bench(["run", "--workload", opts.workload,
                           "--dir", corpus_dir, "--seconds", str(opts.seconds),
                           "--trace", str(opts.trace), "--spans", spans_path],
                          max(remaining, 10))
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    if code != 0 and not run.get("attempted"):
        fail(f"run exited {code}: {run.get('errors')}")

    attempted, failed = run["attempted"], run["failed"]
    digests = run["pair_digests"]

    prov = run["provenance"]
    print("provenance:")
    print(f"  nproc: {prov['nproc']}")
    print("  engine threads: " + ", ".join(
        f"{name}={threads}" for name, threads in info["engine_threads"].items()))
    print(f"  build: {prov['build_type']}, {prov['compiler']}, "
          f"flags '{prov['cxx_flags'].strip()}'")
    print(f"  simd backend: {prov['simd']}")
    print(f"  workload: {opts.workload} ({opts.size}, "
          f"{setup['size']} generated), seed {opts.seed}")
    print(f"  corpus: {setup['corpus_bytes']} bytes "
          f"(digest {setup['corpus_digest']}), instances "
          + ", ".join(f"{k}={v}" for k, v in prov["instances"].items()))
    print("  pair digests: " + ", ".join(
        f"{k}={v}" for k, v in sorted(digests.items())))
    print(f"  samples: {run['samples']['untraced']} observability-off, "
          f"{run['samples']['traced']} traced jobs; "
          f"failed_share {failed}/{attempted}")
    for error in run["errors"]:
        print(f"  error: {error}")

    if opts.trace == 1:
        print(f"  spans: {os.path.relpath(spans_path, ROOT)}")
    section = "per_layer" if opts.trace else "end_to_end"
    rows = [(name, m["value"], m["unit"], m.get("base", ""))
            for name, m in run.get(section, {}).items()]
    if opts.trace == 0 and rows:
        rows.append(("setup_s", statistics.median(setup["setup_s"]), "s",
                     f"median of {len(setup['setup_s'])} generations"))
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows}
    print("metrics:")
    for name, value, unit, base in rows:
        print(f"  {name:34s} {value:>16.6g} {unit:10s} {base}")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

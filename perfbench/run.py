#!/usr/bin/env python3
"""Build and run the mcsim host-time benchmark for one workload.

    python3 perfbench/run.py --workload dense_p8 --seed 1 --seconds 50 --trace 0

Run from the root of a source tree. The first run configures and builds
the simulator libraries plus the driver (perfbench/driver.cpp) into
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed. The driver runs the workload's cells for --seconds and reports
every metric; this script prints them with their units, appends the
full record to .bench_results/<workload>.jsonl for perfbench/compare.py,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones. --seed defaults to 1 (the tuning seed); use 7, the
held-out seed, to confirm a claim made with seed 1.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
# Limits on the driver run and on each build step (the first run of a
# checkout builds everything, later runs rebuild what changed).
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 700


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) in " + ROOT)
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "mcsim_perf", "-j", "3"],
                   check=True, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    return os.path.join(build_dir, "mcsim_perf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"build failed: {e}")

    start = time.monotonic()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("driver printed no result")
    record["wall_s"] = time.monotonic() - start

    metrics = {}
    missing = []
    for m in wanted:
        v = record["metrics"].get(m["name"])
        if v is None or not math.isfinite(v):
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    correct = record["correct"] and not missing

    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"cells {record['cells']}  timed passes {record['timed_passes']}  "
          f"traced cells {record['traced_cells']}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  sim.fingerprint {record['fingerprint']}")
    for e in record["errors"]:
        print(f"  FAILED {e}")
    for name in missing:
        print(f"  MISSING metric {name}")

    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

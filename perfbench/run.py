#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test     # the benchmark's own tests

Run from anywhere; paths are resolved from this file. The driver is built
(CMake, Release) into .bench_build/ at the repository root and scratch
files go to .bench_run/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer
metrics with --trace 1. Everything above that line is the driver's
human-readable report, with sample counts and the host stamp. A failed
correctness gate still prints the JSON line (correct: false) and exits 1;
a failed build or a missing metric exits non-zero without it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(ROOT, ".bench_run")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def tagged_json(lines, tag):
    for line in reversed(lines):
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        test = build("perfbench_test")
        sys.exit(subprocess.run([test], cwd=BUILD).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    driver = build("perfbench_driver")
    run_dir = os.path.join(SCRATCH, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = tagged_json(lines, "RESULT")
    host = tagged_json(lines, "HOST")

    # Keep the span dump of a traced run; drop the durable-rw data files.
    results_dir = os.path.join(SCRATCH, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(run_dir, "spans-%s.csv" % args.workload)
    if os.path.exists(spans):
        os.replace(spans, os.path.join(results_dir, stem + ".spans.csv"))
    shutil.rmtree(run_dir, ignore_errors=True)

    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if result is None or proc.returncode not in (0, 1):
        fail("driver exited %d without a result" % proc.returncode)

    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump({"host": host, "result": result}, f, indent=1)

    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("driver did not report " + m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: driver unit %s, BENCHMARK.json unit %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

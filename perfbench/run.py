#!/usr/bin/env python3
"""Builds tegbench from this checkout and runs one benchmark workload.

Run from the root of the checkout:

    python3 perfbench/run.py --workload stream_kilo --seed 7 --seconds 20 --trace 0

The first run configures and builds perfbench/ (and the library sources it
compiles) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs only rebuild what changed.  Every metric the run measured is
printed with its unit; the last line is one JSON object holding the metrics
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer with
--trace 1, where a layer the workload never exercises reads 0).  The exit
code is non-zero when the build fails, a correctness check fails, an
end-to-end metric is missing, or tegbench measures a metric BENCHMARK.json
does not list with that unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tegbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if compiled.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "tegbench")


def build_root():
    """Directory that holds the build tree and the per-run scratch dirs."""
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def run_tegbench(binary, args, timeout):
    """Runs tegbench in a fresh scratch dir; returns (exit code, result)."""
    scratch = os.path.join(build_root(), f"scratch-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, *args, "--scratch", scratch], stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"tegbench did not finish within {timeout} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"tegbench printed nothing (exit code {proc.returncode})")
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"tegbench output is not JSON (exit code {proc.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (expected one of {workloads})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(os.path.join(build_root(), "perfbench"))
    returncode, result = run_tegbench(
        binary, ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S)

    for note in result["notes"]:
        print(f"# {note}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for mismatch in result["mismatches"]:
        print(f"MISMATCH: {mismatch}")

    listed = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    for name, measured in result["metrics"].items():
        if listed.get(name) != measured["unit"]:
            fail(f"tegbench measured {name} in {measured['unit']}; "
                 f"BENCHMARK.json lists it as {listed.get(name)}")
    metrics = {}
    for entry in wanted:
        measured = result["metrics"].get(entry["name"])
        if measured is None and not args.trace:
            fail(f"metric {entry['name']} was not measured")
        # A layer this workload never exercises reads 0.
        metrics[entry["name"]] = measured or {"value": 0, "unit": entry["unit"]}
    correct = bool(result["correct"]) and returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Checks that the benchmark's work counters repeat at one seed.

Run from the root of the checkout:

    python3 perfbench/check_counters.py [--workload NAME] [--seed N]

Builds tegbench as run.py does, runs the traced mode of each workload (or
only NAME) twice with the same seed, and compares every counter: the
per-layer metrics counted in `count` or `B`, and the EHTR share of groups
solved.  Timings are free to differ.  A checkpoint stores each step's
measured compute time, so the length of those printed digits moves the
checkpoint byte counts, and the allocations made while formatting them, by
about 0.1 %; those three must agree within NEAR_TOLERANCE, every other
counter exactly.  Exits non-zero if a run fails or a counter differs.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import build, build_root, fail, run_tegbench  # noqa: E402

RUN_TIMEOUT_S = 300
COUNTER_UNITS = ("count", "B")
COUNTER_EXTRA = ("core.ehtr.groups_solved_frac",)
NEAR = ("checkpoint.bytes_max", "checkpoint.bytes_total",
        "process.allocs_per_step")
NEAR_TOLERANCE = 0.01


def counters(binary, workload, seed):
    returncode, result = run_tegbench(
        binary, ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", "1"], RUN_TIMEOUT_S)
    if returncode != 0 or not result["correct"]:
        fail(f"{workload}: run failed: {result['mismatches']}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNTER_UNITS or name in COUNTER_EXTRA}


def repeats(name, a, b):
    if name in NEAR:
        return abs(a - b) <= NEAR_TOLERANCE * max(abs(a), abs(b))
    return a == b


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    if args.workload:
        workloads = [args.workload]
    binary = build(os.path.join(build_root(), "perfbench"))

    differing = 0
    for workload in workloads:
        first = counters(binary, workload, args.seed)
        second = counters(binary, workload, args.seed)
        for name in sorted(first):
            same = name in second and repeats(name, first[name], second[name])
            differing += not same
            print(f"{'ok  ' if same else 'DIFF'} {workload} {name} = "
                  f"{first[name]!r}" + ("" if same else f" then {second.get(name)!r}"))
    if differing:
        fail(f"{differing} counters differ between two runs at one seed")
    print("all counters repeat")


if __name__ == "__main__":
    main()

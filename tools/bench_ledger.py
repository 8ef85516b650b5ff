#!/usr/bin/env python3
"""Appends one measured row to a workload's perf ledger, BENCH_<workload>.json.

Usage (from the checkout root):
    python3 tools/bench_ledger.py --workload stream_ckpt_hour \\
        [--checkout DIR] [--label TEXT]

Runs `perfbench/run.py --trace 0` in DIR (default: this checkout) once per
seed 1-10, then `--trace 1` at seed 1, each for DIR's BENCHMARK.json
`run_seconds`, so every row of a ledger is measured the same way.  The row
holds the measured commit, the host facts perfbench prints as `# host`
lines, the median and interquartile range of each end-to-end metric over
the seeds, and the traced work counters: every per-layer metric counted in
`count` or `B`, plus the EHTR share of groups solved, the same set
perfbench/check_counters.py compares.  The traced run's per-layer timings
(every metric in `us` or `ms`) go in a `per_layer` block beside them, so a
row shows where a gain landed; rows recorded before the block existed lack
it.
The row is appended to BENCH_<workload>.json in the current directory, so
a parent checkout can be measured into this checkout's ledger with
--checkout.  perfbench builds into $CARGO_TARGET_DIR, default DIR's
.bench_build.  Exits non-zero if any run fails its correctness checks.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

COUNTER_UNITS = ("count", "B")
COUNTER_EXTRA = ("core.ehtr.groups_solved_frac",)
TIMING_UNITS = ("us", "ms")
SEEDS = list(range(1, 11))
RUN_TIMEOUT_S = 600


def fail(message):
    sys.exit(f"bench_ledger: {message}")


def run_perfbench(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns (notes, last-line JSON)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{' '.join(cmd)} printed no result (exit code {proc.returncode})")
    if proc.returncode != 0 or not result["correct"]:
        fail(f"{' '.join(cmd)} failed its correctness checks")
    notes = [line[2:] for line in lines if line.startswith("# ")]
    return notes, result


def commit_of(checkout):
    """HEAD's hash, with '-dirty' when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args],
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()
    commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    return commit


def spread(values):
    """Median and interquartile range."""
    if len(values) == 1:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--checkout", default=".")
    parser.add_argument("--label", default="",
                        help="what the measured commit changed")
    args = parser.parse_args()

    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]

    host = []
    samples = {}
    units = {}
    attempted = failed = 0
    for seed in SEEDS:
        notes, result = run_perfbench(checkout, args.workload, seed, seconds, 0)
        host = host or [n for n in notes if n.startswith("host")]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.6g}"
            for name, metric in result["metrics"].items()), file=sys.stderr)

    _, traced = run_perfbench(checkout, args.workload, 1, seconds, 1)
    counters = {name: metric["value"]
                for name, metric in sorted(traced["metrics"].items())
                if metric["unit"] in COUNTER_UNITS or name in COUNTER_EXTRA}
    per_layer = {name: {"value": metric["value"], "unit": metric["unit"]}
                 for name, metric in sorted(traced["metrics"].items())
                 if metric["unit"] in TIMING_UNITS}

    end_to_end = {}
    for name, values in samples.items():
        median, iqr = spread(values)
        end_to_end[name] = {"median": median, "iqr": iqr, "unit": units[name]}
    row = {
        "commit": commit_of(checkout),
        "label": args.label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
                        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": host,
        "seeds": SEEDS,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "work_counters": counters,
        "per_layer": per_layer,
    }

    path = f"BENCH_{args.workload}.json"
    ledger = {"workload": args.workload, "rows": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            ledger = json.load(f)
    ledger["rows"].append(row)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    print(json.dumps(row, indent=2))


if __name__ == "__main__":
    main()

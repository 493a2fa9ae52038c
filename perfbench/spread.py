#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads serve-query,offline]

Runs perfbench/run.py once per (workload, seed) and prints, per metric,
the median of the runs and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound in BENCHMARK.json. A spread above a
third of the bound is marked; a failed or incorrect run stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        help="comma-separated (default: BENCHMARK.json's workloads)")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or ",".join(w["name"] for w in bench["workloads"])
    for workload in workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
            started = time.time()
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                sys.exit("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
            print("%s seed %d: %.1f s" % (workload, seed, time.time() - started), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            # The report table's raw column: the value before the
            # machine-speed correction.
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) >= 3 and parts[0] in result["metrics"]:
                    values.setdefault(parts[0] + " (raw)", []).append(float(parts[2]))
        print("%-12s %-24s %14s %8s %7s" % ("workload", "metric", "median", "spread", "bound"))
        for name, vals in values.items():
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median if median else float("nan")
            bound = bounds.get(name)
            mark = " <-- above bound/3" if bound and spread > bound / 3 else ""
            print("%-12s %-24s %14.6g %7.1f%% %7s%s" % (
                workload, name, median, 100 * spread,
                "" if bound is None else "%.0f%%" % (100 * bound), mark))
            print("    " + " ".join("%.5g" % v for v in vals))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py pair-sweep serve-batch --runs 10

runs perfbench/run.py --runs times per workload, one seed each, and
prints per metric the median of the runs and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json.
The spread of every metric but setup_s must stay within its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs failed their checks")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"{workload:12s} {name:12s} median {med:12.6g}  spread {share:6.3f}"
                  f"  bound {bounds[name]}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()

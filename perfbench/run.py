#!/usr/bin/env python3
"""The repository benchmark: one command, one workload, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 20 --trace 0

It builds perfbench/stpbench.exe with dune, then runs iterations of the
workload, each in a fresh process, until --seconds have been spent in
them.  Every iteration's output is checked (stpbench.exe pins the exact
counts); the deterministic counts and the serve digest must also repeat
across the iterations of one seed.  It prints one line per metric, then,
as the last line, a JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics (medians over the iterations).
--trace 1 is the one traced run: every workload once with its layer
spans recorded, beside an untraced run of the same seed, reporting the
per-layer metrics of all workloads and the tracing overhead of each.
Spans land in .perfbench/<workload>.spans.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ["pair-sweep", "single-bfs", "stab-search", "serve-batch"]
EXE = os.path.join("_build", "default", "perfbench", "stpbench.exe")
OUT = ".perfbench"
ITERATION_TIMEOUT_S = 60
MIN_ITERATIONS = 3

# End-to-end metrics: name, unit, and how a run folds its iterations.
# Times take the median.  Peak RSS takes the mean: at two domains it is
# bimodal (it depends on which searches overlap), so a median flips
# between the modes from run to run while the mean stays put.
END_TO_END = [
    ("wall_s", "s", statistics.median),
    ("cpu_s", "s", statistics.median),
    ("setup_s", "s", statistics.median),
    ("peak_rss_mb", "MB", statistics.mean),
    ("ops_per_s", "1/s", statistics.median),
]


class BenchError(Exception):
    pass


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            raise BenchError(f"not the root of a source checkout: {needed} is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/stpbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
    if proc.returncode != 0:
        raise BenchError("dune build failed")


def iterate(workload, seed, *flags):
    """One fresh process; returns its report plus set-up and peak RSS."""
    args = [EXE, "run", workload, str(seed), OUT, *flags]
    spawned = time.time()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    timer = threading.Timer(ITERATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: stpbench.exe exited with {proc.returncode}")
    report = json.loads(out)
    report["setup_s"] = report["t_first"] - spawned
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    report["ops_per_s"] = report["ops"] / report["wall_s"]
    return report


def failures(reports):
    """Failed operations: every operation of an iteration whose checks
    failed, or whose deterministic output differs from the first
    iteration's (same seed, so it must repeat exactly)."""
    first = reports[0]
    failed = 0
    for r in reports:
        repeats = r["counts"] == first["counts"] and r["digest"] == first["digest"]
        if r["problems"] or not repeats:
            for p in r["problems"] or ["output differs from the first iteration of this seed"]:
                print(f"# {r['workload']}: {p}")
            failed += r["ops"]
    return failed


def iteration_seed(workload, seed, i):
    """serve-batch repeats the seed's one batch, so that its digest can be
    compared across iterations.  pair-sweep's outcomes and counts do not
    depend on the input order, so each iteration shuffles with its own
    seed drawn from --seed: a run then averages over orders, whose
    overlaps of the largest searches move wall time and peak RSS."""
    return seed * 1000 + i if workload == "pair-sweep" else seed


def measure(workload, seed, seconds):
    reports = []
    spent = 0.0
    while spent < seconds or len(reports) < MIN_ITERATIONS:
        started = time.time()
        reports.append(iterate(workload, iteration_seed(workload, seed, len(reports))))
        spent += time.time() - started
    attempted = sum(r["ops"] for r in reports)
    failed = failures(reports)
    metrics = {
        name: {"value": fold([r[name] for r in reports]), "unit": unit}
        for name, unit, fold in END_TO_END
    }
    print(f"# {workload}: {len(reports)} iterations of {reports[0]['ops']} operations, seed {seed}")
    if workload == "serve-batch":
        print(f"sessions_per_s {metrics['ops_per_s']['value']:.1f} 1/s")
    print(f"error_rate {failed / attempted:g} ({failed}/{attempted})")
    return attempted, failed, metrics


def traced(seed):
    """The one traced run: per-layer metrics of every workload."""
    metrics = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        plain = iterate(workload, seed)
        base = plain
        if workload == "pair-sweep":
            # The traced sweep runs one pair search at a time, so its
            # overhead is measured against an untraced run at --jobs 1.
            base = iterate(workload, seed, "--jobs", "1")
        spans = iterate(workload, seed, "--trace")
        reports = [spans, base, plain]
        attempted += sum(r["ops"] for r in reports)
        problems = [p for r in reports for p in r["problems"]]
        common = set(spans["counts"]) & set(plain["counts"])
        mismatched = [k for k in common if spans["counts"][k] != plain["counts"][k]]
        if spans["digest"] != plain["digest"]:
            mismatched.append("digest")
        for p in problems + [f"{k} differs between traced and untraced runs" for k in mismatched]:
            print(f"# {workload}: {p}")
        if problems or mismatched:
            failed += sum(r["ops"] for r in reports)
        layer = dict(spans["layer"])
        layer.update({k: float(v) for k, v in spans["counts"].items()})
        layer["trace.overhead_s"] = spans["wall_s"] - base["wall_s"]
        if workload == "pair-sweep":
            layer["par.efficiency"] = layer["attack.pair_search_s"] / (2 * plain["wall_s"])
        for name, value in layer.items():
            metrics[f"{workload}.{name}"] = {"value": value, "unit": layer_unit(name)}
    return attempted, failed, metrics


# Unit of a per-layer metric, by its name's suffix (first match wins).
LAYER_UNITS = [("minor_words", "words"), ("hits_per_state", "hits/state"),
               ("mb_per_s", "MB/s"), ("per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
               ("_pct", "%"), ("bytes_per_state", "B"), ("_bytes", "B"),
               ("ns_per_step", "ns"), ("_ratio", "ratio"), ("efficiency", "ratio")]


def layer_unit(name):
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        build()
        os.makedirs(OUT, exist_ok=True)
        if args.trace:
            attempted, failed, metrics = traced(args.seed)
        else:
            attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: runs one workload K times, each with its own seed,
and prints every metric's median, quartiles, minimum and maximum, the
quartile spread as a share of the median against the metric's bound, and
the traced-minus-untraced overhead on each end-to-end metric.

    python3 perfbench/steady.py --workload oneshot-ff --runs 10

It runs the command in BENCHMARK.json with `--workload/--seed/--seconds
/--trace` from the repository root, with the run length BENCHMARK.json
gives, exactly as a benchmark run would, and prints every raw result
line (prefixed `raw:`) before the tables.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        # No result line: the build or the arguments failed.
        sys.exit(f"{' '.join(args)} exited with {out.returncode} and printed no result")
    result = json.loads(lines[-1])
    if trace:
        # The line before the result holds the end-to-end figures
        # measured under tracing.
        result["traced_end_to_end"] = json.loads(lines[-2])["traced_end_to_end"]
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, min(values), max(values), spread


def table(title, runs, key, bounds):
    names = list(runs[0][key])
    print(f"\n{title} ({len(runs)} runs)")
    print(f"{'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'iqr/med':>8} {'bound':>6}")
    medians = {}
    for name in names:
        values = [r[key][name]["value"] for r in runs]
        med, q1, q3, lo, hi, spread = summary(values)
        medians[name] = med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        bound_text = f"{bound:.2f}" if bound is not None else ""
        print(f"{name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} {lo:14.6g} {hi:14.6g} {spread:8.2%} {bound_text:>6}{flag}")
    return medians


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10, help="untraced runs (K)")
    parser.add_argument("--traced", type=int, default=None,
                        help="traced runs for the overhead (default K, 0 to skip)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    traced_runs = args.runs if args.traced is None else args.traced
    if traced_runs == 1:
        parser.error("--traced must be 0 or at least 2")

    os.chdir(root)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    plain, traced = [], []
    for i, seed in enumerate(seeds):
        for trace in (0, 1) if i < traced_runs else (0,):
            result = run_once(bench["command"], args.workload, seed, bench["run_seconds"], trace)
            (traced if trace else plain).append(result)
            raw = {"workload": args.workload, "seed": seed, "trace": trace, **result}
            print("raw: " + json.dumps(raw), flush=True)

    for r in plain + traced:
        if not r["correct"]:
            print("INCORRECT OUTPUT in a run", file=sys.stderr)
    failed = sorted({(r["failed"], r["attempted"]) for r in plain})
    print(f"workload {args.workload}: failed/attempted per run {failed}")
    plain_medians = table("end-to-end, untraced", plain, "metrics", bounds)
    if traced:
        table("per-layer, traced", traced, "metrics", {})
        traced_medians = table("end-to-end under tracing", traced, "traced_end_to_end", bounds)
        print("\ntracing overhead (traced median - untraced median, share of untraced)")
        for name, med in plain_medians.items():
            delta = traced_medians[name] - med
            share = delta / med if med else 0.0
            print(f"{name:30} {delta:14.6g} {share:8.2%}")


if __name__ == "__main__":
    main()

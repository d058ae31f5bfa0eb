#!/usr/bin/env python3
"""Repeat one workload with different seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload mpc-sim --runs 10

Runs `perfbench/run.py` once per seed (seed-base, seed-base+1, ...) and
prints, per metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, and the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
marked, for information. Exits 1 if any run fails or any spread other than
that of setup_s is above its bound; only the median of setup_s is compared
between commits.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}

    values = {name: [] for name in bounds}
    failures = 0
    for i in range(args.runs):
        seed = args.seed_base + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            failures += 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    over_bound = 0
    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        mark = ""
        if bound is not None and spread > bound:
            mark = "  <-- above bound"
            if name != "setup_s":
                over_bound += 1
        elif bound is not None and spread > bound / 3:
            mark = "  <-- above bound/3"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound_text:>6s}{mark}")
    return 1 if failures or over_bound else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Usage (from the repository root):

    python3 perfbench/smoke_test.py

For every workload, runs the untraced and the traced run on tiny instances
and asserts that each metric BENCHMARK.json names is emitted with its unit,
that every correctness check passed, and that the trace file is valid
trace-event JSON whose spans name their parents. It also asserts that one
seed reproduces its allocation digest across runs and that the driver
refuses an unpinned environment with a named error. Takes about a minute
after the build.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, env=None):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    return proc


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest: "):
            return line.split()[1]
    return None


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run(workload, 7, trace)
            check(proc.returncode == 0,
                  f"{workload} trace={trace} exited {proc.returncode}: "
                  f"{proc.stderr[-2000:]}{proc.stdout[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result}")
            metrics = result["metrics"]
            for m in listed:
                check(m["name"] in metrics,
                      f"{workload} trace={trace}: {m['name']} missing")
                check(metrics[m["name"]]["unit"] == m["unit"],
                      f"{workload}: {m['name']} unit "
                      f"{metrics[m['name']]['unit']} != {m['unit']}")
            check(set(metrics) == {m["name"] for m in listed},
                  f"{workload} trace={trace}: unlisted metrics "
                  f"{set(metrics) - {m['name'] for m in listed}}")
            if trace:
                path = next(line.split(" ", 1)[1] for line in
                            proc.stdout.splitlines()
                            if line.startswith("trace: "))
                events = json.loads(Path(path).read_text())["traceEvents"]
                ids = {e["args"]["id"] for e in events}
                check(events and all(e["args"]["parent"] == 0
                                     or e["args"]["parent"] in ids
                                     for e in events),
                      f"{workload}: trace spans with unknown parents")
                check(all("." in e["name"] or e["args"]["parent"] == 0
                          for e in events),
                      f"{workload}: child span not named <layer>.<call>")
        print(f"ok: {workload}")

    first = digest_of(run("forest-adaptive", 11, 0).stdout)
    second = digest_of(run("forest-adaptive", 11, 0).stdout)
    check(first is not None and first == second,
          f"digest not reproduced across runs: {first} vs {second}")
    print("ok: digest reproduced across runs")

    env = dict(os.environ, MPCALLOC_THREADS="2")
    proc = run("mpc-sim", 1, 0, env=env)
    check(proc.returncode != 0 and "EnvironmentNotPinned" in proc.stderr,
          "MPCALLOC_THREADS did not stop the run with a named error")
    print("ok: unpinned environment refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())

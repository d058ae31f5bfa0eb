#!/usr/bin/env python3
"""Build and run the mpc-alloc benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload forest-adaptive --seed 1 \
        --seconds 25 --trace 0

Builds the library from the repository's sources and the `perfbench`
driver into $CARGO_TARGET_DIR (default `.bench_build`, relative to the
repository root) as an optimised CMake build, then runs one workload. All
driver output is passed through; its last line is the JSON result. The
exit code is the driver's: 0 only when every correctness check passed.

`--trace 1` also writes a trace-event file (open it in chrome://tracing or
Perfetto) under <build dir>/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("forest-adaptive", "core-fixed", "mpc-sim", "serving-churn")
DEADLINE_S = 170  # a run must end well inside 180 s


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configure (once) and build the driver; returns the executable path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a "
             "full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "perfbench-build.log"
    with open(log, "w") as log_file:
        if not (out_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(out_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log_file,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"cmake configure failed (log: {log})")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(out_dir), "--target",
                           "perfbench", "-j", jobs], stdout=log_file,
                          stderr=subprocess.STDOUT).returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            fail(f"build failed (log: {log})")
    exe = out_dir / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances, for the smoke test only")
    args = parser.parse_args()

    out_dir = build_dir()
    exe = build(out_dir)
    work_dir = out_dir / "work"
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--work-dir", str(work_dir)]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-file",
                    str(traces / f"{args.workload}-seed{args.seed}.trace.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DEADLINE_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    print(f"wall_s: {time.monotonic() - started:.3f}")
    if proc.returncode not in (0, 1) or not lines:
        fail(f"driver exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed a malformed result line")
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

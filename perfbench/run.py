#!/usr/bin/env python3
"""Builds the PartiX benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload items-scan --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench (configured on first use, then
rebuilt incrementally). The benchmark's table goes to stderr; the last line
of stdout is the JSON result. With --trace 1 the spans are also written to
.bench_build/traces/<workload>-seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "partix_perfbench"
# Build, set-up and measurement together stay well inside this.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (first use) and builds the benchmark; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"PartiX sources not found under {ROOT}: run from a checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"benchmark failed with exit code {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    printed = {(name, m["unit"]) for name, m in result["metrics"].items()}
    expected = declared_metrics(args.trace)
    if expected is not None and printed != expected:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(expected - printed)}, "
            f"extra {sorted(printed - expected)}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and reports, per metric,
the median, the quartiles and the quartile spread against the bound that
BENCHMARK.json fixes.

Usage, from the root of a checkout:

    python3 perfbench/steady.py            # 10 seeds per workload
    python3 perfbench/steady.py --sets 2   # two sets, medians compared

Every workload and the run length come from BENCHMARK.json. Runs go
round-robin over the workloads (seed by seed) so slow drift of the host hits
every workload alike; set 1 uses seeds 1-10, set 2 seeds 11-20. The spread
of a metric is (q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). A spread is "steady" below a third of its
bound and "wide" above the bound. With --sets 2 the medians of the two sets
must differ by no more than the bound, in either direction. The report is
written to .bench_build/steady.json and each run's stderr to
.bench_build/steady-logs/. Exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOG_DIR = ROOT / ".bench_build" / "steady-logs"
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with open(LOG_DIR / f"{workload}-seed{seed}.log", "w") as log:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {run.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    LOG_DIR.mkdir(parents=True, exist_ok=True)

    # values[set][workload][metric] -> list of run values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                result = run_once(w, seed, spec["run_seconds"])
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: incorrect answers", file=sys.stderr)
                    return 1
                for m in metrics:
                    values[s][w][m["name"]].append(result["metrics"][m["name"]]["value"])
                summary = " ".join(f"{name}={v['value']:.4g}" for name, v in result["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {summary}", flush=True)

    ok = True
    report = []
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18}{'unit':>6}  {'set':>3}  {'median':>11}  {'q1':>11}  {'q3':>11}"
              f"  {'spread':>7}  {'bound':>6}  verdict")
        for m in metrics:
            medians = []
            for s in range(args.sets):
                median, q1, q3, sp = spread(values[s][w][m["name"]])
                medians.append(median)
                if sp <= m["bound"] / 3:
                    verdict = "steady"
                elif sp <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "WIDE"
                    ok = False
                print(f"  {m['name']:<18}{m['unit']:>6}  {s + 1:>3}  {median:>11.4f}  {q1:>11.4f}"
                      f"  {q3:>11.4f}  {sp:>7.2%}  {m['bound']:>6.0%}  {verdict}")
                report.append({"workload": w, "metric": m["name"], "set": s + 1, "median": median,
                               "q1": q1, "q3": q3, "spread": sp, "bound": m["bound"],
                               "verdict": verdict, "values": values[s][w][m["name"]]})
            if args.sets == 2:
                change = (medians[1] - medians[0]) / medians[0]
                agree = abs(change) <= m["bound"]
                ok = ok and agree
                print(f"  {'':<18}{'':>6}  set 2 median vs set 1: {change:+.2%}"
                      f" ({'agrees' if agree else 'DISAGREES'} within ±{m['bound']:.0%})")
    out = ROOT / ".bench_build" / "steady.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\nreport: {out.relative_to(ROOT)}; {'all checks pass' if ok else 'SOME CHECKS FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

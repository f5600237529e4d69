#!/usr/bin/env python3
"""Steadiness check: is every end-to-end metric steady enough to gate on?

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--seconds S]
                                    [--workloads a,b] [--first-seed 1]

Runs each workload --runs times (one seed per run, untraced) through
perfbench/run.py, one run at a time, and prints for every end-to-end metric
of BENCHMARK.json the median, the quartiles (statistics.quantiles, n=4) and
the spread IQR / median against the metric's bound. A spread wider than the
bound is flagged FAIL, one wider than a third of it WARN. With --sets 2 the
runs are repeated with the same seeds and each metric's second median is
checked against the first: apart by more than the bound, better or worse,
is flagged FAIL. Exits 1 when anything failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: outputs failed checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.runs)

    failed = False
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, seconds))
                print(f"  {workload} set {s + 1} seed {seed}: " +
                      " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
                      flush=True)
            sets.append(runs)
        print(f"{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{seconds:g} s each")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                q1, q2, q3, iqr = spread([r[name] for r in runs])
                medians.append(q2)
                verdict = "ok"
                if iqr > bound:
                    verdict, failed = "FAIL", True
                elif iqr > bound / 3:
                    verdict = "WARN"
                print(f"  {name:16s} set {s + 1}: median {q2:.5g} "
                      f"q1 {q1:.5g} q3 {q3:.5g} {metric['unit']} | "
                      f"IQR/median {iqr:.3f} vs bound {bound:.3f} {verdict}")
            if len(medians) == 2:
                drift = medians[1] / medians[0] - 1.0
                verdict = "FAIL" if abs(drift) > bound else "ok"
                failed = failed or abs(drift) > bound
                print(f"  {name:16s} second median vs first {drift:+.3f} "
                      f"vs bound {bound:.3f} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating perfbench pairs between two checkouts, summarized per metric.

    tools/perf_pairs.py --parent DIR --change DIR --workload W [W ...] \\
        --pairs N --seconds S --first-seed K \\
        [--trend-file bench/trend.jsonl --trend-label LABEL]
    tools/perf_pairs.py --self-test

Pair i runs `python3 perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` once in each checkout, one after the other; the side that runs
first alternates from pair to pair, so a slow drift of the host's state
falls on both sides alike. Each checkout builds and runs its own copy of
the benchmark (perfbench/run.py builds into the checkout's .bench_build/).

For each workload and each end-to-end metric the summary gives both sides'
median and quartiles, the relative change of the medians, in how many
pairs the change read lower, and every pair. Runs that fail (non-zero
exit, no result line) or print `"correct": false` are counted per side,
and their pairs are left out of the metrics.

--trend-file appends one mcs.bench_trend.v1 line per workload: `bench` is
`perfbench/<workload>`, `metrics` holds the change's medians, and `aux`
holds both sides' quartiles, the win counts, the pair count, the run
length, the seeds and the host's CPU count. The tool reads perfbench/ and
changes nothing in it.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

RUN_TIMEOUT_S = 600


def schema_tag(family):
    """Versioned schema tag from tools/schemas.json (the single source of
    truth the C++ side and tools/check_bench.py read too)."""
    path = pathlib.Path(__file__).resolve().parent / "schemas.json"
    with open(path, "r", encoding="utf-8") as f:
        return f"{family}.v{json.load(f)[family]}"


def quartiles(values):
    """(q1, median, q3), linearly interpolated between closest ranks."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_values(result):
    """{name: (value, unit)} of a perfbench result. perfbench writes each
    metric as {"value": v, "unit": u}."""
    return {name: (m["value"], m.get("unit", ""))
            for name, m in result.get("metrics", {}).items()}


def parse_result(stdout):
    """The JSON object on the last non-empty stdout line of perfbench, or
    None when there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def summarize(pairs):
    """Summary of one workload's pairs.

    `pairs` is a list of (parent_result, change_result); a result is a
    perfbench result object or None for a run that failed. Returns a dict
    with the failure counts per side and, per metric, both sides' quartiles,
    the relative change of the medians, the count of pairs where the change
    read lower, and the pairs themselves (pairs with a failed or incorrect
    side are left out).
    """
    sides = ("parent", "change")
    failed = {side: 0 for side in sides}
    incorrect = {side: 0 for side in sides}
    usable = []
    for pair in pairs:
        ok = True
        for side, result in zip(sides, pair):
            if result is None:
                failed[side] += 1
                ok = False
            elif result.get("correct") is not True:
                incorrect[side] += 1
                ok = False
        if ok:
            usable.append(pair)
    usable = [(metric_values(p), metric_values(c)) for p, c in usable]
    names = []
    for pair in usable:
        for values in pair:
            for name in values:
                if name not in names:
                    names.append(name)
    metrics = {}
    for name in names:
        values = [(p[name][0], c[name][0]) for p, c in usable
                  if name in p and name in c]
        if not values:
            continue
        parent = quartiles([p for p, _ in values])
        change = quartiles([c for _, c in values])
        unit = next(side[name][1] for pair in usable for side in pair
                    if name in side)
        metrics[name] = {
            "unit": unit,
            "parent": parent,
            "change": change,
            "relative": (change[1] - parent[1]) / parent[1]
            if parent[1] != 0 else None,
            "lower": sum(1 for p, c in values if c < p),
            "pairs": values,
        }
    return {"failed": failed, "incorrect": incorrect,
            "usable": len(usable), "metrics": metrics}


def format_summary(workload, summary, seeds, seconds):
    out = [f"== {workload}: {summary['usable']} usable pairs of "
           f"{seconds:g} s, seeds {seeds[0]}-{seeds[-1]}"]
    for side in ("parent", "change"):
        out.append(f"   {side}: {summary['failed'][side]} failed, "
                   f"{summary['incorrect'][side]} incorrect")
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        rel = ("n/a" if m["relative"] is None
               else f"{100.0 * m['relative']:+.1f} %")
        out.append(f"{name} ({m['unit']}): parent {p[1]:.6g} "
                   f"[{p[0]:.6g}, {p[2]:.6g}] "
                   f"IQR {p[2] - p[0]:.4g} -> change {c[1]:.6g} "
                   f"[{c[0]:.6g}, {c[2]:.6g}] IQR {c[2] - c[0]:.4g}; "
                   f"{rel}; change lower in {m['lower']} of "
                   f"{len(m['pairs'])}")
        out.append("   pairs (parent/change): " + " ".join(
            f"{pv:.6g}/{cv:.6g}" for pv, cv in m["pairs"]))
    return "\n".join(out)


def trend_record(label, workload, summary, seeds, seconds, wall_s):
    metrics = summary["metrics"]
    return {
        "schema": schema_tag("mcs.bench_trend"),
        "label": label,
        "bench": f"perfbench/{workload}",
        "quick": False,
        "wall_s": wall_s,
        "metrics": {name: m["change"][1] for name, m in metrics.items()},
        "aux": {
            "parent": {name: {"q1": m["parent"][0], "median": m["parent"][1],
                              "q3": m["parent"][2]}
                       for name, m in metrics.items()},
            "change": {name: {"q1": m["change"][0], "median": m["change"][1],
                              "q3": m["change"][2]}
                       for name, m in metrics.items()},
            "change_lower_in": {name: m["lower"]
                                for name, m in metrics.items()},
            "pairs": summary["usable"],
            "failed": summary["failed"],
            "incorrect": summary["incorrect"],
            "run_seconds": seconds,
            "seeds": seeds,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run in checkout `tree`: (result or None,
    wall seconds)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"   {tree}: timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None, time.monotonic() - start
    wall = time.monotonic() - start
    result = parse_result(proc.stdout) if proc.returncode in (0, 1) else None
    if result is None:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        print(f"   {tree}: run failed (exit {proc.returncode})\n{tail}",
              file=sys.stderr)
    return result, wall


def run_pairs(args):
    records = []
    for workload in args.workload:
        seeds = [args.first_seed + i for i in range(args.pairs)]
        pairs = []
        wall_s = 0.0
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                            "parent"]
            got = {}
            for side in order:
                tree = args.parent if side == "parent" else args.change
                got[side], wall = run_once(tree, workload, seed,
                                           args.seconds)
                wall_s += wall
            pairs.append((got["parent"], got["change"]))
            # Each pair as it lands, so an interrupted set loses nothing.
            print(f"   {workload} pair {i + 1}/{args.pairs} seed {seed} "
                  f"({order[0]} first): " + json.dumps(
                      {side: got[side] and metric_values(got[side])
                       for side in ("parent", "change")}),
                  flush=True)
        summary = summarize(pairs)
        print(format_summary(workload, summary, seeds, args.seconds),
              flush=True)
        records.append(trend_record(args.trend_label, workload, summary,
                                    seeds, args.seconds, wall_s))
    if args.trend_file:
        with open(args.trend_file, "a", encoding="utf-8") as f:
            for record in records:
                f.write(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        print(f"appended {len(records)} trend record(s) to "
              f"{args.trend_file}")


def self_test():
    """Checks the summary arithmetic on a canned list of pairs."""
    def result(wall, rss, correct=True):
        return {"correct": correct, "attempted": 100, "failed": 0,
                "metrics": {"wall_per_sim_s": {"value": wall,
                                               "unit": "s/s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert parse_result("build noise\n{\"correct\": true}\n\n") == {
        "correct": True}
    assert parse_result("no json here") is None
    assert parse_result("") is None

    pairs = [
        (result(2.0, 300.0), result(1.5, 301.0)),
        (result(1.8, 300.0), result(1.6, 299.0)),
        (result(2.2, 300.0), result(2.4, 300.5)),
        (result(1.9, 300.0), result(1.5, 300.0)),
        (result(2.1, 300.0), result(1.7, 301.0)),
        (None, result(1.0, 300.0)),                  # parent failed
        (result(2.0, 300.0), result(1.0, 300.0, correct=False)),
    ]
    s = summarize(pairs)
    assert s["failed"] == {"parent": 1, "change": 0}, s["failed"]
    assert s["incorrect"] == {"parent": 0, "change": 1}, s["incorrect"]
    assert s["usable"] == 5
    wall = s["metrics"]["wall_per_sim_s"]
    assert wall["parent"] == (1.9, 2.0, 2.1), wall["parent"]
    assert wall["change"] == (1.5, 1.6, 1.7), wall["change"]
    assert abs(wall["relative"] - (-0.2)) < 1e-12, wall["relative"]
    assert wall["lower"] == 4
    assert wall["pairs"][2] == (2.2, 2.4)
    assert wall["unit"] == "s/s"
    rss = s["metrics"]["peak_rss_mb"]
    assert rss["lower"] == 1  # equal values do not count as lower
    assert rss["change"][1] == 300.5

    record = trend_record("label", "mesh8_saturated", s, [1, 2], 25.0, 9.5)
    assert record["schema"] == "mcs.bench_trend.v1"
    assert record["bench"] == "perfbench/mesh8_saturated"
    assert record["metrics"] == {"wall_per_sim_s": 1.6,
                                 "peak_rss_mb": 300.5}
    assert record["aux"]["parent"]["wall_per_sim_s"] == {
        "q1": 1.9, "median": 2.0, "q3": 2.1}
    assert record["aux"]["change_lower_in"]["wall_per_sim_s"] == 4
    assert record["aux"]["pairs"] == 5
    assert record["aux"]["run_seconds"] == 25.0
    assert record["aux"]["seeds"] == [1, 2]
    assert record["aux"]["nproc"] >= 1
    text = format_summary("mesh8_saturated", s, [1, 2], 25.0)
    assert "change lower in 4 of 5" in text, text
    assert "wall_per_sim_s (s/s)" in text, text
    assert "-20.0 %" in text, text
    assert "2.2/2.4" in text, text
    print("perf_pairs self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="check the summary arithmetic and exit")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", nargs="+",
                        help="perfbench workload name(s)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="perfbench --seconds per run")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair i runs seed first_seed + i")
    parser.add_argument("--trend-file",
                        help="append one mcs.bench_trend.v1 line per "
                             "workload to this file")
    parser.add_argument("--trend-label",
                        help="label of the trend lines, e.g. a PR tag")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    if args.trend_file and not args.trend_label:
        parser.error("--trend-file needs --trend-label")
    for tree in (args.parent, args.change):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} has no perfbench/run.py")
    run_pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

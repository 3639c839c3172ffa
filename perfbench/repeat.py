#!/usr/bin/env python3
"""Repeat runner: runs each workload N times with seeds 1..N for
BENCHMARK.json's run_seconds and prints, per metric, the median, the
quartiles and the spread (IQR / median) against the metric's bound.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10              # every workload, one set
    python3 perfbench/repeat.py --runs 10 --sets 2     # two sets, medians compared
    python3 perfbench/repeat.py --runs 5 --workload churn-5e5 --same-seed --verbose
    python3 perfbench/repeat.py --runs 3 --trace 1     # per-layer medians

Verdict per end-to-end metric and set: `steady` if the spread is below a
third of its bound, `ok` if it is within the bound, `OVER` otherwise. With
`--sets 2` or more, each later set's median is compared with the first
set's: `drift` is how much worse it is (in the metric's `better`
direction), and `OVER` marks a drift beyond the bound. Every set runs the
same seeds, so sets differ only by the machine's timing.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(share, bound):
    if bound is None:
        return ""
    if share < bound / 3:
        return "steady"
    return "ok" if share <= bound else "OVER"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1,
                    help="run sets of --runs each; later sets' medians are compared with the first's")
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--same-seed", action="store_true",
                    help="run every repeat with seed 1 (separates timing noise from input variation)")
    ap.add_argument("--verbose", action="store_true", help="print every run's metrics")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]

    # Build once, outside every measurement.
    subprocess.run(bench["command"] + ["--help"], capture_output=True)

    over = []
    medians = {}  # (workload, metric) -> median of each set
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for k in range(args.runs):
                seed = 1 if args.same_seed else 1 + k
                result, wall = run_once(bench["command"], w, seed, seconds, args.trace)
                runs.append(result)
                print(f"set {s + 1} {w} seed {seed}: wall {wall:.1f} s, attempted "
                      f"{result['attempted']}, failed {result['failed']}, "
                      f"correct {result['correct']}", flush=True)
                if not result["correct"] or result["failed"]:
                    over.append(f"set {s + 1} {w} seed {seed}: failed ops")
                if args.verbose:
                    print("   ", " ".join(f"{d['name']}={result['metrics'][d['name']]['value']:.6g}"
                                          for d in defs), flush=True)
            print(f"\nset {s + 1} {w}: {args.runs} runs")
            print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
                  f"{'bound':>6}")
            for d in defs:
                med, q1, q3, spread = summary([r["metrics"][d["name"]]["value"] for r in runs])
                bound = d.get("bound")
                v = verdict(spread, bound)
                if v == "OVER":
                    over.append(f"set {s + 1} {w} {d['name']}: spread {spread:.3f} > {bound}")
                medians.setdefault((w, d["name"]), []).append(med)
                print(f"  {d['name']:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                      f"{'' if bound is None else bound:>6} {v}")
            print(flush=True)

    if args.sets > 1 and not args.trace:
        print("set medians (first set against each later set)")
        print(f"  {'workload':20} {'metric':28} {'medians':>40} {'drift':>8} {'bound':>6}")
        for w in workloads:
            for d in defs:
                meds = medians[(w, d["name"])]
                first = meds[0]
                sign = -1 if d["better"] == "higher" else 1
                drifts = [sign * (m - first) / first if first else 0.0 for m in meds[1:]]
                drift = max(drifts)
                v = "OVER" if drift > d["bound"] else "ok"
                if v == "OVER":
                    over.append(f"{w} {d['name']}: set median drift {drift:.3f} > {d['bound']}")
                shown = " ".join(f"{m:.6g}" for m in meds)
                print(f"  {w:20} {d['name']:28} {shown:>40} {drift:8.4f} {d['bound']:>6} {v}")
        print()
    if not args.trace:
        print("verdict:", "every spread and drift within its bound" if not over
              else f"{len(over)} beyond bound:\n  " + "\n  ".join(over))


if __name__ == "__main__":
    main()

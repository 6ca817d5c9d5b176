#!/usr/bin/env python3
"""A/A check of the papyrusd benchmark: two sets of runs of the same code.

    python3 perfbench/aa.py [--runs 10] [--sets 2] [--trace 0|1]
                            [--workloads deep_history,warm_rerun]
                            [--seconds S] [--json FILE]

Runs `--runs` seeds per set and workload through run.py (each run with
another seed, the same seeds 1000, 1001, ... in every set) and prints,
per metric, each set's median, quartiles and spread (interquartile
distance over the median), and how far the last set's median moved from
the first's, as a share of the first, signed so that positive is worse.
With BENCHMARK.json's bounds this is the test a benchmark must pass:
every spread within its bound, no median worse by more than its bound,
the same failed share in every set. Since every set runs the same seeds,
it also fails unless the count metrics of each seed repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Exact counts: the same seed must give the same value on every run.
COUNTS = ("fsyncs_per_task", "write_bytes_per_task", "store_bytes_per_task",
          "virtual_s_per_task")


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json")
    args = parser.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 + i
                result = run_once(workload, seed, args.seconds, args.trace)
                runs.append(result)
                print(f"{workload} set {s + 1} seed {seed}: correct="
                      f"{result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}", file=sys.stderr)
            sets.append(runs)
        report[workload] = {}
        print(f"\n== {workload}")
        print(f"{'metric':40} " + " ".join(
            f"{'set' + str(s + 1) + ' median [q1, q3] spread':>44}"
            for s in range(args.sets)) + "   moved")
        for metric in metrics:
            name = metric["name"]
            rows = [summary([r["metrics"][name]["value"] for r in runs])
                    for runs in sets]
            first, last = rows[0]["median"], rows[-1]["median"]
            moved = (last - first) / first if first else 0.0
            if metric.get("better") == "higher":
                moved = -moved
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                wide = any(r["spread"] > bound for r in rows)
                if wide or moved > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif any(r["spread"] > bound / 3 for r in rows):
                    flag = "  over a third of bound"
            if name in COUNTS and not args.trace:
                per_seed = zip(*([r["metrics"][name]["value"] for r in runs]
                                 for runs in sets))
                apart = max((max(v) - min(v)) / min(v) for v in per_seed)
                if apart != 0:
                    flag += f"  NOT REPEATED (up to {apart:.1e} apart)"
                    ok = False
            print(f"{name:40} " + " ".join(
                f"{r['median']:14.6g} [{r['q1']:10.4g}, {r['q3']:10.4g}]"
                f" {r['spread']:6.3f}" for r in rows) +
                f"  {moved:+.3f}{flag}")
            report[workload][name] = {
                "sets": rows, "moved": moved,
                "values": [[r["metrics"][name]["value"] for r in runs]
                           for runs in sets]}
        shares = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"failed share per set: {shares}; all correct: {correct}")
        ok = ok and correct and len(set(shares)) == 1
        report[workload]["failed_share"] = shares
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

For every workload and end-to-end metric this prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`), the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json. A spread
at or above a third of the bound is flagged. It also checks that the share
of failed operations is the same in every run and that `sim_cycles` never
changes.

With `--sets 2` it makes two sets of runs of the same code, interleaved
run by run (seed 1 of each set, then seed 2 of each, and so on). It then
checks that the second set's median of every metric is not worse than
the first's by more than the metric's bound.

    python3 perfbench/steadiness.py                    # seeds 1-10, every workload
    python3 perfbench/steadiness.py --workload sim-apps --runs 5
    python3 perfbench/steadiness.py --sets 2           # two interleaved sets

Run it from the repository root.
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
    begun = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), time.monotonic() - begun


def report_set(label, runs, bounds):
    """Print one set's table; return whether it is steady, and its medians."""
    steady = True
    shares = {r["failed"] / r["attempted"] for r in runs}
    cycles = {r["metrics"]["sim_cycles"]["value"] for r in runs}
    print(f"\n{label}: failed share {sorted(shares)}; sim_cycles {sorted(cycles)}")
    if len(shares) != 1 or len(cycles) != 1 or not all(r["correct"] for r in runs):
        steady = False
    print(f"  {'metric':<18} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>9}")
    medians = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = medians[name] = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name != "setup_s" and spread >= bound / 3:
            steady = False
            flag = "  <-- above bound/3"
        print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>9.3g}{flag}")
    return steady, medians, shares


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    command = bench["command"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    steady = True
    for w in workloads:
        sets = [[] for _ in range(a.sets)]
        for i in range(a.runs):
            seed = 1 + i
            for k, runs in enumerate(sets):
                r, wall = run_once(command, w, seed, a.seconds, 0)
                runs.append(r)
                print(f"{w} set {k + 1} seed {seed} ({wall:.1f} s): attempted {r['attempted']} "
                      f"failed {r['failed']} "
                      + " ".join(f"{n}={v['value']:.6g}" for n, v in r["metrics"].items()),
                      flush=True)
        reports = []
        for k, runs in enumerate(sets):
            ok, medians, shares = report_set(f"{w} set {k + 1}", runs, bounds)
            steady &= ok
            reports.append((medians, shares))
        if a.sets == 2:
            (first, shares1), (second, shares2) = reports
            print(f"\n{w}: set 2 against set 1 (worse by more than the bound fails)")
            print(f"  {'metric':<18} {'set 1':>14} {'set 2':>14} {'change':>8}")
            if shares1 != shares2:
                steady = False
                print(f"  failed shares differ: {sorted(shares1)} against {sorted(shares2)}")
            for name, m in metrics.items():
                change = (second[name] - first[name]) / first[name]
                worse = change if m["better"] == "lower" else -change
                agree = worse <= m["bound"]
                steady &= agree
                print(f"  {name:<18} {first[name]:>14.6g} {second[name]:>14.6g} "
                      f"{change:>+8.4f} {'agree' if agree else 'WORSE BY MORE THAN THE BOUND'}")
        print()
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

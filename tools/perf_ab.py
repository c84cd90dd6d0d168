#!/usr/bin/env python3
"""Compare two builds of the repository benchmark, run alternately pair by pair.

Give it two `scratch-perfbench` binaries, the parent's first. For each pair
it runs both on the same seed, one after the other, and alternates which
side goes first (the parent on even pairs, the change on odd ones), so a
host that drifts over the runs moves both sides of every pair alike.
Run it from a directory holding BENCHMARK.json (the binaries write their
output under `.perfbench_out/` there); every run is untraced and lasts the
benchmark's `run_seconds`, the same on both sides.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the change/parent ratio of the medians, how many pairs the
change won (ties count for neither side) and whether the change's median
is worse than the parent's by more than the metric's bound. It checks that
`sim_cycles` is the same in every run of both sides and reports failed
operations. With `--claim METRIC` it also applies the gain rule: the change
must win at least nine pairs in ten, and its median must differ from the
parent's by more than the distance between the parent's quartiles.

    python3 tools/perf_ab.py parent/scratch-perfbench change/scratch-perfbench \\
        --workload sim-apps --pairs 10 --first-seed 1001 --claim sim_instr_per_s

Exits non-zero when `sim_cycles` differs, an operation failed, a metric is
worse than its bound, or a claimed gain is not shown.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(binary, workload, seed, seconds):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    begun = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), time.monotonic() - begun


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the parent commit's scratch-perfbench binary")
    p.add_argument("change", help="the change's scratch-perfbench binary")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1,
                   help="pair i runs seed first_seed + i on both sides")
    p.add_argument("--claim", action="append", default=[],
                   help="end-to-end metric the change claims to improve (repeatable)")
    p.add_argument("--out", help="append every run as one JSON line to this file")
    a = p.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for name in a.claim:
        if name not in metrics:
            sys.exit(f"--claim {name}: not an end-to-end metric of BENCHMARK.json")

    runs = {"parent": [], "change": []}
    out = open(a.out, "a") if a.out else None
    for i in range(a.pairs):
        seed = a.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r, wall = run_once(getattr(a, side), a.workload, seed, bench["run_seconds"])
            runs[side].append(r)
            if out:
                out.write(json.dumps({"workload": a.workload, "pair": i, "seed": seed,
                                      "side": side, "wall_s": wall, "result": r}) + "\n")
                out.flush()
            print(f"{a.workload} pair {i + 1} seed {seed} {side:<6} ({wall:.1f} s): "
                  f"attempted {r['attempted']} failed {r['failed']} "
                  + " ".join(f"{n}={r['metrics'][n]['value']:.6g}" for n in metrics),
                  flush=True)

    ok = True
    cycles = {side: sorted({r["metrics"]["sim_cycles"]["value"] for r in rs})
              for side, rs in runs.items()}
    same_cycles = len(set(cycles["parent"]) | set(cycles["change"])) == 1
    ok &= same_cycles
    print(f"\n{a.workload}: {a.pairs} pairs, {bench['run_seconds']} s runs, seeds "
          f"{a.first_seed}-{a.first_seed + a.pairs - 1}")
    print(f"  sim_cycles: parent {cycles['parent']}, change {cycles['change']} -> "
          f"{'identical' if same_cycles else 'DIFFERENT'}")
    for side, rs in runs.items():
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        correct = all(r["correct"] for r in rs)
        ok &= failed == 0 and correct
        print(f"  {side}: {failed} of {attempted} operations failed, "
              f"outputs {'correct' if correct else 'NOT correct'}")

    print(f"\n  {'metric':<18} {'parent med':>13} {'parent Q1-Q3':>27} {'change med':>13} "
          f"{'change Q1-Q3':>27} {'ratio':>7} {'wins':>6}  verdict")
    for name, m in metrics.items():
        pv = [r["metrics"][name]["value"] for r in runs["parent"]]
        cv = [r["metrics"][name]["value"] for r in runs["change"]]
        pmed, cmed = statistics.median(pv), statistics.median(cv)
        (pq1, pq3), (cq1, cq3) = quartiles(pv), quartiles(cv)
        lower = m["better"] == "lower"
        wins = sum(1 for x, y in zip(pv, cv) if (y < x if lower else y > x))
        losses = sum(1 for x, y in zip(pv, cv) if (y > x if lower else y < x))
        ratio = cmed / pmed if pmed else float("nan")
        worse = (cmed - pmed) / pmed if pmed else 0.0
        if not lower:
            worse = -worse
        verdict = "within bound" if worse <= m["bound"] else "WORSE THAN BOUND"
        ok &= worse <= m["bound"]
        if name in a.claim:
            gain = pmed - cmed if lower else cmed - pmed
            shown = wins >= 0.9 * a.pairs and gain > pq3 - pq1
            verdict += "; gain shown" if shown else "; gain NOT shown"
            ok &= shown
        print(f"  {name:<18} {pmed:>13.6g} {pq1:>13.6g}-{pq3:<13.6g} {cmed:>13.6g} "
              f"{cq1:>13.6g}-{cq3:<13.6g} {ratio:>7.3f} {wins:>2}/{wins + losses:<3}  {verdict}")
    print("\nok" if ok else "\nNOT ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

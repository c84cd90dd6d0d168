#!/usr/bin/env python3
"""Measure how much the host's speed drifts while nothing else changes.

Times one fixed pure-Python loop back to back for --seconds and prints the
median loop time of each second, then the mean of those medians over
windows of 5, 10, 20 and 30 seconds. The spread of the window means is
the noise a benchmark run of that length sees from the host alone.

    python3 perfbench/drift.py --seconds 60
"""

import argparse
import statistics
import time


def work():
    s = 0
    for i in range(200_000):
        s += i * i
    return s


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=60)
    a = p.parse_args()
    start = time.monotonic()
    per_second = {}
    while time.monotonic() - start < a.seconds:
        t = time.perf_counter()
        work()
        ms = (time.perf_counter() - t) * 1e3
        per_second.setdefault(int(time.monotonic() - start), []).append(ms)
    meds = [statistics.median(v) for _, v in sorted(per_second.items())]
    print("loop ms, median of each second:", " ".join(f"{m:.1f}" for m in meds))
    print(f"min {min(meds):.1f}  median {statistics.median(meds):.1f}  max {max(meds):.1f}")
    for w in (5, 10, 20, 30):
        means = [statistics.mean(meds[i:i + w]) for i in range(0, len(meds) - w + 1, w)]
        if len(means) > 1:
            spread = (max(means) - min(means)) / statistics.median(means)
            print(f"{w:>2} s windows: " + " ".join(f"{m:.2f}" for m in means)
                  + f"   (max - min) / median = {spread:.3f}")


if __name__ == "__main__":
    main()

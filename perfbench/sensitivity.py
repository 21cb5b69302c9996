#!/usr/bin/env python3
"""Sensitivity check for the sampling workload.

Adds a known amount of extra arithmetic to the benchmark's own sample body
(--body-spin; program code is untouched) and checks that throughput_per_s
on the sampling workload moves by more than its BENCHMARK.json bound, while
a repeat of the unmodified benchmark stays inside it. Runs are interleaved
(baseline, repeat, slowed) so that drift in machine speed hits all three
sets alike.

    python3 perfbench/sensitivity.py --runs 10 --seconds 25 --spin 150

Run from the repository root. Prints one line per run and a summary.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(seed, seconds, spin):
    cmd = ["bash", "perfbench/run.sh", "--workload", "sampling", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--body-spin", str(spin)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"run failed its output check: {cmd}")
    return res["metrics"]["throughput_per_s"]["value"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--spin", type=int, default=150)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "throughput_per_s")

    sets = {"baseline": [], "repeat": [], "slowed": []}
    for i in range(args.runs):
        seed = 100 + i
        sets["baseline"].append(run(seed, args.seconds, 0))
        sets["repeat"].append(run(seed, args.seconds, 0))
        sets["slowed"].append(run(seed, args.seconds, args.spin))
        print(f"run {i}: " + "  ".join(f"{k} {v[-1]:.0f}" for k, v in sets.items()), flush=True)

    base = statistics.median(sets["baseline"])
    q = statistics.quantiles(sets["baseline"], n=4)
    print(f"bound {bound}; baseline median {base:.0f} samples/s, spread {(q[2] - q[0]) / base:.4f}")
    for name in ("repeat", "slowed"):
        m = statistics.median(sets[name])
        change = m / base - 1
        wins = sum(b > x for b, x in zip(sets["baseline"], sets[name]))
        flagged = change < -bound
        print(f"{name}: median {m:.0f} samples/s, change {change:+.4f}, "
              f"baseline faster in {wins}/{args.runs} pairs, flagged by the bound: {flagged}")


if __name__ == "__main__":
    main()

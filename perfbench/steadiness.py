#!/usr/bin/env python3
"""Steadiness self-check: runs one workload N times with N seeds and prints,
for each metric, its median, quartiles and spread.

    python3 perfbench/steadiness.py --workload batch [--runs 10] \
        [--first-seed 1] [--trace 0]

The spread is (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4). For end-to-end metrics it is compared
with the metric's bound in BENCHMARK.json: "steady" below a third of the
bound, "ok" within it, "WIDE" beyond it (setup_s is reported but has no
spread limit). Also prints each run's failed share, which must not vary.
Run from the root of a relmax checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.time()
        run = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}")
            return 1
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        shares.add(share)
        print(f"seed {seed}: {time.time() - start:.1f} s wall, "
              f"correct={result['correct']}, attempted={result['attempted']}, "
              f"failed share={share}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':28} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = ("steady" if spread < bound / 3 else
                       "ok" if spread <= bound else "WIDE")
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6} {verdict}")
    print(f"\nfailed shares seen: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

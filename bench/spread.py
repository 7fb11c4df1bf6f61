#!/usr/bin/env python3
"""Run bench/run.py over several seeds and report each metric's spread.

    python3 bench/spread.py --workload large --seeds 1-10 [--seconds 25] [--trace 0]

Runs one seed at a time, in order, from the repository root.  For every
metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median; it
also prints the share of failed operations and each run's duration.
With --trace 1 and a repeated seed (--seeds 5,5) it reports whether the
count metrics were identical across the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    runs = []
    failures = 0
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload]
        argv += ["--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        t0 = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        took = time.monotonic() - t0
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {done.returncode}", flush=True)
            failures += 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(
            f"seed {seed}: {took:.1f} s, correct={result['correct']}, "
            f"failed {result['failed']}/{result['attempted']}, "
            f"wall_s {result['metrics'].get('wall_s', {}).get('value', float('nan')):.4g}",
            flush=True,
        )

    if not runs:
        return 1
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share across runs: {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        same = "" if len(set(values)) > 1 else " (identical)"
        print(f"{name:40s} {unit:6s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{same}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""lexmatch benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {decay,oracles,large,solve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One caller in one process and one thread
runs rounds of the workload's operations back to back on inputs made from
--seed, starting another round while it is expected to end within
--seconds (always at least one).  Outputs are checked after the rounds.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports wall_s, cpu_s (medians over rounds), peak_rss_mb and
setup_s (median over fresh processes).  --trace 1 runs one untraced
round and one traced round and reports the per-layer metrics of
spans.py; the spans go to bench/out/trace-<workload>.npz.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 5
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_lexmatch():
    """Import lexmatch from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "lexmatch", "__init__.py")):
        raise SystemExit(f"bench: no lexmatch sources under {SRC}")
    sys.path.insert(0, SRC)
    import lexmatch
    from lexmatch import bp, cli, exact, genfn, randgraph, rde, xharness

    if os.path.dirname(os.path.dirname(os.path.abspath(lexmatch.__file__))) != SRC:
        raise SystemExit(f"bench: imported lexmatch from {lexmatch.__file__}, not {SRC}")
    return {
        "genfn": genfn,
        "randgraph": randgraph,
        "bp": bp,
        "exact": exact,
        "rde": rde,
        "xharness": xharness,
        "cli": cli,
    }


def set_up(workload: str, seed: int, workdir: str):
    """Everything before the first timed operation: imports, configs, inputs."""
    modules = import_lexmatch()
    import workloads

    return modules, workloads.WORKLOADS[workload](seed, workdir)


def probe_setup_s(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup"]
    argv += ["--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def run_round(wl) -> dict:
    gc.collect()
    results, failed = {}, 0
    ops = wl.operations()
    w0, c0 = time.perf_counter(), time.process_time()
    for label, op in ops:
        try:
            results[label] = op()
        except Exception:
            failed += 1
            results[label] = None
            traceback.print_exc(file=sys.stderr)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    wl.after_round(results)
    return {"results": results, "wall": wall, "cpu": cpu, "attempted": len(ops), "failed": failed}


def measure(wl, seconds: float) -> tuple[list, dict]:
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round(wl))
        if len(rounds) == 1:
            # peak through set-up and one round, whatever the round count; ru_maxrss is KiB
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        typical = statistics.median(r["wall"] for r in rounds)
        if time.perf_counter() - started + typical > seconds:
            break
    metrics = {
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    return rounds, metrics


def trace(wl, modules: dict, workload: str) -> tuple[list, dict, list]:
    from spans import PER_LAYER, Tracer

    plain = run_round(wl)
    tracer = Tracer(modules)
    tracer.install()
    try:
        traced = run_round(wl)
    finally:
        tracer.uninstall()
    problems = tracer.check_counts(wl.expected_calls()) if traced["failed"] == 0 else []
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload}.npz"))
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return [plain, traced], {k: (v, units[k]) for k, v in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["decay", "oracles", "large", "solve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")

    if args.probe_setup:
        set_up(args.workload, args.seed, workdir)
        print(time.monotonic())
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        modules, wl = set_up(args.workload, args.seed, workdir)
        if args.trace:
            rounds, metrics, problems = trace(wl, modules, args.workload)
        else:
            setup_s = statistics.median(
                probe_setup_s(args.workload, args.seed) for _ in range(SETUP_PROBES)
            )
            rounds, values = measure(wl, args.seconds)
            values["setup_s"] = setup_s
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
            problems = []
        problems += wl.check([r["results"] for r in rounds])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"bench: CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

Usage, from the repository root:

    python3 perfbench/sweep.py --workload ladder [--workload verify ...] \\
        --seeds 0-9

Runs ``run.py --trace 0`` once per seed, one process at a time, for
``run_seconds`` of ``BENCHMARK.json``, and prints per workload and
end-to-end metric the median and the spread (Q3 - Q1) / median, the
quartiles being ``statistics.quantiles(values, n=4)``.  The last stdout
line is the whole summary as JSON.  A run that fails or reports
``correct: false`` is listed and stops the sweep with exit 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 1,4,7")
    args = parser.parse_args(argv)
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    summary = {}
    for workload in args.workload:
        per_metric = {}
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=False)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {took:.1f} s, "
                  f"{result['attempted']} calls", flush=True)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarize(values)
                             for name, values in per_metric.items()}
        for name, stats in summary[workload].items():
            print(f"  {name:<44} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steadiness.py --workload select-ties --seeds 1-10 --seconds 25

Runs ``perfbench/run.py`` in a fresh process per seed, one at a time,
and prints, per metric, the median of the runs and the distance between
their first and third quartiles as a share of that median (the spread
the end-to-end bounds in BENCHMARK.json are judged against), plus the
wall time of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    walls = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {walls[-1]:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
    print(f"{'metric':<46} {'median':>12} {'IQR/median':>10} {'min':>12} {'max':>12}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}" if med else "-"
        else:
            spread = "-"
        print(f"{name:<46} {med:>12.5g} {spread:>10} {min(vals):>12.5g} {max(vals):>12.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

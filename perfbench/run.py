"""Benchmark of lexsel's selection passes and evolve generations.

    python3 perfbench/run.py --workload select-distinct --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process runs one workload: set-up (repeated, median
reported), then whole rounds of one timed operation per method until the
time is spent, then the output checks.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates traced and untraced rounds
and prints the per-layer metrics, including the tracing overhead.  The
last line of standard output is one JSON object; a fuller record,
spans included, goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

# One OpenBLAS thread: on a small shared machine a second thread adds
# contention noise and no steadiness.
BLAS_THREADS = 1
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    # Must be set before numpy loads OpenBLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lexsel", "__init__.py")):
        print(f"error: no package sources at {src}/lexsel", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)

    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    probe = measure.SpeedProbe()
    setup_raw, setup_scaled = measure.timed_setup(workload, SETUP_REPEATS, probe)

    phases = {"setup": sum(setup_raw)}
    start = time.perf_counter()
    record = measure.run_rounds(workload, args.seconds, bool(args.trace), probe)
    phases["rounds"] = time.perf_counter() - start
    report = record["checks"]
    correct = True
    try:
        start = time.perf_counter()
        workload.check_outputs(report)
        phases["check_outputs"] = time.perf_counter() - start
        start = time.perf_counter()
        workload.check_tiny(report)
        phases["check_tiny"] = time.perf_counter() - start
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    for failure in record["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = correct and not record["check_failures"]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = measure.per_layer_metrics(record)
    else:
        metrics = measure.end_to_end_metrics(record)
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s"}

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": threads,
        "setup_seconds": setup_raw,
        "setup_scaled": setup_scaled,
        "probe_seconds": record["probes"],
        "phase_seconds": phases,
        "rounds": record["rounds"],
        "peak_rss_mb": peak_rss_mb,
        "checks": report,
        "check_failures": record["check_failures"],
        "samples": measure.sample_summary(record),
        "metrics": metrics,
        "untraced_layers": sorted(record["untraced_layers"]),
        "spans": record["spans"],
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh)

    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

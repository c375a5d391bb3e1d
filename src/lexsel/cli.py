"""Command line front end.

Four subcommands: ``select`` runs one selection pass over a population
CSV, ``compare`` measures selection distributions against the exact
lexicase reference, ``bench`` times methods on synthetic matrix
regimes, and ``evolve`` drives the miniature evolutionary harness from
a config file.

Every command is deterministic given its seed flags.  Exit codes: 0
success, 2 input parse errors, 3 shape errors, 4 configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys

import numpy as np

from .bench import REGIMES, BenchRecord, run_bench
from .core import (
    RandomSource,
    build_classes,
    expand_class_selection,
    load_error_matrix,
    load_support_matrix,
)
from .evolve import PROBLEM_KINDS, SyntheticProblem, fidelity_trace, run_evolution
from .exceptions import (
    ConfigError,
    InstanceTooLargeError,
    ParseError,
    ShapeError,
)
from .metrics import js_divergence
from .oracle import (
    MAX_ORACLE_CASES,
    MAX_ORACLE_CLASSES,
    _fits_guard,
    _method_distribution,
    distribution_over_individuals,
    empirical_distribution,
)
from .selectors import (
    IMPORTANCE_DISTRIBUTIONS,
    SelectorConfig,
    _parse_typed,
    config_from_mapping,
    select_classes,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_CONFIG = 4


def _add_selector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pressure", type=float, default=20.0,
                        help="particularity pressure (importance score std)")
    parser.add_argument("--distribution", default="normal",
                        help=f"importance distribution: {', '.join(IMPORTANCE_DISTRIBUTIONS)}")
    parser.add_argument("--relaxed", action="store_true",
                        help="standardize each case column before weighting")
    parser.add_argument("--batch-size", type=int, default=1,
                        help="cases per batch for batch_lexicase")
    parser.add_argument("--batch-threshold-mode", default="mad",
                        help="batch survival threshold: mad or absolute")
    parser.add_argument("--batch-threshold-value", type=float, default=0.0,
                        help="threshold used by absolute mode")


def _config_from_args(args, method: str) -> SelectorConfig:
    return SelectorConfig(
        method=method,
        pressure=args.pressure,
        distribution=args.distribution,
        relaxed=args.relaxed,
        batch_size=args.batch_size,
        batch_threshold_mode=args.batch_threshold_mode,
        batch_threshold_value=args.batch_threshold_value,
    )


def _load_matrices(errors_path: str, support_path: str | None):
    try:
        errors = load_error_matrix(errors_path)
    except OSError as exc:
        raise ParseError(f"cannot read {errors_path}: {exc.strerror or exc}") from None
    support = None
    if support_path is not None:
        try:
            support = load_support_matrix(support_path)
        except OSError as exc:
            raise ParseError(f"cannot read {support_path}: {exc.strerror or exc}") from None
    return errors, support


def cmd_select(args) -> int:
    errors, support = _load_matrices(args.errors, args.support)
    cfg = _config_from_args(args, args.method)
    rng = RandomSource(args.seed)
    classing = build_classes(errors, support)
    events = args.events if args.events is not None else classing.n
    picks = select_classes(classing, events, cfg, rng)
    if args.emit_distribution:
        dist = empirical_distribution(picks, classing.k)
        probs = distribution_over_individuals(classing, dist)
        payload = {
            "kind": "empirical",
            "n_samples": int(events),
            "probs": [float(p) for p in probs],
        }
        print(json.dumps(payload))
    else:
        individuals = expand_class_selection(classing, picks, rng)
        for index in individuals:
            print(int(index))
    return EXIT_OK


def cmd_compare(args) -> int:
    errors, support = _load_matrices(args.errors, args.support)
    rng = RandomSource(args.seed)
    classing = build_classes(errors, support)

    if not (_fits_guard(classing) or args.allow_empirical_reference):
        raise InstanceTooLargeError(
            f"instance exceeds the exact-oracle guard (m <= {MAX_ORACLE_CASES}, "
            f"k <= {MAX_ORACLE_CLASSES}); pass --allow-empirical-reference to "
            "compare against sampled lexicase instead"
        )
    reference = _method_distribution(
        classing, SelectorConfig("lexicase"), rng.child(0), args.samples
    )
    p_ind = distribution_over_individuals(classing, reference)

    lineage = args.lineage_id
    if lineage is not None and not 0 <= lineage < classing.n:
        raise ShapeError(
            f"lineage id {lineage} out of range for population of {classing.n}"
        )

    methods = [w.strip() for w in args.methods.split(",") if w.strip()]
    if not methods:
        raise ConfigError("methods: no method names given")
    per_method = {}
    for j, name in enumerate(methods):
        cfg = _config_from_args(args, name)
        if name == "lexicase" and reference.kind == "exact":
            dist = reference
        else:
            dist = _method_distribution(classing, cfg, rng.child(1, j), args.samples)
        q_ind = distribution_over_individuals(classing, dist)
        entry = {"mode": dist.kind, "js_divergence": js_divergence(q_ind, p_ind)}
        if lineage is not None:
            p = float(p_ind[lineage])
            entry["probability_ratio"] = (
                None if p == 0.0 else float(q_ind[lineage]) / p
            )
        per_method[name] = entry

    payload = {
        "reference": {"method": "lexicase", "mode": reference.kind},
        "seed": args.seed,
        "samples": args.samples,
        "lineage_id": lineage,
        "methods": per_method,
    }
    print(json.dumps(payload))
    return EXIT_OK


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        parts = chunk.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"sizes: expected NxM, got {chunk!r}")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"sizes: expected NxM, got {chunk!r}") from None
        if n < 1 or m < 1:
            raise ConfigError(f"sizes: need positive dimensions, got {chunk!r}")
        sizes.append((n, m))
    if not sizes:
        raise ConfigError("sizes: no sizes given")
    return sizes


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    methods = [w.strip() for w in args.methods.split(",") if w.strip()]
    if not methods:
        raise ConfigError("methods: no method names given")
    configs = [_config_from_args(args, name) for name in methods]
    records = run_bench(
        args.regime, sizes, configs, RandomSource(args.seed), args.repetitions
    )
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BenchRecord.CSV_FIELDS)
        for record in records:
            writer.writerow(record.to_csv_row())
    finally:
        if args.output:
            out.close()
    return EXIT_OK


_PROBLEM_KEYS = ("kind", "m", "seed", "n_keys", "n_values", "init_genome_length", "noise")
_RUN_KEYS = (
    "pop_size",
    "generations",
    "downsample_rate",
    "umad_rate",
    "runs",
    "mode",
    "samples",
    "reference",
)


def _section(parser: configparser.ConfigParser, name: str) -> dict[str, str]:
    return dict(parser[name]) if parser.has_section(name) else {}


def _problem_from_section(section: dict[str, str]) -> SyntheticProblem:
    for key in section:
        if key not in _PROBLEM_KEYS:
            raise ConfigError(f"{key}: unknown problem config key")
    if "kind" not in section or "m" not in section:
        raise ConfigError("kind: problem section needs 'kind' and 'm'")
    return SyntheticProblem(
        kind=section["kind"].strip(),
        m=_parse_typed(section, "m", int, None),
        seed=_parse_typed(section, "seed", int, 0),
        n_keys=_parse_typed(section, "n_keys", int, None),
        n_values=_parse_typed(section, "n_values", int, 8),
        init_genome_length=_parse_typed(section, "init_genome_length", int, 8),
        noise=_parse_typed(section, "noise", float, 0.1),
    )


def cmd_evolve(args) -> int:
    parser = configparser.ConfigParser()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.config}: {exc.strerror or exc}") from None
    except configparser.Error as exc:
        raise ParseError(f"bad config file {args.config}: {exc}") from None

    for name in parser.sections():
        if name not in ("selector", "problem", "run"):
            raise ConfigError(f"{name}: unknown config section")
    if not parser.has_section("selector") or not parser.has_section("problem"):
        raise ConfigError("selector: config needs [selector] and [problem] sections")

    selector_cfg, seed = config_from_mapping(_section(parser, "selector"))
    if args.seed is not None:
        seed = args.seed
    if seed is None:
        seed = 0
    problem = _problem_from_section(_section(parser, "problem"))

    run_section = _section(parser, "run")
    for key in run_section:
        if key not in _RUN_KEYS:
            raise ConfigError(f"{key}: unknown run config key")
    pop_size = _parse_typed(run_section, "pop_size", int, 100)
    generations = _parse_typed(run_section, "generations", int, 50)
    downsample_rate = _parse_typed(run_section, "downsample_rate", float, 1.0)
    umad_rate = _parse_typed(run_section, "umad_rate", float, 0.09)
    runs = _parse_typed(run_section, "runs", int, 1)
    mode = run_section.get("mode", "evolve").strip()
    samples = _parse_typed(run_section, "samples", int, 10_000)
    reference = run_section.get("reference", "lexicase").strip()
    if mode not in ("evolve", "fidelity"):
        raise ConfigError(f"mode: expected 'evolve' or 'fidelity', got {mode!r}")
    if runs < 1:
        raise ConfigError(f"runs: must be >= 1, got {runs}")

    os.makedirs(args.output_dir, exist_ok=True)
    records_path = os.path.join(args.output_dir, "records.jsonl")
    summary_path = os.path.join(args.output_dir, "summary.csv")
    fidelity_path = os.path.join(args.output_dir, "fidelity.jsonl")

    summary_rows = []
    with open(records_path, "w", encoding="utf-8") as records_out:
        fidelity_out = open(fidelity_path, "w", encoding="utf-8") if mode == "fidelity" else None
        try:
            for run_index in range(runs):
                rng = RandomSource(seed).child(run_index)
                if mode == "evolve":
                    result = run_evolution(
                        problem,
                        selector_cfg,
                        pop_size,
                        generations,
                        rng,
                        downsample_rate=downsample_rate,
                        umad_rate=umad_rate,
                    )
                else:
                    reports, result = fidelity_trace(
                        problem,
                        SelectorConfig(method=reference),
                        selector_cfg,
                        pop_size,
                        generations,
                        rng,
                        n_samples=samples,
                        downsample_rate=downsample_rate,
                        umad_rate=umad_rate,
                    )
                    for report in reports:
                        line = {"run": run_index, **report.to_json_dict()}
                        fidelity_out.write(json.dumps(line) + "\n")
                for record in result.records:
                    line = {"run": run_index, **record.to_json_dict()}
                    records_out.write(json.dumps(line) + "\n")
                selection_times = [
                    r.selection_seconds
                    for r in result.records
                    if r.generation != result.success_generation
                ]
                summary_rows.append(
                    [
                        str(run_index),
                        str(seed),
                        "1" if result.success else "0",
                        "" if result.success_generation is None else str(result.success_generation),
                        repr(float(np.mean(selection_times))) if selection_times else "0.0",
                    ]
                )
        finally:
            if fidelity_out is not None:
                fidelity_out.close()

    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["run", "seed", "success", "generations_to_success", "mean_selection_seconds"]
        )
        writer.writerows(summary_rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexsel",
        description="Parent selection toolkit: run, compare, and time selection methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="select parents from an error matrix CSV")
    p_select.add_argument("errors", help="error matrix CSV, one row per individual")
    p_select.add_argument("--support", default=None, help="binary support matrix CSV")
    p_select.add_argument("--method", default="dalex")
    _add_selector_flags(p_select)
    p_select.add_argument("--seed", type=int, default=0)
    p_select.add_argument("--events", type=int, default=None,
                          help="selection events to run (default: population size)")
    p_select.add_argument("--emit-distribution", action="store_true",
                          help="print the empirical selection distribution as JSON "
                               "instead of indices")
    p_select.set_defaults(func=cmd_select)

    p_compare = sub.add_parser(
        "compare", help="compare methods against the exact lexicase distribution"
    )
    p_compare.add_argument("errors")
    p_compare.add_argument("--support", default=None)
    p_compare.add_argument("--methods", default="dalex",
                           help="comma-separated method names")
    _add_selector_flags(p_compare)
    p_compare.add_argument("--samples", type=int, default=50_000)
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--lineage-id", type=int, default=None,
                           help="individual index to report probability ratios for")
    p_compare.add_argument("--allow-empirical-reference", action="store_true",
                           help="fall back to sampled lexicase beyond the oracle guard")
    p_compare.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="time selection methods on synthetic matrices")
    p_bench.add_argument("--regime", default="continuous_all_distinct",
                         help=f"matrix regime: {', '.join(REGIMES)}")
    p_bench.add_argument("--sizes", default="1000x200",
                         help="comma-separated NxM population sizes")
    p_bench.add_argument("--methods", default="dalex,lexicase")
    _add_selector_flags(p_bench)
    p_bench.add_argument("--repetitions", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", default=None, help="write CSV here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)

    p_evolve = sub.add_parser("evolve", help="run the miniature evolutionary harness")
    p_evolve.add_argument("config", help="INI config with [selector], [problem], [run]")
    p_evolve.add_argument("--output-dir", required=True)
    p_evolve.add_argument("--seed", type=int, default=None,
                          help="override the seed from the config file")
    p_evolve.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (ConfigError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Timed rounds and the metrics computed from them.

A round runs one operation per method, in an order rotated each round.
Rounds repeat until the next one would overrun the time allowed.  In a
traced run, rounds go untraced, untraced, traced, traced, and so on, so
both kinds see the same machine state and their difference is the
tracing overhead.  (Plain alternation would line traced rounds up with
the periodic slowdowns that ``dalex``'s memory churn causes.)

The machine this was built on switches between two speeds about 1.4x
apart, for seconds to minutes at a time, so raw times of the same code
differed by up to 1.4x between runs.  A fixed probe is therefore timed
before and after every operation, and each time is rescaled to the
probe's nominal duration: ``seconds * NOMINAL / mean(probe before,
probe after)``.  End-to-end rates and set-up time are reported on that
scale; raw times go to the run's output file.
"""

from __future__ import annotations

import statistics
import time
import traceback

import numpy as np

import lexsel.core
import lexsel.evolve
import lexsel.selectors

from . import spans
from .workloads import METHODS

LAYER_SPANS = [
    (lexsel.core, "build_classes", "core.build_classes"),
    (lexsel.evolve, "build_classes", "core.build_classes"),
    (lexsel.core, "expand_class_selection", "core.expand_class_selection"),
    (lexsel.evolve, "expand_class_selection", "core.expand_class_selection"),
    (lexsel.core.RandomSource, "generator", "core.generator"),
    (lexsel.selectors, "select_classes", "selectors.select_classes"),
    (lexsel.evolve, "select_classes", "selectors.select_classes"),
    (lexsel.selectors, "sample_importance", "selectors.sample_importance"),
    (lexsel.selectors, "softmax_rows", "selectors.softmax_rows"),
    (lexsel.selectors, "weighted_fitness", "selectors.weighted_fitness"),
    (lexsel.selectors, "dalex_select", "selectors.dalex_select"),
    (lexsel.selectors, "lexicase_select", "selectors.lexicase_select"),
    (lexsel.selectors, "epsilon_for_cases", "selectors.epsilon_for_cases"),
    (lexsel.selectors, "epsilon_lexicase_select", "selectors.epsilon_lexicase_select"),
    (lexsel.selectors, "batch_lexicase_select", "selectors.batch_lexicase_select"),
    (lexsel.evolve.SyntheticProblem, "evaluate", "evolve.evaluate"),
    (lexsel.evolve, "umad_mutate", "evolve.umad_mutate"),
]

# (metric, span, methods whose operations it is taken over; None = all)
LAYER_TIMES = [
    ("core.build_classes_ms", "core.build_classes", None),
    ("core.expand_class_selection_ms", "core.expand_class_selection", None),
    *[(f"core.{m}.generator_ms", "core.generator", (m,)) for m in METHODS],
    ("selectors.sample_importance_ms", "selectors.sample_importance", ("dalex",)),
    ("selectors.dalex_select_self_ms", "selectors.dalex_select", ("dalex",)),
    ("selectors.softmax_rows_ms", "selectors.softmax_rows", ("dalex",)),
    ("selectors.weighted_fitness_ms", "selectors.weighted_fitness", ("dalex",)),
    ("selectors.lexicase_select_self_ms", "selectors.lexicase_select", ("lexicase",)),
    ("selectors.epsilon_for_cases_ms", "selectors.epsilon_for_cases", ("epsilon_lexicase",)),
    ("selectors.epsilon_lexicase_select_self_ms", "selectors.epsilon_lexicase_select",
     ("epsilon_lexicase",)),
    ("selectors.batch_lexicase_select_self_ms", "selectors.batch_lexicase_select",
     ("batch_lexicase",)),
    ("evolve.evaluate_ms", "evolve.evaluate", None),
    ("evolve.umad_mutate_ms", "evolve.umad_mutate", None),
]

SELECTION_STAGE = ("core.build_classes", "selectors.select_classes", "core.expand_class_selection")


class SpeedProbe:
    """A fixed slice of the kinds of work the package does: small numpy
    calls from a Python loop, a memory-bound array pass and a BLAS
    product, about 10 ms in all.  Its time tracks the machine's speed."""

    # The time every operation is rescaled to; the probe took 7.5-12 ms
    # on the 2-vCPU machine the README's figures come from.
    NOMINAL = 0.010

    def __init__(self):
        gen = np.random.default_rng(0)
        self.small = gen.random((64, 200))
        self.big = gen.random(400_000)
        self.mat = gen.random((220, 220))

    def __call__(self):
        start = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += float(self.small[i & 63].min())
        for _ in range(4):
            acc += float((self.big * 1.5).sum())
        for _ in range(6):
            self.mat @ self.mat
        return time.perf_counter() - start

    def scale(self, seconds, before, after):
        return seconds * self.NOMINAL / (0.5 * (before + after))


def timed_setup(workload, repeats, probe):
    """Run ``workload.setup`` ``repeats`` times; return raw and scaled
    seconds of each."""
    raw, scaled = [], []
    after = probe()
    for _ in range(repeats):
        before = after
        start = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - start)
        after = probe()
        scaled.append(probe.scale(raw[-1], before, after))
    return raw, scaled


def run_rounds(workload, seconds, traced, probe):
    """Run whole rounds for about ``seconds``; return the unit records."""
    tracer = spans.Tracer() if traced else None
    units = {"untraced": {m: [] for m in METHODS}, "traced": {m: [] for m in METHODS}}
    attempted = failed = 0
    check_failures = []
    probes = []
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        tracing = traced and r % 4 >= 2
        if tracing:
            tracer.install(LAYER_SPANS)
        try:
            for i in range(len(METHODS)):
                method = METHODS[(i + r) % len(METHODS)]
                attempted += 1
                probes.append(probe())
                try:
                    if tracing:
                        with tracer.span(f"op.{method}") as root:
                            got = workload.run(method, r, probe)
                        for unit in got:
                            unit["root"] = root
                    else:
                        got = workload.run(method, r, probe)
                    for unit in got:
                        unit["probe"] = len(probes) - 1
                except AssertionError as exc:
                    check_failures.append(str(exc))
                    continue
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    continue
                units["traced" if tracing else "untraced"][method].extend(got)
        finally:
            if tracing:
                tracer.restore()
        r += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds and (not traced or r % 4 == 0):
            break
    probes.append(probe())
    for by_method in units.values():
        for method_units in by_method.values():
            for u in method_units:
                # Evolve generations carry their own bracketing probes.
                i = u["probe"]
                before, after = u.pop("probes", (probes[i], probes[i + 1]))
                u["scaled"] = probe.scale(u["seconds"], before, after)
    return {
        "probes": probes,
        "units": units,
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "check_failures": check_failures,
        "checks": {},
        "spans": tracer.spans if traced else None,
        "untraced_layers": tracer.missing if traced else set(),
    }


def median_seconds(units, key="seconds"):
    return statistics.median(u[key] for u in units)


def end_to_end_metrics(record):
    out = {}
    for method in METHODS:
        units = record["units"]["untraced"][method]
        out[f"{method}_parents_per_s"] = {
            "value": units[0]["parents"] / median_seconds(units, "scaled"),
            "unit": "1/s",
        }
    return out


def sample_summary(record):
    """Sample count, raw and scaled quartiles per method, and raw times."""
    out = {}
    for kind, by_method in record["units"].items():
        for method, units in by_method.items():
            if not units:
                continue
            entry = {"samples": len(units), "seconds": [u["seconds"] for u in units]}
            for key in ("seconds", "scaled"):
                values = sorted(u[key] for u in units)
                entry[f"{key}_quartiles"] = (
                    statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                )
            out[f"{kind}.{method}"] = entry
    return out


def _unit_layers(spans_list, own, unit):
    """Self time and call count per span name inside one unit."""
    root = unit["root"]
    window = unit.get("window")
    totals = {}
    stage = 0.0
    for idx in spans.descendants(spans_list, root):
        span = spans_list[idx]
        if window is not None and not window[0] <= span[spans.START] < window[1]:
            continue
        name = span[spans.NAME]
        seconds, calls = totals.get(name, (0.0, 0))
        totals[name] = (seconds + own[idx], calls + 1)
        if span[spans.PARENT] == root and name in SELECTION_STAGE:
            stage += span[spans.END] - span[spans.START]
    return totals, stage


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(record):
    spans_list = record["spans"]
    own = spans.self_times(spans_list)
    traced = record["units"]["traced"]
    layers = {m: [_unit_layers(spans_list, own, u) for u in traced[m]] for m in METHODS}
    every = [u for m in METHODS for u in record["units"]["untraced"][m] + traced[m]]

    def ms(value, name):
        return {name: {"value": 1e3 * value, "unit": "ms"}}

    out = {}
    for metric, span, methods in LAYER_TIMES:
        chosen = METHODS if methods is None else methods
        values = [t.get(span, (0.0, 0))[0] for m in chosen for t, _ in layers[m]]
        out.update(ms(_median(values), metric))
    for m in METHODS:
        calls = [t.get("core.generator", (0.0, 0))[1] for t, _ in layers[m]]
        out[f"core.{m}.generator_calls"] = {"value": _median(calls), "unit": "count"}

    gflop, gflops = [], []
    for unit, (totals, _) in zip(traced["dalex"], layers["dalex"]):
        work = 2.0 * unit["parents"] * unit["k"] * unit["m"] / 1e9
        gflop.append(work)
        own = totals.get("selectors.dalex_select", (0.0, 0))[0]
        if own > 0:
            gflops.append(work / own)
    out["selectors.dalex_round1_gflop"] = {"value": _median(gflop), "unit": "GFLOP"}
    out["selectors.dalex_gflops"] = {"value": _median(gflops), "unit": "GFLOP/s"}
    out["selectors.k"] = {"value": _median(u["k"] for u in every), "unit": "count"}
    for m in METHODS:
        units = record["units"]["untraced"][m] + traced[m]
        out[f"selectors.{m}.distinct_parents"] = {
            "value": _median(u["distinct_parents"] for u in units),
            "unit": "count",
        }

    generations = [u for u in every if "window" in u]
    out["evolve.k_mean"] = {
        "value": statistics.fmean(u["k"] for u in generations) if generations else 0.0,
        "unit": "count",
    }
    for m in METHODS:
        stage = [s for u, (_, s) in zip(traced[m], layers[m]) if "window" in u]
        out.update(ms(_median(stage), f"evolve.{m}.select_ms"))

    for m in METHODS:
        untraced = record["units"]["untraced"][m]
        in_layers = _median(sum(s for s, _ in t.values()) for t, _ in layers[m])
        out.update(ms(median_seconds(untraced), f"trace.{m}.untraced_ms"))
        out.update(ms(median_seconds(traced[m]), f"trace.{m}.traced_ms"))
        out.update(ms(in_layers, f"trace.{m}.layers_ms"))
        out[f"trace.{m}.spans"] = {
            "value": _median(sum(c for _, c in t.values()) for t, _ in layers[m]),
            "unit": "count",
        }
        # Compared on the probe-scaled times: the halves of a traced run
        # may fall in different machine speeds.
        scaled_untraced = median_seconds(untraced, "scaled")
        scaled_traced = median_seconds(traced[m], "scaled")
        out[f"trace.{m}.overhead_pct"] = {
            "value": 100.0 * (scaled_traced - scaled_untraced) / scaled_untraced,
            "unit": "%",
        }
    out["trace.span_cost_us"] = {"value": 1e6 * span_cost(), "unit": "us"}
    return out


def span_cost(calls=20_000):
    """Time one span adds to a call: a wrapped no-op against a bare one.
    Times the span count of an operation, it bounds the overhead that
    ``overhead_pct`` measures with the noise of two medians."""

    def noop():
        pass

    wrapped = spans.Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - start - bare) / calls

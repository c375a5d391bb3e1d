"""Workload inputs, timed operations and their output checks.

Two kinds of operation are timed:

* a selection pass: error (and support) matrices in, parent indices
  out, through ``build_classes`` -> ``select_classes`` ->
  ``expand_class_selection``;
* an evolve generation: one generation of ``run_evolution``, measured
  from the end of one generation's selection to the end of the next
  (mutate -> evaluate -> group -> select -> expand).

Every call goes through the module attribute (``core.build_classes``,
not a name imported here), so a traced round sees it.  Inputs come from
the benchmark's own generators and the workload seed; the package only
receives the finished matrices or a problem seed.
"""

from __future__ import annotations

import time

import numpy as np

from lexsel import core, evolve, selectors
from lexsel.core import RandomSource
from lexsel.selectors import SelectorConfig

from . import checks, exact

METHODS = ("dalex", "lexicase", "epsilon_lexicase", "batch_lexicase")
PRESSURE = 200.0
BATCH_SIZE = 2

CONFIGS = {
    "dalex": SelectorConfig(method="dalex", pressure=PRESSURE),
    "lexicase": SelectorConfig(method="lexicase"),
    "epsilon_lexicase": SelectorConfig(method="epsilon_lexicase"),
    "batch_lexicase": SelectorConfig(method="batch_lexicase", batch_size=BATCH_SIZE),
}

# Selection pass size.  Batch lexicase costs about 1.3-3 ms per event
# and epsilon-lexicase about 0.3 ms at 4000x200, so they select fewer
# parents per pass; ``*_parents_per_s`` divides each by its own count.
N_ROWS, N_CASES = 4000, 200
PASS_EVENTS = {"dalex": 4000, "lexicase": 4000, "epsilon_lexicase": 1000, "batch_lexicase": 250}
WARMUP_EVENTS = 32

# Evolve generation size.  The problem is far from solvable in this many
# generations (best total error stays above 1000 of at most 1600).
POP_SIZE = 1000
GENERATIONS = 1
EVOLVE_CASES = 200

# Correctness sampling on tiny instances.
TINY_INSTANCES = 2
TINY_ROWS = 10
TINY_SAMPLES = 4000
TINY_DALEX_SAMPLES = 20000
# How far dalex at pressure 200 may sit from exact lexicase on full
# support, beyond sampling noise (README: observed maxima are far lower).
DALEX_ALLOWANCE = 0.01
ROWMIN_EVENTS = 1000


def distinct_matrix(gen, n, m):
    """Shuffled ranks plus sub-unit jitter: every column all distinct."""
    ranks = gen.permuted(np.tile(np.arange(n, dtype=np.float64), (m, 1)), axis=1).T
    return ranks + gen.random((n, m)) * 0.5, None


def ties_matrix(gen, n, m):
    return gen.integers(0, 6, (n, m)).astype(np.float64), None


def partial_matrix(gen, n, m):
    support = (gen.random((n, m)) < 0.35).astype(np.float64)
    empty = np.flatnonzero(~support.any(axis=1))
    support[empty, gen.integers(0, m, empty.size)] = 1.0
    return gen.integers(0, 6, (n, m)).astype(np.float64) * support, support


def evolve_matrix(gen, n, m):
    """Rows of a small ``discrete_vector`` population, duplicates kept."""
    problem = evolve.SyntheticProblem(
        kind="discrete_vector", m=m, seed=int(gen.integers(2**32)), n_keys=3, n_values=4
    )
    genomes = [gen.integers(0, problem.token_range, 4) for _ in range(n)]
    errors, _ = problem.evaluate(genomes)
    return errors, None


def with_duplicate(make):
    def make_dup(gen, n, m):
        errors, support = make(gen, n - 1, m)
        errors = np.vstack([errors, errors[:1]])
        support = None if support is None else np.vstack([support, support[:1]])
        return errors, support

    return make_dup


def run_pass(errors, support, method, events, seed):
    """One timed selection pass; returns (seconds, classing, picks, parents)."""
    rng = RandomSource(seed)
    start = time.perf_counter()
    classing = core.build_classes(errors, support)
    picks = selectors.select_classes(classing, events, CONFIGS[method], rng)
    parents = core.expand_class_selection(classing, picks, rng)
    return time.perf_counter() - start, classing, picks, parents


class Workload:
    """What the timing loop calls: ``setup`` builds the inputs once per call,
    ``run(method, round_index, probe)`` performs one timed operation and
    returns a list of unit records, ``check_tiny`` checks distributions."""

    tiny_regime = None
    full_support = True

    def __init__(self, seed):
        self.seed = seed

    def check_tiny(self, report):
        """Sample every method on tiny instances of this workload's regime
        and compare with the enumerated exact distributions."""
        gen = np.random.default_rng([self.seed, 2])
        for i in range(TINY_INSTANCES):
            m = (5, 7)[i % 2]
            errors, support = self.tiny_regime(gen, TINY_ROWS, m)
            seed = int(gen.integers(2**63))
            exacts = {
                "lexicase": exact.lexicase_probs(errors, support),
                "epsilon_lexicase": exact.epsilon_lexicase_probs(errors, support),
                "batch_lexicase": exact.batch_lexicase_probs(errors, support, BATCH_SIZE),
            }
            for method, probs in exacts.items():
                picks = run_pass(errors, support, method, TINY_SAMPLES, seed)[3]
                js = checks.check_distribution(f"{method} tiny #{i}", picks, probs)
                report.setdefault(f"tiny_js.{method}", []).append(js)
            picks = run_pass(errors, support, "dalex", TINY_DALEX_SAMPLES, seed)[3]
            emp = checks.histogram(picks, TINY_ROWS)
            if self.full_support:
                js = checks.check_distribution(
                    f"dalex tiny #{i}", picks, exacts["lexicase"], DALEX_ALLOWANCE
                )
            else:
                # Partial support: the normalized weighted mean differs
                # from lexicase on purpose; the gap is reported only.
                js = checks.js_divergence(emp, exacts["lexicase"])
            report.setdefault("tiny_js.dalex_vs_lexicase", []).append(js)


class SelectWorkload(Workload):
    def __init__(self, seed, make, tiny_regime, full_support=True):
        super().__init__(seed)
        self.make = make
        self.tiny_regime = tiny_regime
        self.full_support = full_support
        self.picked = {m: [] for m in METHODS}

    def setup(self):
        gen = np.random.default_rng([self.seed, 0])
        self.errors, self.support = self.make(gen, N_ROWS, N_CASES)
        for method in METHODS:
            run_pass(self.errors, self.support, method, WARMUP_EVENTS, 0)

    def run(self, method, round_index, probe):
        seconds, classing, picks, parents = run_pass(
            self.errors, self.support, method, PASS_EVENTS[method], round_index
        )
        self.check_pass(method, classing, picks, parents)
        return [
            {
                "seconds": seconds,
                "parents": PASS_EVENTS[method],
                "k": classing.k,
                "m": classing.m,
                "distinct_parents": int(np.unique(parents).size),
            }
        ]

    def check_pass(self, method, classing, picks, parents):
        events = PASS_EVENTS[method]
        if parents.shape != (events,) or picks.shape != (events,):
            raise AssertionError(f"{method}: expected {events} picks")
        if parents.min() < 0 or parents.max() >= N_ROWS:
            raise AssertionError(f"{method}: parent index out of range")
        # Expansion must hand out a member of the picked class.
        if not (self.errors[parents] == classing.class_errors[picks]).all():
            raise AssertionError(f"{method}: parent row differs from its class")
        if self.support is not None and not (
            self.support[parents] == classing.class_support[picks]
        ).all():
            raise AssertionError(f"{method}: parent support differs from its class")
        self.picked[method].append(parents)

    def check_outputs(self, report):
        if self.full_support:
            for method in ("dalex", "lexicase"):
                rows = np.concatenate(self.picked[method])
                checks.check_not_dominated(method, self.errors, rows)
        else:
            self.check_row_minimum(report)
        self.picked = {m: [] for m in METHODS}

    def check_row_minimum(self, report):
        gen = np.random.default_rng([self.seed, 3])
        classing = core.build_classes(self.errors, self.support)
        importance = gen.normal(0.0, PRESSURE, (ROWMIN_EVENTS, classing.m))
        picks = selectors.dalex_select(
            classing, ROWMIN_EVENTS, CONFIGS["dalex"], RandomSource(self.seed), importance
        )
        checks.check_row_minimum(
            "dalex", picks, importance, classing.class_errors, classing.class_support
        )
        report["row_minimum_events"] = ROWMIN_EVENTS


class EvolveWorkload(Workload):
    tiny_regime = staticmethod(with_duplicate(evolve_matrix))
    dalex_dominated = 0

    def problem(self, round_index):
        """The round's problem and evolution seed.  Each round draws a
        new problem, so a run's median spans several problems."""
        seed = int(np.random.SeedSequence([self.seed, round_index]).generate_state(1)[0])
        return evolve.SyntheticProblem(kind="discrete_vector", m=EVOLVE_CASES, seed=seed), seed

    def setup(self):
        problem, seed = self.problem(0)
        gen = np.random.default_rng(seed)
        genomes = [problem.initial_genome(gen) for _ in range(POP_SIZE)]
        errors, support = problem.evaluate(genomes)
        for method in METHODS:
            run_pass(errors, support, method, WARMUP_EVENTS, 0)

    def run(self, method, round_index, probe):
        """One evolution of GENERATIONS + 1 generations.  Each unit is the
        stretch from the end of one selection callback to the start of
        the next, so the checks and the speed probe made in the callback
        are not timed."""
        marks = []
        units = []

        def observe(t, classing, parents):
            entered = time.perf_counter()
            if parents.shape != (POP_SIZE,) or parents.min() < 0 or parents.max() >= POP_SIZE:
                raise AssertionError(f"{method}: generation {t} parents invalid")
            picked = np.unique(classing.class_of()[parents])
            if method == "lexicase":
                checks.check_not_dominated(
                    f"{method} generation {t}", classing.class_errors, picked
                )
            elif method == "dalex":
                # Counted, not failed: on some seeds dalex picks a
                # dominated class (FOUND in CHANGES.md), so a failing
                # check here would fail runs depending on the seed.
                dominated = checks.dominated(classing.class_errors, picked)
                self.dalex_dominated += int(dominated.sum())
            units.append(
                {"k": classing.k, "distinct_parents": int(np.unique(parents).size)}
            )
            speed = probe()
            marks.append((entered, time.perf_counter(), speed))

        problem, seed = self.problem(round_index)
        result = evolve.run_evolution(
            problem,
            CONFIGS[method],
            POP_SIZE,
            GENERATIONS + 1,
            RandomSource(seed),
            on_generation=observe,
        )
        if result.success or len(result.records) != GENERATIONS + 1:
            raise AssertionError(f"{method}: evolution ended early")
        out = []
        for t in range(GENERATIONS):
            unit = dict(units[t + 1])
            unit.update(
                seconds=marks[t + 1][0] - marks[t][1],
                parents=POP_SIZE,
                m=EVOLVE_CASES,
                window=(marks[t][1], marks[t + 1][0]),
                probes=(marks[t][2], marks[t + 1][2]),
            )
            out.append(unit)
        return out

    def check_outputs(self, report):
        report["dalex_dominated_picks"] = self.dalex_dominated


WORKLOADS = {
    "select-distinct": lambda seed: SelectWorkload(seed, distinct_matrix, distinct_matrix),
    "select-ties": lambda seed: SelectWorkload(seed, ties_matrix, with_duplicate(ties_matrix)),
    "select-partial": lambda seed: SelectWorkload(
        seed, partial_matrix, with_duplicate(partial_matrix), full_support=False
    ),
    "evolve-discrete": EvolveWorkload,
}

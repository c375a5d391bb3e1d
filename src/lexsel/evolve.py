"""A miniature evolutionary loop for exercising selectors end to end.

The harness evolves variable-length integer genomes against small
synthetic problems with a selectable parent-selection method, tracking
per-generation statistics, wall time spent selecting, and parent ids so
the lineage of a successful individual can be replayed.  It exists to
compare selection methods under identical conditions, not to be a
general GP system.

Three problem kinds cover the matrix shapes selectors care about:

* ``discrete_vector``: learn an integer lookup table; one train case per
  (key, target) observation, absolute error.  Different keys are solved
  by different genome fragments, so specialists matter.
* ``continuous_vector``: fit a noisy cubic with fixed-point polynomial
  coefficients, squared error.  All-distinct real errors.
* ``partial_support``: rule lists that only cover the cases whose key
  they mention; uncovered cases are undefined rather than wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EquivalenceClassing,
    RandomSource,
    build_classes,
    expand_class_selection,
)
from .exceptions import ConfigError, ShapeError
from .metrics import FidelityReport, js_divergence
from .oracle import _method_distribution, distribution_over_individuals
from .selectors import SelectorConfig, select_classes

__all__ = [
    "PROBLEM_KINDS",
    "Population",
    "SyntheticProblem",
    "GenerationRecord",
    "RunResult",
    "umad_mutate",
    "downsample_cases",
    "run_evolution",
    "fidelity_trace",
]

PROBLEM_KINDS = ("discrete_vector", "continuous_vector", "partial_support")

# Substream purposes within one run.
_INIT_STREAM = 10
_SELECT_STREAM = 11
_MUTATE_STREAM = 12
_DOWNSAMPLE_STREAM = 13


def _positions(lengths: np.ndarray) -> np.ndarray:
    """Each element's position within its segment, for segments of the
    given lengths laid end to end."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


@dataclass(frozen=True, eq=False)
class Population:
    """Variable-length genomes packed end to end.

    ``tokens`` holds every genome's int64 tokens in population order and
    ``lengths[i]`` is the length of genome ``i``.
    """

    tokens: np.ndarray
    lengths: np.ndarray

    @classmethod
    def pack(cls, genomes) -> Population:
        arrays = [np.asarray(g, dtype=np.int64) for g in genomes]
        lengths = np.array([a.size for a in arrays], dtype=np.int64)
        tokens = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls(tokens, lengths)

    def __len__(self) -> int:
        return self.lengths.size

    @property
    def starts(self) -> np.ndarray:
        """Offset of each genome's first token in ``tokens``."""
        return np.cumsum(self.lengths) - self.lengths

    def genome(self, i: int) -> np.ndarray:
        start = int(self.starts[i])
        return self.tokens[start : start + int(self.lengths[i])]

    def take(self, rows: np.ndarray) -> Population:
        """The genomes at ``rows``, in that order (repeats allowed)."""
        lengths = self.lengths[rows]
        index = np.repeat(self.starts[rows], lengths) + _positions(lengths)
        return Population(self.tokens[index], lengths)


@dataclass
class SyntheticProblem:
    """A solvable toy problem with a fixed, seed-derived target.

    ``m`` train cases are generated from ``seed``; a held-out test set
    checks that zero train error was not luck.  ``n_keys``/``n_values``
    control table width and value range for the discrete kinds,
    ``init_genome_length`` the starting genome size.
    """

    kind: str
    m: int
    seed: int
    n_keys: int | None = None
    n_values: int = 8
    init_genome_length: int = 8
    noise: float = 0.1

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"kind: unknown problem kind {self.kind!r}")
        if self.m < 1:
            raise ConfigError(f"m: need at least one case, got {self.m}")
        if self.n_keys is None:
            self.n_keys = max(2, self.m // 3)
        gen = RandomSource(self.seed).generator(0)
        if self.kind == "continuous_vector":
            self.token_range = 201
            self._train_x = gen.uniform(-1.0, 1.0, self.m)
            self._test_x = gen.uniform(-1.0, 1.0, max(2, self.m // 2))
            coeffs = gen.uniform(-1.5, 1.5, 4)
            self._train_y = np.polyval(coeffs[::-1], self._train_x) + gen.normal(
                0.0, self.noise, self.m
            )
            self._test_y = np.polyval(coeffs[::-1], self._test_x) + gen.normal(
                0.0, self.noise, self._test_x.size
            )
        else:
            self.token_range = 4 * max(self.n_keys, self.n_values)
            self._table = gen.integers(0, self.n_values, self.n_keys)
            self._train_keys = np.arange(self.m, dtype=np.int64) % self.n_keys
            self._train_targets = self._table[self._train_keys]
            self._test_keys = np.arange(self.n_keys, dtype=np.int64)
            self._test_targets = self._table[self._test_keys]
        # Worst case error: outside any reachable |answer - target|.
        self.worst_error = float(self.n_values)

    def initial_genome(self, gen: np.random.Generator) -> np.ndarray:
        length = 4 if self.kind == "continuous_vector" else self.init_genome_length
        return gen.integers(0, self.token_range, length)

    def _decode_tables(self, population: Population) -> np.ndarray:
        """Read each genome as (key, value) pairs; first pair per key wins.

        Returns an (n, n_keys) answer table with -1 for missing keys.  A
        trailing odd token is ignored.  All pairs land in one scatter over
        (genome, key) slots, reversed so that the first pair is written
        last.
        """
        n = len(population)
        pairs = population.lengths // 2
        owner = np.repeat(np.arange(n), pairs)
        heads = population.starts[owner] + 2 * _positions(pairs)
        tokens = population.tokens
        slots = owner * self.n_keys + tokens[heads] % self.n_keys
        answers = np.full(n * self.n_keys, -1, dtype=np.int64)
        answers[slots[::-1]] = (tokens[heads + 1] % self.n_values)[::-1]
        return answers.reshape(n, self.n_keys)

    def _decode_coeffs(self, population: Population) -> np.ndarray:
        """(n, 4) cubic coefficients from each genome's first four tokens,
        lowest degree first; missing tokens give 0."""
        coeffs = np.zeros((len(population), 4))
        position = _positions(population.lengths)
        head = np.flatnonzero(position < 4)
        owner = np.repeat(np.arange(len(population)), population.lengths)
        coeffs[owner[head], position[head]] = ((population.tokens[head] % 201) - 100) / 50.0
        return coeffs

    def _score(
        self, population: Population, keys: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(errors, support or None) of every genome on the given cases."""
        if self.kind == "continuous_vector":
            # Horner's rule in np.polyval's operation order, one row per genome.
            coeffs = self._decode_coeffs(population)
            pred = np.zeros((len(population), keys.size))
            for j in range(3, -1, -1):
                pred = pred * keys + coeffs[:, j, None]
            return (pred - targets) ** 2, None
        got = self._decode_tables(population)[:, keys]
        covered = got >= 0
        if self.kind == "discrete_vector":
            return np.where(covered, np.abs(got - targets), self.worst_error), None
        errors = np.where(covered, np.abs(got - targets), 0).astype(np.float64)
        support = covered.astype(np.float64)
        # A rule list matching nothing is scored as worst-case everywhere
        # so the support matrix keeps a 1 per row.
        blank = ~covered.any(axis=1)
        errors[blank] = self.worst_error
        support[blank] = 1.0
        return errors, support

    def evaluate(self, genomes) -> tuple[np.ndarray, np.ndarray | None]:
        """Score genomes on the train cases: (errors, support or None).

        ``genomes`` is a :class:`Population` or a sequence of genomes.
        """
        population = genomes if isinstance(genomes, Population) else Population.pack(genomes)
        if self.kind == "continuous_vector":
            return self._score(population, self._train_x, self._train_y)
        return self._score(population, self._train_keys, self._train_targets)

    def is_success(self, genome) -> bool:
        """True when the genome has zero error on train and test cases.

        Partial-support genomes must also cover every case; undefined
        cases do not count as solved.
        """
        population = Population.pack([genome])
        if self.kind == "continuous_vector":
            cases = ((self._train_x, self._train_y), (self._test_x, self._test_y))
        else:
            cases = (
                (self._train_keys, self._train_targets),
                (self._test_keys, self._test_targets),
            )
        for keys, targets in cases:
            errors, support = self._score(population, keys, targets)
            if (errors != 0).any() or (support is not None and (support == 0).any()):
                return False
        return True


def umad_mutate(
    population: Population, rate: float, token_range: int, gen: np.random.Generator
) -> Population:
    """Uniform mutation by addition and deletion, one child per genome.

    Each position independently gains a random new token before it with
    probability ``rate``; then each position of the grown genome is
    independently deleted with probability ``rate / (1 + rate)``.  The
    deletion rate is chosen so the expected length change is zero.

    The whole population takes three draws, in this order: uniforms over
    every token (insertions), the new tokens, uniforms over every grown
    token (deletions).  A one-genome population draws exactly what a
    per-genome mutation would.
    """
    if not np.isfinite(rate) or rate < 0:
        raise ConfigError(f"rate: must be finite and >= 0, got {rate}")
    if token_range < 1:
        raise ConfigError(f"token_range: must be >= 1, got {token_range}")
    tokens, lengths = population.tokens, population.lengths
    n = lengths.size
    owner = np.repeat(np.arange(n), lengths)
    add = gen.random(tokens.size) < rate
    # A zero-size draw consumes no generator state.
    new_tokens = gen.integers(0, token_range, int(np.count_nonzero(add)))
    slots = np.arange(tokens.size) + np.cumsum(add)
    grown = np.empty(tokens.size + new_tokens.size, dtype=np.int64)
    grown[slots] = tokens
    grown[slots[add] - 1] = new_tokens
    grown_owner = np.repeat(np.arange(n), lengths + np.bincount(owner[add], minlength=n))
    keep = gen.random(grown.size) >= rate / (1.0 + rate)
    return Population(grown[keep], np.bincount(grown_owner[keep], minlength=n))


def downsample_cases(m: int, rate: float, rng: RandomSource) -> np.ndarray:
    """Pick a uniformly random subset of ``max(1, round(rate * m))`` cases."""
    if not 0 < rate <= 1:
        raise ConfigError(f"rate: must be in (0, 1], got {rate}")
    if m < 1:
        raise ShapeError(f"need m >= 1, got {m}")
    size = max(1, round(rate * m))
    gen = rng.generator(0)
    return np.sort(gen.choice(m, size=size, replace=False))


@dataclass
class GenerationRecord:
    """Statistics for one generation of a run.

    ``best_error``/``mean_error`` summarize total train error (sum over
    cases) before downsampling.  ``lineage_ancestor`` is the index, in
    this generation's population, of the successful individual's
    ancestor; None when the run never succeeded.  The success
    generation itself performs no selection, so its ``downsample_cases``
    is None and its ``selection_seconds`` 0.
    """

    generation: int
    best_error: float
    mean_error: float
    selection_seconds: float
    downsample_case_ids: list[int] | None = None
    lineage_ancestor: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "generation": self.generation,
            "best_error": self.best_error,
            "mean_error": self.mean_error,
            "selection_seconds": self.selection_seconds,
            "downsample_case_ids": self.downsample_case_ids,
            "lineage_ancestor": self.lineage_ancestor,
        }


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`run_evolution`."""

    records: list[GenerationRecord]
    success: bool
    success_generation: int | None


def _slice_cases(
    errors: np.ndarray,
    support: np.ndarray | None,
    case_ids: np.ndarray,
    worst_error: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Restrict matrices to the sampled case columns.

    An individual left with no covered case in the sample is treated as
    worst-case on all of them; support rows must keep at least one 1.
    """
    sub_errors = errors[:, case_ids].copy()
    if support is None:
        return sub_errors, None
    sub_support = support[:, case_ids].copy()
    uncovered = ~sub_support.any(axis=1)
    if uncovered.any():
        sub_errors[uncovered] = worst_error
        sub_support[uncovered] = 1.0
    return sub_errors, sub_support


def run_evolution(
    problem: SyntheticProblem,
    cfg: SelectorConfig,
    pop_size: int,
    generations: int,
    rng: RandomSource,
    downsample_rate: float = 1.0,
    umad_rate: float = 0.09,
    on_generation=None,
) -> RunResult:
    """Evolve a population against ``problem`` with the given selector.

    Every generation: evaluate, check for a zero train+test error
    individual (stop when found), optionally downsample the case
    columns the selector sees, select ``pop_size`` parents, and mutate
    each parent into one child.  ``on_generation(t, classing, parents)``
    is called after each selection, letting callers observe exactly the
    matrices the selector consumed.

    All randomness derives from ``rng``, so a rerun with the same seed
    and arguments reproduces the run bit for bit.
    """
    if pop_size < 1 or generations < 1:
        raise ConfigError(
            f"pop_size and generations must be >= 1, got {pop_size}, {generations}"
        )
    init_gen = rng.generator(_INIT_STREAM)
    population = Population.pack(
        [problem.initial_genome(init_gen) for _ in range(pop_size)]
    )

    records: list[GenerationRecord] = []
    parent_history: list[np.ndarray] = []
    success_generation: int | None = None
    success_index: int | None = None

    for t in range(generations):
        errors, support = problem.evaluate(population)
        totals = errors.sum(axis=1)
        record = GenerationRecord(
            generation=t,
            best_error=float(totals.min()),
            mean_error=float(totals.mean()),
            selection_seconds=0.0,
        )
        records.append(record)

        for i in np.flatnonzero(totals == 0.0):
            if problem.is_success(population.genome(i)):
                success_generation = t
                success_index = int(i)
                break
        if success_generation is not None:
            break

        if downsample_rate < 1.0:
            case_ids = downsample_cases(
                problem.m, downsample_rate, rng.child(_DOWNSAMPLE_STREAM, t)
            )
            record.downsample_case_ids = [int(c) for c in case_ids]
            sel_errors, sel_support = _slice_cases(
                errors, support, case_ids, problem.worst_error
            )
        else:
            sel_errors, sel_support = errors, support

        start = time.perf_counter()
        classing = build_classes(sel_errors, sel_support)
        select_rng = rng.child(_SELECT_STREAM, t)
        picks = select_classes(classing, pop_size, cfg, select_rng)
        parents = expand_class_selection(classing, picks, select_rng)
        record.selection_seconds = time.perf_counter() - start

        if on_generation is not None:
            on_generation(t, classing, parents)
        parent_history.append(parents)

        population = umad_mutate(
            population.take(parents),
            umad_rate,
            problem.token_range,
            rng.generator(_MUTATE_STREAM, t),
        )

    if success_generation is not None:
        # Walk the successful individual's ancestry back to generation 0.
        idx = success_index
        for g in range(success_generation, -1, -1):
            records[g].lineage_ancestor = int(idx)
            if g > 0:
                idx = int(parent_history[g - 1][idx])

    return RunResult(
        records=records,
        success=success_generation is not None,
        success_generation=success_generation,
    )


def fidelity_trace(
    problem: SyntheticProblem,
    reference_cfg: SelectorConfig,
    candidate_cfg: SelectorConfig,
    pop_size: int,
    generations: int,
    rng: RandomSource,
    n_samples: int = 10_000,
    downsample_rate: float = 1.0,
    umad_rate: float = 0.09,
) -> tuple[list[FidelityReport], RunResult]:
    """Measure how faithfully a candidate selector mimics a reference.

    One run is driven by the reference method.  At each generation both
    methods' selection distributions over the same population are
    computed (exactly where an oracle applies, empirically with
    ``n_samples`` events otherwise) and compared at the individual
    level: the JS divergence, and the probability ratio for the
    generation's lineage ancestor when the run succeeded.  The ratio is
    None for generations without a defined reference probability.
    """
    classings: list[EquivalenceClassing] = []

    def capture(t, classing, parents):
        classings.append(classing)

    result = run_evolution(
        problem,
        reference_cfg,
        pop_size,
        generations,
        rng.child(0),
        downsample_rate=downsample_rate,
        umad_rate=umad_rate,
        on_generation=capture,
    )

    reports: list[FidelityReport] = []
    for t, classing in enumerate(classings):
        ref = _method_distribution(classing, reference_cfg, rng.child(1, t), n_samples)
        cand = _method_distribution(classing, candidate_cfg, rng.child(2, t), n_samples)
        ref_ind = distribution_over_individuals(classing, ref)
        cand_ind = distribution_over_individuals(classing, cand)

        ratio = None
        ancestor = result.records[t].lineage_ancestor
        if ancestor is not None:
            p = float(ref_ind[ancestor])
            if p > 0:
                ratio = float(cand_ind[ancestor]) / p
        reports.append(
            FidelityReport(
                js_divergence=js_divergence(cand_ind, ref_ind),
                probability_ratio=ratio,
                generation=t,
            )
        )
    return reports, result

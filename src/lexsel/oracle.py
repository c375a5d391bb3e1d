"""Exact and empirical selection distributions.

Lexicase selection induces a distribution over classes that can be
computed exactly on small instances: condition on which case comes next,
filter, and recurse.  The recursion is exponential in the number of
cases, so it is guarded to m <= 12 cases and k <= 64 classes; within the
guard it provides the ground truth that empirical selectors and the
aggregation-based approximation are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EquivalenceClassing, RandomSource
from .exceptions import InstanceTooLargeError, ShapeError
from .selectors import SelectorConfig, epsilon_for_cases, select_classes

__all__ = [
    "MAX_ORACLE_CASES",
    "MAX_ORACLE_CLASSES",
    "SelectionDistribution",
    "exact_lexicase_probs",
    "exact_epsilon_lexicase_probs",
    "empirical_distribution",
    "distribution_over_individuals",
]

MAX_ORACLE_CASES = 12
MAX_ORACLE_CLASSES = 64

DISTRIBUTION_KINDS = ("exact", "empirical")


@dataclass(frozen=True)
class SelectionDistribution:
    """Probability of selecting each class, tagged with its provenance.

    ``kind`` is ``exact`` for oracle output and ``empirical`` for
    frequencies estimated from ``n_samples`` selection events.
    """

    probs: np.ndarray
    kind: str
    n_samples: int | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ShapeError(f"probs must be a non-empty vector, got shape {probs.shape}")
        if (probs < 0).any() or not np.isfinite(probs).all():
            raise ShapeError("probs must be finite and >= 0")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ShapeError(f"probs must sum to 1 within 1e-9, got {probs.sum()!r}")
        if self.kind not in DISTRIBUTION_KINDS:
            raise ShapeError(f"kind must be one of {DISTRIBUTION_KINDS}, got {self.kind!r}")
        if self.kind == "empirical" and (self.n_samples is None or self.n_samples < 1):
            raise ShapeError("empirical distributions need n_samples >= 1")
        object.__setattr__(self, "probs", probs)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "probs": [float(p) for p in self.probs]}
        if self.n_samples is not None:
            out["n_samples"] = int(self.n_samples)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SelectionDistribution":
        return cls(
            probs=np.asarray(data["probs"], dtype=np.float64),
            kind=data["kind"],
            n_samples=data.get("n_samples"),
        )


def _fits_guard(classing: EquivalenceClassing) -> bool:
    return classing.m <= MAX_ORACLE_CASES and classing.k <= MAX_ORACLE_CLASSES


def _check_guard(classing: EquivalenceClassing) -> None:
    if not _fits_guard(classing):
        raise InstanceTooLargeError(
            f"exact recursion is guarded to m <= {MAX_ORACLE_CASES} cases and "
            f"k <= {MAX_ORACLE_CLASSES} classes, got m={classing.m}, k={classing.k}"
        )


def _exact_probs(
    classing: EquivalenceClassing,
    epsilons: np.ndarray | None,
    memoize: bool,
) -> np.ndarray:
    k, m = classing.k, classing.m
    errors = classing.class_errors
    support = None if classing.full_support else classing.class_support.astype(bool)
    sizes = classing.sizes.astype(np.float64)
    memo: dict[tuple[int, int], np.ndarray] | None = {} if memoize else None

    def filtered(cand_mask: int, t: int) -> int:
        idx = [i for i in range(k) if cand_mask >> i & 1]
        col = errors[idx, t]
        if support is not None:
            defined = support[idx, t]
            if not defined.any():
                # No survivor is defined on this case; it decides nothing.
                return cand_mask
            col = np.where(defined, col, np.inf)
        threshold = col.min()
        if epsilons is not None:
            threshold += epsilons[t]
        out = 0
        for i, e in zip(idx, col):
            if e <= threshold:
                out |= 1 << i
        return out

    def solve(cand_mask: int, case_mask: int) -> np.ndarray:
        if memo is not None:
            cached = memo.get((cand_mask, case_mask))
            if cached is not None:
                return cached
        idx = [i for i in range(k) if cand_mask >> i & 1]
        if len(idx) == 1:
            probs = np.zeros(k)
            probs[idx[0]] = 1.0
        elif case_mask == 0:
            # Cases exhausted: a uniform draw over the surviving
            # individuals, i.e. classes weighted by member count.
            probs = np.zeros(k)
            weights = sizes[idx]
            probs[idx] = weights / weights.sum()
        else:
            # Summation runs in ascending case order so results are
            # bit-for-bit reproducible.
            acc = np.zeros(k)
            count = 0
            for t in range(m):
                if not case_mask >> t & 1:
                    continue
                acc += solve(filtered(cand_mask, t), case_mask & ~(1 << t))
                count += 1
            probs = acc / count
        if memo is not None:
            memo[(cand_mask, case_mask)] = probs
        return probs

    return solve((1 << k) - 1, (1 << m) - 1).copy()


def exact_lexicase_probs(
    classing: EquivalenceClassing, *, memoize: bool = True
) -> SelectionDistribution:
    """Exact lexicase selection probabilities for each class.

    Conditioning on the first case drawn gives the recursion
    P(C, T) = mean over t in T of P(filter(C, t), T minus t), with a
    point mass once one candidate remains and a uniform draw over the
    surviving individuals once the cases run out.
    """
    _check_guard(classing)
    return SelectionDistribution(
        probs=_exact_probs(classing, None, memoize), kind="exact"
    )


def exact_epsilon_lexicase_probs(
    classing: EquivalenceClassing, epsilons, *, memoize: bool = True
) -> SelectionDistribution:
    """Exact epsilon-lexicase probabilities under a fixed tolerance vector.

    Each case keeps the candidates within ``epsilons[t]`` of the minimum
    error among those remaining; everything else matches
    :func:`exact_lexicase_probs`.
    """
    _check_guard(classing)
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.shape != (classing.m,):
        raise ShapeError(f"epsilons shape {eps.shape} does not match m={classing.m}")
    if not np.isfinite(eps).all() or (eps < 0).any():
        raise ShapeError("epsilons must be finite and >= 0")
    return SelectionDistribution(
        probs=_exact_probs(classing, eps, memoize), kind="exact"
    )


def empirical_distribution(picks, n_classes: int) -> SelectionDistribution:
    """Turn a sequence of selected class indices into frequencies."""
    arr = np.asarray(picks, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError(f"picks must be a non-empty vector, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= n_classes:
        raise ShapeError("pick index out of range")
    counts = np.bincount(arr, minlength=n_classes).astype(np.float64)
    return SelectionDistribution(
        probs=counts / arr.size, kind="empirical", n_samples=arr.size
    )


def _method_distribution(
    classing: EquivalenceClassing,
    cfg: SelectorConfig,
    rng: RandomSource,
    n_samples: int,
) -> SelectionDistribution:
    """Exact distribution when an oracle covers the method and the
    instance fits the guard; ``n_samples`` sampled events otherwise."""
    if _fits_guard(classing) and cfg.method == "lexicase":
        return exact_lexicase_probs(classing)
    if _fits_guard(classing) and cfg.method == "epsilon_lexicase":
        return exact_epsilon_lexicase_probs(classing, epsilon_for_cases(classing))
    picks = select_classes(classing, n_samples, cfg, rng)
    return empirical_distribution(picks, classing.k)


def distribution_over_individuals(
    classing: EquivalenceClassing, dist: SelectionDistribution
) -> np.ndarray:
    """Spread class probabilities evenly over each class's members.

    Returns a probability vector over the n underlying individuals,
    matching select-then-expand semantics.
    """
    if dist.probs.shape != (classing.k,):
        raise ShapeError(
            f"distribution length {dist.probs.shape} does not match k={classing.k}"
        )
    return (dist.probs / classing.counts)[classing.inverse]

"""Population-level primitives shared by every selector.

Errors live in an (n, m) float matrix with one row per individual and one
column per test case; lower is always better.  An optional binary support
matrix of the same shape marks which cases each individual is defined on.
Undefined entries hold an error of exactly zero and consumers either skip
them or renormalize around them.

Selection never distinguishes two individuals whose (error row, support
row) pairs are identical, so selectors run on the equivalence classes
built here and class picks are expanded back to individual indices
afterwards.  Grouping first shrinks the work from n individuals to k
distinct rows without changing any selection distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, ParseError, ShapeError

__all__ = [
    "RandomSource",
    "EquivalenceClassing",
    "as_error_matrix",
    "as_support_matrix",
    "build_classes",
    "singleton_classes",
    "expand_class_selection",
    "standardize_per_case",
    "load_error_matrix",
    "load_support_matrix",
    "save_matrix",
    "IMPORTANCE_STREAM",
    "TIEBREAK_STREAM",
    "EVENT_STREAM",
    "EXPAND_STREAM",
    "FINISH_STREAM",
]

# Purpose tags for substream derivation.  Keeping the tag space fixed and
# documented means every random draw in the library is addressable as
# (master_seed, path, tag) plus a position on that stream.  Each selector
# draws its per-event values from one stream per purpose, in event order,
# one event's worth at a time (a row of scores, a case order, a uniform),
# so event i's draws sit at the same position whatever the number of
# events or the block size, and reruns are bit-identical regardless of
# batching.
IMPORTANCE_STREAM = 0
# Normal scores drawn in parts by a screened dalex pass take the keys
# (0, 0), (0, 1) and (0, 2) of the importance tag: order-statistic
# spacings and cases, four an event, and m rest uniforms an event at the
# event's own position, drawn only for the events that need them.
TIEBREAK_STREAM = 1
# Lexicase-family case orders: one ``permutation(m)`` per event.
EVENT_STREAM = 2
EXPAND_STREAM = 3
# Lexicase-family finish uniforms: one ``random()`` per event, drawn
# whether or not the event ends with several classes.
FINISH_STREAM = 4


@dataclass(frozen=True)
class RandomSource:
    """Deterministic factory for independent random substreams.

    A 64-bit master seed plus a structural key path identify every
    stream.  ``generator(*key)`` returns a fresh ``numpy.random.Generator``
    whose output depends only on ``(master_seed, path + key)``.  A
    selection pass makes one generator per purpose tag and draws its
    events' values from it in event order, a fixed amount per event (or,
    for values drawn only for some events, at each event's own position),
    so the i-th selection event sees the same randomness no matter how
    many events run after it or how the pass splits its events into
    blocks.

    Parameters
    ----------
    master_seed : int
        Seed in ``[0, 2**64)``.
    path : tuple of int, optional
        Key prefix accumulated through :meth:`child` calls.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        seed = self.master_seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ConfigError(f"master_seed must be an integer, got {seed!r}")
        if not 0 <= int(seed) < 2**64:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {seed}")
        for part in self.path:
            if part < 0:
                raise ConfigError(f"stream key components must be >= 0, got {part}")

    def child(self, *key: int) -> "RandomSource":
        """Return a new source whose streams are disjoint from this one's."""
        return RandomSource(int(self.master_seed), self.path + tuple(int(k) for k in key))

    def generator(self, *key: int) -> np.random.Generator:
        """Return the generator for the substream addressed by ``key``."""
        full_key = self.path + tuple(int(k) for k in key)
        for part in full_key:
            if part < 0:
                raise ConfigError(f"stream key components must be >= 0, got {part}")
        seq = np.random.SeedSequence(int(self.master_seed), spawn_key=full_key)
        return np.random.Generator(np.random.PCG64(seq))


def as_error_matrix(values) -> np.ndarray:
    """Validate and return an (n, m) float64 error matrix.

    Raises
    ------
    ShapeError
        If the input is not 2-D with at least one row and column, or
        contains non-finite values.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"error matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"error matrix must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ShapeError("error matrix contains non-finite entries")
    # Adding 0.0 maps -0.0 to +0.0 so byte-level row grouping agrees with
    # numeric equality.
    return arr + 0.0


def as_support_matrix(support, errors: np.ndarray) -> np.ndarray:
    """Validate a binary support matrix against its error matrix.

    Every row must cover at least one case, and error entries must be
    exactly zero wherever support is zero.
    """
    sup = np.asarray(support, dtype=np.float64)
    if sup.shape != errors.shape:
        raise ShapeError(
            f"support shape {sup.shape} does not match error shape {errors.shape}"
        )
    if not np.isin(sup, (0.0, 1.0)).all():
        raise ShapeError("support matrix entries must be 0 or 1")
    if not sup.any(axis=1).all():
        raise ShapeError("every individual must be defined on at least one case")
    if np.any((sup == 0.0) & (errors != 0.0)):
        raise ShapeError("error entries must be exactly 0 where support is 0")
    return sup


@dataclass(frozen=True)
class EquivalenceClassing:
    """Distinct (error row, support row) pairs of a population.

    ``class_errors`` and ``class_support`` have one row per class in
    first-occurrence order; ``members[c]`` lists the individual indices
    collapsed into class ``c``.  ``sizes`` and ``full_support`` are
    computed on first access and cached; ``sizes`` is read-only because
    every caller shares it.
    """

    class_errors: np.ndarray
    class_support: np.ndarray
    members: tuple[np.ndarray, ...]

    @property
    def k(self) -> int:
        return self.class_errors.shape[0]

    @property
    def m(self) -> int:
        return self.class_errors.shape[1]

    @property
    def n(self) -> int:
        return sum(len(g) for g in self.members)

    @cached_property
    def sizes(self) -> np.ndarray:
        sizes = np.array([len(g) for g in self.members], dtype=np.int64)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def full_support(self) -> bool:
        return bool((self.class_support == 1.0).all())

    def class_of(self) -> np.ndarray:
        """Return the class index of each individual."""
        out = np.empty(self.n, dtype=np.int64)
        for c, group in enumerate(self.members):
            out[group] = c
        return out


def build_classes(errors, support=None) -> EquivalenceClassing:
    """Group individuals with identical (error row, support row) pairs.

    Classes appear in order of first occurrence.  With ``support=None``
    all individuals are treated as defined on every case.
    """
    E = as_error_matrix(errors)
    n, m = E.shape
    if support is None:
        S = np.ones((n, m), dtype=np.float64)
        keyed = np.ascontiguousarray(E)
    else:
        S = as_support_matrix(support, E)
        keyed = np.ascontiguousarray(np.concatenate([E, S], axis=1))

    groups: dict[bytes, list[int]] = {}
    for i in range(n):
        groups.setdefault(keyed[i].tobytes(), []).append(i)

    members = tuple(np.array(g, dtype=np.int64) for g in groups.values())
    firsts = np.array([g[0] for g in members], dtype=np.int64)
    return EquivalenceClassing(
        class_errors=E[firsts].copy(),
        class_support=S[firsts].copy(),
        members=members,
    )


def singleton_classes(errors, support=None) -> EquivalenceClassing:
    """Wrap a population without grouping: one class per individual.

    Useful for running a selector directly on raw rows, e.g. to check
    that grouping leaves its selection distribution unchanged.
    """
    E = as_error_matrix(errors)
    n, m = E.shape
    S = np.ones((n, m), dtype=np.float64) if support is None else as_support_matrix(support, E)
    members = tuple(np.array([i], dtype=np.int64) for i in range(n))
    return EquivalenceClassing(class_errors=E.copy(), class_support=S.copy(), members=members)


def expand_class_selection(
    classing: EquivalenceClassing, class_indices, rng: RandomSource
) -> np.ndarray:
    """Map selected class indices to individual indices.

    Each pick draws uniformly among the class's members, so a class's
    probability mass spreads evenly over the duplicates it groups.
    """
    picks = np.asarray(class_indices, dtype=np.int64)
    if picks.ndim != 1:
        raise ShapeError(f"class indices must be 1-D, got shape {picks.shape}")
    if picks.size and (picks.min() < 0 or picks.max() >= classing.k):
        raise ShapeError("class index out of range")
    if picks.size == 0:
        return np.empty(0, dtype=np.int64)

    sizes = classing.sizes
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    flat = np.concatenate(classing.members)
    gen = rng.generator(EXPAND_STREAM)
    offsets = gen.integers(0, sizes[picks])
    return flat[starts[picks] + offsets]


def _moments(E: np.ndarray, w: np.ndarray, total: float):
    """Per-column weighted mean and population standard deviation."""
    mean = (w @ E) / total
    return mean, np.sqrt((w @ (E - mean) ** 2) / total)


def standardize_per_case(errors, multiplicities=None) -> np.ndarray:
    """Shift and scale each case column to mean 0 and population std 1.

    ``multiplicities`` weights each row (class member counts) so the
    statistics match those of the ungrouped population.  Columns with no
    variation become all zeros instead of dividing by zero.
    """
    E = as_error_matrix(errors)
    n = E.shape[0]
    if multiplicities is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(multiplicities, dtype=np.float64)
        if w.shape != (n,):
            raise ShapeError(f"multiplicities shape {w.shape} does not match {n} rows")
        if (w < 1).any() or (w != np.round(w)).any():
            raise ShapeError("multiplicities must be positive integers")

    total = w.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = _moments(E, w, total)
    wide = ~(np.isfinite(mean) & np.isfinite(std))
    if wide.any():
        # Errors near the float limit overflow the weighted sum or the
        # squares.  Scaling such a column of the fresh copy by a power of
        # two is exact, and the standardized values do not depend on it.
        E[:, wide] *= 2.0**-600
        mean, std = _moments(E, w, total)
    constant = (E == E[0]).all(axis=0) | (std == 0.0)
    out = (E - mean) / np.where(constant, 1.0, std)
    out[:, constant] = 0.0
    return out


def _parse_matrix_lines(path: str) -> list[list[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    rows: list[list[float]] = []
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if header_seen or rows:
                raise ParseError("only a single leading '#' header line is allowed", lineno)
            header_seen = True
            continue
        values = []
        for tok in stripped.split(","):
            try:
                values.append(float(tok.strip()))
            except ValueError:
                raise ParseError(f"not a decimal value: {tok.strip()!r}", lineno) from None
        if not np.isfinite(values).all():
            raise ParseError("non-finite value", lineno)
        if rows and len(values) != len(rows[0]):
            raise ParseError(
                f"expected {len(rows[0])} columns, found {len(values)}", lineno
            )
        rows.append(values)
    if not rows:
        raise ParseError("no data rows found")
    return rows


def load_error_matrix(path: str) -> np.ndarray:
    """Read an error matrix from CSV: one row per individual.

    An optional single header line starting with ``#`` is skipped.
    Values use '.' as the decimal separator regardless of locale.
    """
    return np.array(_parse_matrix_lines(path), dtype=np.float64)


def load_support_matrix(path: str) -> np.ndarray:
    """Read a binary support matrix from CSV; entries must be 0 or 1."""
    rows = _parse_matrix_lines(path)
    arr = np.array(rows, dtype=np.float64)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ParseError(f"support file {path} must contain only 0/1 entries")
    return arr


def save_matrix(path: str, matrix) -> None:
    """Write a matrix as CSV with full round-trip decimal precision."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got shape {arr.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")

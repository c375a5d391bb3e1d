"""Population-level primitives shared by every selector.

Errors live in an (n, m) float matrix with one row per individual and one
column per test case; lower is always better.  An optional binary support
matrix of the same shape marks which cases each individual is defined on.
Undefined entries hold an error of exactly zero here.  The lexicase
family's filter reads them as +inf: an undefined error loses to every
defined one, and a case on which no survivor is defined keeps them all.
``dalex`` renormalizes around them, dividing each weighted sum by the
weight of the cases a class is defined on.

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
    """Validate and return a fresh C-ordered (n, m) float64 error matrix.

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
    # numeric equality; C order lets grouping view each row as one value.
    return np.add(arr, 0.0, order="C")


def as_support_matrix(support, errors: np.ndarray) -> np.ndarray:
    """Validate a binary support matrix against its error matrix.

    Every row must cover at least one case, and error entries must be
    exactly zero wherever support is zero.  Returns a fresh C-ordered
    float64 copy, so later changes to ``support`` do not reach it.
    """
    sup = np.array(support, dtype=np.float64, order="C")
    if sup.shape != errors.shape:
        raise ShapeError(
            f"support shape {sup.shape} does not match error shape {errors.shape}"
        )
    undefined = sup == 0.0
    if not (undefined | (sup == 1.0)).all():
        raise ShapeError("support matrix entries must be 0 or 1")
    if undefined.all(axis=1).any():
        raise ShapeError("every individual must be defined on at least one case")
    if np.any(undefined & (errors != 0.0)):
        raise ShapeError("error entries must be exactly 0 where support is 0")
    return sup


@dataclass(frozen=True)
class EquivalenceClassing:
    """Distinct (error row, support row) pairs of a population.

    ``class_errors`` and ``class_support`` have one C-ordered row per
    class, in order of first occurrence.  ``inverse[i]`` is the class of
    individual ``i`` and ``counts[c]`` the number of individuals in class
    ``c``; both are read-only because every caller shares them.  With
    full support ``class_support`` may be a read-only broadcast of ones.
    ``full_support`` is set when the classing is built without support.
    Otherwise it, like the member order used by expansion, is computed on
    first access and cached.
    """

    class_errors: np.ndarray
    class_support: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray

    @property
    def k(self) -> int:
        return self.class_errors.shape[0]

    @property
    def m(self) -> int:
        return self.class_errors.shape[1]

    @property
    def n(self) -> int:
        return self.inverse.size

    @property
    def sizes(self) -> np.ndarray:
        """Member count of each class (the same array as ``counts``)."""
        return self.counts

    @cached_property
    def full_support(self) -> bool:
        return bool((self.class_support == 1.0).all())

    @cached_property
    def member_order(self) -> np.ndarray:
        """Individuals sorted by class, ascending within each class."""
        order = np.argsort(self.inverse, kind="stable")
        order.flags.writeable = False
        return order

    def class_of(self) -> np.ndarray:
        """Return the class index of each individual (``inverse``)."""
        return self.inverse


def _group_rows(keyed: np.ndarray):
    """Class of each row of a C-ordered float64 matrix, classes numbered
    in order of first occurrence, and the first row of each class (None
    when every row is its own class).

    Each row is viewed as one opaque value, so a stable sort brings equal
    rows together in ascending index order and a run's head is its first
    occurrence.  Neighbours are compared as rows of 64-bit words, the
    same bytes as the opaque values: several times faster than their
    ``!=`` where rows repeat.  Where most neighbours differ in their
    first word, only the pairs whose first words agree are compared
    whole, which halves the time on all-distinct rows.
    """
    n = keyed.shape[0]
    rows = keyed.view(np.dtype((np.void, keyed.itemsize * keyed.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    words = keyed.view(np.uint64)
    head = np.empty(n, dtype=bool)
    head[0] = True
    first = words[order, 0]
    same = np.flatnonzero(first[1:] == first[:-1])
    if 2 * same.size > n:
        ordered = words[order]
        head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    else:
        head[1:] = True
        head[same + 1] = (words[order[same + 1]] != words[order[same]]).any(axis=1)
    firsts = order[head]
    if firsts.size == n:
        return np.arange(n, dtype=np.int64), None
    rank = np.argsort(firsts)
    run_class = np.empty(firsts.size, dtype=np.int64)
    run_class[rank] = np.arange(firsts.size)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = run_class[np.cumsum(head) - 1]
    return inverse, firsts[rank]


def _classing(E: np.ndarray, S: np.ndarray | None, inverse: np.ndarray) -> EquivalenceClassing:
    """The classing of fresh class rows ``E`` and ``S`` (full support when
    None: a read-only broadcast of ones) and each individual's class."""
    k, m = E.shape
    counts = np.bincount(inverse, minlength=k)
    inverse.flags.writeable = False
    counts.flags.writeable = False
    if S is not None:
        return EquivalenceClassing(E, S, inverse, counts)
    classing = EquivalenceClassing(E, np.broadcast_to(np.ones(1), (k, m)), inverse, counts)
    # Known here, so no pass pays for comparing k x m ones.
    classing.__dict__["full_support"] = True
    return classing


def build_classes(errors, support=None) -> EquivalenceClassing:
    """Group individuals with identical (error row, support row) pairs.

    Classes appear in order of first occurrence.  With ``support=None``
    all individuals are treated as defined on every case.  The classing
    holds its own copies: later changes to ``errors`` or ``support`` do
    not reach it.
    """
    E = as_error_matrix(errors)
    S = None if support is None else as_support_matrix(support, E)
    # Errors are finite and exactly 0 where support is 0, so E / S keeps
    # every defined error and puts the same NaN (0 / 0) at every undefined
    # entry: one key row per (error row, support row) pair.
    with np.errstate(invalid="ignore"):
        inverse, firsts = _group_rows(E if S is None else E / S)
    if firsts is not None:
        E = E[firsts]
        S = None if S is None else S[firsts]
    return _classing(E, S, inverse)


def singleton_classes(errors, support=None) -> EquivalenceClassing:
    """Wrap a population without grouping: one class per individual.

    Useful for running a selector directly on raw rows, e.g. to check
    that grouping leaves its selection distribution unchanged.
    """
    E = as_error_matrix(errors)
    S = None if support is None else as_support_matrix(support, E)
    return _classing(E, S, np.arange(E.shape[0], dtype=np.int64))


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

    counts = classing.counts
    starts = np.cumsum(counts) - counts
    gen = rng.generator(EXPAND_STREAM)
    offsets = gen.integers(0, counts[picks])
    return classing.member_order[starts[picks] + offsets]


def _moments(E: np.ndarray, w: np.ndarray, total, S: np.ndarray | None = None):
    """Per-column weighted mean and population standard deviation over
    the entries ``S`` marks defined (every entry when None), whose
    weights sum to ``total``."""
    mean = (w @ E) / total
    dev = (E - mean) ** 2
    if S is not None:
        dev *= S
    return mean, np.sqrt((w @ dev) / total)


def standardize_per_case(errors, multiplicities=None, support=None) -> np.ndarray:
    """Shift and scale each case column to mean 0 and population std 1.

    ``multiplicities`` weights each row (class member counts) so the
    statistics match those of the ungrouped population.  With a
    ``support`` matrix each column is standardized over its defined
    entries only, and undefined entries stay 0.  Columns with no
    variation among their defined entries become all zeros instead of
    dividing by zero.
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
    S = None if support is None else as_support_matrix(support, E)

    if S is None:
        total = w.sum()
    else:
        # Undefined errors are 0 and add nothing to the weighted sums.  A
        # column no row is defined on gets weight 1: mean and std 0.
        total = np.maximum(w @ S, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = _moments(E, w, total, S)
    wide = ~(np.isfinite(mean) & np.isfinite(std))
    if wide.any():
        # Errors near the float limit overflow the weighted sum or the
        # squares.  Scaling such a column of the fresh copy by a power of
        # two is exact, and the standardized values do not depend on it.
        E[:, wide] *= 2.0**-600
        mean, std = _moments(E, w, total, S)
    if S is None:
        constant = (E == E[0]).all(axis=0)
    else:
        defined = S == 1.0
        low = np.where(defined, E, np.inf).min(axis=0)
        constant = low >= np.where(defined, E, -np.inf).max(axis=0)
    constant |= std == 0.0
    out = (E - mean) / np.where(constant, 1.0, std)
    out[:, constant] = 0.0
    if S is not None:
        out *= S
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

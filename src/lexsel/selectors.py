"""Parent selection methods.

Four methods share one calling convention: they take an
:class:`~lexsel.core.EquivalenceClassing` and return one selected class
index per selection event.

``dalex`` replaces lexicase's sequential case filtering with a single
weighted aggregation.  Each event draws a row of importance scores, one
per case; a softmax turns the scores into case weights; the class with
the lowest weighted mean error wins.  The spread of the scores (the
particularity pressure) controls how concentrated the weights are: zero
pressure weights all cases equally, while large pressures let a single
case dominate, which reproduces lexicase's hyper-selective behavior.
Because every event is an independent row, thousands of events reduce to
one matrix product.

``lexicase``, ``epsilon_lexicase``, and ``batch_lexicase`` are the
classic iterative filters, kept both as references and as baselines.
They run one filter that differs between them only in the batch size
and the survival tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Mapping

import numpy as np

from .core import (
    EVENT_STREAM,
    FINISH_STREAM,
    IMPORTANCE_STREAM,
    TIEBREAK_STREAM,
    EquivalenceClassing,
    RandomSource,
    _group_rows,
    build_classes,
    expand_class_selection,
    standardize_per_case,
)
from .exceptions import ConfigError, ShapeError

__all__ = [
    "METHODS",
    "IMPORTANCE_DISTRIBUTIONS",
    "SelectorConfig",
    "config_from_mapping",
    "config_to_mapping",
    "sample_importance",
    "softmax_rows",
    "weighted_fitness",
    "dalex_select",
    "lexicase_select",
    "epsilon_for_cases",
    "epsilon_lexicase_select",
    "batch_lexicase_select",
    "select_classes",
    "select_parents",
]

METHODS = ("dalex", "lexicase", "epsilon_lexicase", "batch_lexicase")
IMPORTANCE_DISTRIBUTIONS = ("normal", "uniform", "shuffled_range")
BATCH_THRESHOLD_MODES = ("mad", "absolute")


@dataclass(frozen=True)
class SelectorConfig:
    """Hyperparameters for one selection method.

    Parameters
    ----------
    method : str
        One of ``dalex``, ``lexicase``, ``epsilon_lexicase``,
        ``batch_lexicase``.
    pressure : float
        Particularity pressure: the standard deviation of the importance
        scores.  Zero collapses dalex to a mean-error argmin; values
        around 200 make it nearly indistinguishable from lexicase.
    distribution : str
        Importance score distribution: ``normal``, ``uniform``, or
        ``shuffled_range`` (each event a random permutation of an evenly
        spaced grid).
    relaxed : bool
        Standardize each case column to mean 0 / std 1 before weighting,
        so cases with larger error scales cannot dominate.  With partial
        support a column is standardized over the classes defined on it.
    batch_size : int
        Cases per batch for ``batch_lexicase``.
    batch_threshold_mode : str
        ``mad`` derives the survival threshold from the batch means'
        median absolute deviation; ``absolute`` uses a fixed value.
    batch_threshold_value : float
        The fixed threshold used by ``absolute`` mode.
    """

    method: str
    pressure: float = 20.0
    distribution: str = "normal"
    relaxed: bool = False
    batch_size: int = 1
    batch_threshold_mode: str = "mad"
    batch_threshold_value: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"method: unknown method {self.method!r}, expected one of {METHODS}"
            )
        if self.distribution not in IMPORTANCE_DISTRIBUTIONS:
            raise ConfigError(
                f"distribution: unknown distribution {self.distribution!r}, "
                f"expected one of {IMPORTANCE_DISTRIBUTIONS}"
            )
        if not np.isfinite(self.pressure) or self.pressure < 0:
            raise ConfigError(f"pressure: must be a finite value >= 0, got {self.pressure}")
        if not isinstance(self.batch_size, (int, np.integer)) or self.batch_size < 1:
            raise ConfigError(f"batch_size: must be an integer >= 1, got {self.batch_size}")
        if self.batch_threshold_mode not in BATCH_THRESHOLD_MODES:
            raise ConfigError(
                f"batch_threshold_mode: unknown mode {self.batch_threshold_mode!r}, "
                f"expected one of {BATCH_THRESHOLD_MODES}"
            )
        if not np.isfinite(self.batch_threshold_value) or self.batch_threshold_value < 0:
            raise ConfigError(
                "batch_threshold_value: must be a finite value >= 0, "
                f"got {self.batch_threshold_value}"
            )


_CONFIG_KEYS = (
    "method",
    "pressure",
    "distribution",
    "relaxed",
    "batch_size",
    "batch_threshold_mode",
    "batch_threshold_value",
    "seed",
)

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_typed(mapping: Mapping[str, str], key: str, conv, default):
    """Convert ``mapping[key]``, stripped, with ``conv``; ``default`` when
    the key is absent.  A value ``conv`` rejects raises
    :class:`ConfigError` naming the key."""
    if key not in mapping:
        return default
    raw = str(mapping[key]).strip()
    try:
        return conv(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: could not parse value {raw!r}") from None


def config_from_mapping(mapping: Mapping[str, str]) -> tuple[SelectorConfig, int | None]:
    """Build a config (plus optional seed) from flat string key-values.

    This is the on-disk form used by config files.  Unknown keys and
    unparsable values raise :class:`ConfigError` naming the key.
    """
    for key in mapping:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{key}: unknown config key")
    if "method" not in mapping:
        raise ConfigError("method: required config key is missing")

    def parse_bool(raw: str) -> bool:
        word = raw.lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(raw)

    cfg = SelectorConfig(
        method=str(mapping["method"]).strip(),
        pressure=_parse_typed(mapping, "pressure", float, 20.0),
        distribution=_parse_typed(mapping, "distribution", str, "normal"),
        relaxed=_parse_typed(mapping, "relaxed", parse_bool, False),
        batch_size=_parse_typed(mapping, "batch_size", int, 1),
        batch_threshold_mode=_parse_typed(mapping, "batch_threshold_mode", str, "mad"),
        batch_threshold_value=_parse_typed(mapping, "batch_threshold_value", float, 0.0),
    )
    seed = _parse_typed(mapping, "seed", int, None)
    if seed is not None and seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    return cfg, seed


def config_to_mapping(cfg: SelectorConfig, seed: int | None = None) -> dict[str, str]:
    """Serialize a config to the flat string form read back by
    :func:`config_from_mapping`."""
    out = {
        "method": cfg.method,
        "pressure": repr(float(cfg.pressure)),
        "distribution": cfg.distribution,
        "relaxed": "true" if cfg.relaxed else "false",
        "batch_size": str(cfg.batch_size),
        "batch_threshold_mode": cfg.batch_threshold_mode,
        "batch_threshold_value": repr(float(cfg.batch_threshold_value)),
    }
    if seed is not None:
        out["seed"] = str(seed)
    return out


# When dalex_select screens a pass, it draws normal importance scores in
# parts, by inverse transform: each event's four largest scores and
# their cases first, and the rest only for the events that need them.
# At high pressure most events are then decided from their heaviest
# cases alone (:func:`_top_decide`), without drawing or weighing the
# other m - 4.  The distribution is that of :func:`sample_importance`;
# the draws are not.
_TOP = 4
# Probabilities passed to the inverse normal CDF stay inside (0, 1).
_P_LOW = float(np.finfo(np.float64).tiny)
_P_HIGH = 1.0 - 2.0**-53

# Wichura's algorithm AS 241 (PPND16), relative accuracy about 1e-16:
# rational approximations in q = p - 0.5 near the center and in
# r = sqrt(-log(min(p, 1 - p))) in the tails, lowest degree first.
_CENTER_NUM = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_CENTER_DEN = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_NEAR_NUM = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_NEAR_DEN = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_FAR_NUM = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_FAR_DEN = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _horner(coefficients, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coefficients[-1])
    for c in coefficients[-2::-1]:
        out *= x
        out += c
    return out


def _ndtri(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each entry of ``p`` in (0, 1).

    Elementwise, so a value does not depend on the array it sits in.
    """
    shape = p.shape
    p = p.ravel()
    q = p - 0.5
    r = 0.180625 - q * q
    out = q * _horner(_CENTER_NUM, r)
    out /= _horner(_CENTER_DEN, r)
    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        qt = q[tails]
        r = np.sqrt(-np.log(np.minimum(p[tails], 0.5 - qt)))
        near = r <= 5.0
        value = np.empty_like(r)
        x = r[near] - 1.6
        value[near] = _horner(_NEAR_NUM, x) / _horner(_NEAR_DEN, x)
        x = r[~near] - 5.0
        value[~near] = _horner(_FAR_NUM, x) / _horner(_FAR_DEN, x)
        out[tails] = np.copysign(value, qt)
    return out.reshape(shape)


def _top_scores(n_events: int, m: int, pressure: float, rng: RandomSource):
    """Each event's ``min(4, m)`` largest normal scores, largest first,
    their (distinct, uniformly placed) cases, and the normal CDF level
    below which its other scores lie.

    By Renyi's representation, -log Phi(X) of the t-th largest of m
    standard normal draws is the sum of t independent exponential
    spacings, the s-th divided by m - s (s from 0).  One stream holds the
    spacings and one the cases, a fixed number an event, in event order.
    """
    return _draw_top_scores(_top_streams(rng), n_events, m, pressure)


def _top_streams(rng: RandomSource):
    """The spacing and case generators of :func:`_top_scores`."""
    return rng.generator(IMPORTANCE_STREAM, 0), rng.generator(IMPORTANCE_STREAM, 1)


def _draw_top_scores(streams, n_events: int, m: int, pressure: float):
    """:func:`_top_scores` of the next ``n_events`` events on ``streams``;
    successive calls continue where the last stopped."""
    r = min(_TOP, m)
    spacings = streams[0].standard_exponential((n_events, r))
    depth = np.cumsum(spacings / (m - np.arange(r)), axis=1)
    tail = np.clip(-np.expm1(-depth), _P_LOW, _P_HIGH)
    # Rounding must not break the order the sampling guarantees.
    values = np.minimum.accumulate(-_ndtri(tail), axis=1) * pressure
    # The t-th case is uniform over the m - t cases not yet taken: its
    # draw skips each taken case, in increasing order.
    cases = streams[1].integers(0, m - np.arange(r), size=(n_events, r))
    for t in range(1, r):
        for taken in np.sort(cases[:, :t], axis=1).T:
            cases[:, t] += cases[:, t] >= taken
    return cases, values, np.exp(-depth[:, -1])


class _RestStream:
    """The uniforms behind each event's scores below its largest four: m
    an event (those at its top cases go unused), at the event's own
    position on one stream, so a pass draws only the events it completes
    and an event's scores do not depend on which others were drawn."""

    def __init__(self, rng: RandomSource, m: int):
        self.gen = rng.generator(IMPORTANCE_STREAM, 2)
        self.width = m if m > _TOP else 0
        self.next = 0

    def draw(self, events: np.ndarray) -> np.ndarray:
        """Uniforms for ``events``, ascending and after every event drawn
        before."""
        out = np.empty((events.size, self.width))
        if self.width == 0 or events.size == 0:
            return out
        starts = np.flatnonzero(np.diff(events, prepend=events[0] - 2) != 1).tolist()
        for a, b in zip(starts, starts[1:] + [events.size]):
            self.gen.bit_generator.advance(int(events[a] - self.next) * self.width)
            out[a:b] = self.gen.random((b - a, self.width))
            self.next = int(events[b - 1]) + 1
        return out


def _complete_scores(cases, values, level, uniforms, pressure: float) -> np.ndarray:
    """Full score rows from :func:`_top_scores` and :class:`_RestStream`.

    Given its largest scores, an event's other scores are independent
    normal draws below the last of them: Phi^-1 of a uniform times the
    CDF level, kept below it also after rounding.
    """
    n, r = cases.shape
    if uniforms.shape[1] == 0:
        out = np.empty((n, r))
    else:
        below = np.maximum((1.0 - uniforms) * level[:, None], _P_LOW)
        out = _ndtri(below) * pressure
        np.minimum(out, values[:, -1:], out=out)
    out[np.arange(n)[:, None], cases] = values
    return out


# A screened pass draws its normal scores in parts only when the top
# screen decides at least a quarter of the first this many events: each
# event it leaves costs more to complete through Phi^-1 than to draw
# whole, and at low pressure it leaves nearly all of them.
_PILOT = 64


def _decisive_top_scores(n_events: int, m: int, pressure: float, rng: RandomSource, screen):
    """:func:`_top_scores` of every event if its first events show the
    top screen pays, else None.  The pilot's events are drawn whatever
    ``n_events`` is, so the choice does not depend on it, and the other
    events only once it accepts."""
    streams = _top_streams(rng)
    top = _draw_top_scores(streams, _PILOT, m, pressure)
    if 4 * _top_decide(top[0], top[1], screen)[0].size < _PILOT:
        return None
    if n_events > _PILOT:
        rest = _draw_top_scores(streams, n_events - _PILOT, m, pressure)
        top = [np.concatenate(pair) for pair in zip(top, rest)]
    return tuple(part[:n_events] for part in top)


def _scores_in_parts(n_events: int, m: int, pressure: float, rng: RandomSource) -> np.ndarray:
    """Every event's full normal scores in the layout :func:`dalex_select`
    draws them in when it screens a pass, where it completes only the
    events its top screen leaves."""
    top = _top_scores(n_events, m, pressure, rng)
    return _complete_scores(*top, _RestStream(rng, m).draw(np.arange(n_events)), pressure)


def sample_importance(
    n_events: int, m: int, cfg: SelectorConfig, rng: RandomSource
) -> np.ndarray:
    """Draw an (n_events, m) matrix of importance scores.

    Every distribution is scaled so its standard deviation equals the
    particularity pressure.  ``shuffled_range`` fills each row with an
    independent random permutation of m evenly spaced values centered at
    zero; its spacing grows with the pressure, and once consecutive
    weights are further apart than the largest possible error ratio the
    induced score order decides selection exactly like lexicase.

    :func:`dalex_select` draws its own normal scores in parts when it
    screens a pass (see :func:`_scores_in_parts`): the same distribution,
    other draws.
    """
    if n_events < 1 or m < 1:
        raise ShapeError(f"need n_events >= 1 and m >= 1, got {n_events}, {m}")
    gen = rng.generator(IMPORTANCE_STREAM)
    if cfg.distribution == "normal":
        # The bits of gen.normal(0.0, pressure), which takes 0.0 +
        # pressure * z from the same draws z, in about 6% less time at
        # 1000x200.
        scores = gen.standard_normal((n_events, m))
        scores *= cfg.pressure
        return scores
    if cfg.distribution == "uniform":
        half = cfg.pressure * np.sqrt(3.0)
        return gen.uniform(-half, half, size=(n_events, m))
    # shuffled_range: grid spacing chosen so the population std of the m
    # grid values equals the pressure.
    if m == 1:
        return np.zeros((n_events, 1))
    grid_std = np.sqrt((m * m - 1) / 12.0)
    grid = (np.arange(m, dtype=np.float64) - (m - 1) / 2.0) * (cfg.pressure / grid_std)
    tiled = np.tile(grid, (n_events, 1))
    return gen.permuted(tiled, axis=1)


# Below this exponent ``exp`` gives a subnormal power or zero.
_LOG_TINY = np.log(np.finfo(np.float64).tiny)


def softmax_rows(scores, *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Entries that underflow to zero are clamped to the smallest positive
    normal float so weights stay strictly positive; support-normalization
    denominators then never vanish.  Each row still sums to 1 within
    1e-9.  ``out``, a float64 array of the scores' shape, receives the
    weights.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ShapeError("scores contain non-finite entries")
    z = np.subtract(s, s.max(axis=1, keepdims=True), out=out)
    # Exponents whose power underflows are flushed before ``exp``, which
    # is slow in that range.  Their weights, and the row sums, come out
    # as without the flush: each such power is below tiny, too small to
    # move a sum of at least 1, and the weight is clamped to tiny.
    np.copyto(z, -np.inf, where=z < _LOG_TINY)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    np.maximum(z, np.finfo(np.float64).tiny, out=z)
    return z


def weighted_fitness(
    classing: EquivalenceClassing,
    weights: np.ndarray,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Fitness of every class under every weight row.

    Entry (i, c) is the weighted mean error of class c over the cases it
    is defined on: ``(sum_j w_ij e_cj) / (sum_j w_ij s_cj)``.  With full
    support the denominator is identically 1 and is skipped.  ``out``, a
    pair of C-contiguous (n, k) float64 arrays, receives the fitness in
    its first and the denominators in its second, so repeated calls
    allocate nothing.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != classing.m:
        raise ShapeError(
            f"weights shape {weights.shape} does not match m={classing.m}"
        )
    fitness, mass = (None, None) if out is None else out
    fitness = np.matmul(weights, classing.class_errors.T, out=fitness)
    if not classing.full_support:
        fitness /= np.matmul(weights, classing.class_support.T, out=mass)
    return fitness


# Events run in blocks of about this many (event, class) entries, so every
# per-block temporary stays near 8 MB of float64 whatever the event count.
_BLOCK_ENTRIES = 1 << 20


def _event_blocks(n_events: int, k: int):
    """Near-equal (start, stop) event blocks of at least
    ``max(2, _BLOCK_ENTRIES // k)`` rows each, or one block of every event.

    No block holds a single row unless ``n_events == 1``: numpy computes a
    one-row product as a matrix-vector product, which rounds differently
    from the same row inside a larger product, so a lone row could change
    a pick that depends on the last bit.
    """
    n_blocks = max(1, n_events // max(2, _BLOCK_ENTRIES // k))
    bounds = np.arange(n_blocks + 1) * n_events // n_blocks
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


def _cascade_chunks(n_pending: int, k: int):
    """Near-equal (start, stop) chunks of the ``n_pending`` events a pass's
    screens leave to :func:`_cascade`, each of at most
    ``max(2, _BLOCK_ENTRIES // 2 // k)`` rows: half a block, so the
    chunk's products stay within a block's working set.

    As in :func:`_event_blocks`, no chunk is a single row unless
    ``n_pending == 1``; where the cap is two rows, an odd count puts
    three in one chunk.
    """
    rows = max(2, _BLOCK_ENTRIES // 2 // k)
    n_chunks = max(1, min(-(-n_pending // rows), n_pending // 2))
    bounds = np.arange(n_chunks + 1) * n_pending // n_chunks
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


def _pick_marked(marked: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Pick one marked column per row, uniformly among that row's marked
    columns: the one at position ``floor(u * count)`` in column order.

    ``u`` holds one uniform per row whether or not that row has several
    candidates, so stream consumption does not depend on the data.
    """
    picks = marked.argmax(axis=1)
    # Every row is marked, so as many marks as rows is one a row.
    if np.count_nonzero(marked) == marked.shape[0]:
        return picks
    counts = marked.sum(axis=1)
    many = np.flatnonzero(counts > 1)
    if many.size:
        _, cols = np.nonzero(marked[many])
        c = counts[many]
        target = np.minimum(np.floor(u[many] * c).astype(np.int64), c - 1)
        picks[many] = cols[np.cumsum(c) - c + target]
    return picks


def _agreed_cases(tied: np.ndarray, class_errors) -> np.ndarray:
    """Per row of ``tied`` (each marking at least two classes), the cases on
    which every marked class has the same error as the row's first one.
    ``class_errors`` gathers the class rows (an array or a
    :class:`_ClassRows`).

    Rows are compared as (row, class) pairs, whole rows at a time, with
    about ``_BLOCK_ENTRIES`` gathered errors per slice.  A pair's
    differences are packed eight cases a byte before they are reduced
    over the row's pairs.
    """
    n, k = tied.shape
    m = class_errors.shape[1]
    # One flat scan: much faster than ``np.nonzero`` on sparse marks.
    rows, cols = np.divmod(np.flatnonzero(tied), k)
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    differs = np.empty((n, -(-m // 8)), dtype=np.uint8)
    budget = max(1, _BLOCK_ENTRIES // m)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + budget, side="right")))
        a, b = starts[lo], starts[hi - 1] + counts[hi - 1]
        gathered = class_errors[cols[a:b]]
        # Each row's first class is one of its gathered rows.
        heads = starts[lo:hi] - a
        first = np.repeat(gathered[heads], counts[lo:hi], axis=0)
        pairs = np.packbits(gathered != first, axis=1)
        differs[lo:hi] = np.bitwise_or.reduceat(pairs, heads, axis=0)
        lo = hi
    return np.unpackbits(differs, axis=1, count=m) == 0


def _flushed_softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    # Exponents whose power underflows are flushed before ``exp``, which
    # is slow in that range; their weights are flushed below anyway.
    z[z < _LOG_TINY] = -np.inf
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    # Subnormal weights cost an order of magnitude in the matrix product
    # and can only matter when every larger contribution cancels
    # bit-exactly; flushing them to zero turns that corner into a tie the
    # later rounds resolve at full precision, the same way masked cases
    # are.
    z[z < np.finfo(np.float64).tiny] = 0.0
    return z


# The lexicographic screen walks each event's heaviest cases this deep.
_LEX_DEPTH = 8
_TINY32 = float(np.finfo(np.float32).tiny)
# Below this factor the top screen drops or raises a bound's terms.
_FLOOR = 2.0**-500
_LOG_FLOOR = float(np.log(_FLOOR))
# The top screen's class-wide pass takes only events whose cases past the
# heaviest three weigh at most this much of the heaviest one each.
_LOG_LIGHT_TAIL = float(np.log(2.0**-20))
# The class-wide pass first bounds this many classes of least error on an
# event's heaviest case (:meth:`_Screen.heads`).
_HEAD = 64
# The largest shifted error the screen takes: every float32 fitness and
# threshold then stays below the float32 maximum.
_F32_ROOM = float(np.finfo(np.float32).max) / 4
# The float32 screen sums weighted error rows instead of taking the
# product when at most one weight in this many is in float32 range.
_SPARSE_SHARE = 8


def _gamma(n: int, u: float) -> float:
    """The rounding bound gamma_n = n u / (1 - n u)."""
    return n * u / (1.0 - n * u)


@dataclass
class _Screen:
    """The per-pass inputs of the screens (see :func:`_screen_setup`).
    Inputs only some passes need are built on first use: the float32
    errors, the elite bitsets, and each case's head for
    :func:`_top_decide`'s class-wide pass."""

    errors_t: np.ndarray  # the shifted errors, one C-contiguous row per case
    unique_min: np.ndarray  # which cases have a unique best class
    rel: float  # the float32 screen's relative term
    absolute: float  # and its absolute term
    best: np.ndarray  # each case's best class, where it is unique
    runner_up: np.ndarray  # each case's least nonzero error
    sums: np.ndarray  # each class's error sum
    top_factor: float  # the top screen's relative factor
    top_absolute: float  # and its absolute term (the lexicographic screen's too)
    most: float  # the largest error
    elite_sizes: np.ndarray  # how many classes each case's zeros hold
    lex_factor: float  # the lexicographic screen's relative factor

    @cached_property
    def errors32(self) -> np.ndarray:
        """The float32 copy for the screen's products, made once a pass:
        class major (Fortran-ordered as (m, k)), on which the float32
        product runs a few percent faster than on case rows."""
        return np.asfortranarray(self.errors_t, dtype=np.float32)

    @cached_property
    def elite(self) -> np.ndarray:
        """Each case's zeros as bitsets over classes (:func:`_bitsets`),
        made once a pass."""
        return _bitsets(self.errors_t == 0)

    @cached_property
    def _head_cache(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.errors_t.shape[0]
        return np.zeros(m, dtype=bool), np.empty((m, _HEAD), dtype=np.intp), np.empty(m)

    def heads(self, cases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The head of each of ``cases`` (k > :data:`_HEAD` only): its
        ``_HEAD`` classes of least error, by class index, and ``rest``,
        the least error of any other class.  Each case's head is built
        the first time it is asked for, once a pass."""
        built, heads, rest = self._head_cache
        new = np.unique(cases[~built[cases]])
        if new.size:
            errors = self.errors_t[new]
            # Position _HEAD holds the least error outside the head.
            part = np.argpartition(errors, _HEAD, axis=1)
            heads[new] = np.sort(part[:, :_HEAD], axis=1)
            rest[new] = errors[np.arange(new.size), part[:, _HEAD]]
            built[new] = True
        return heads[cases], rest[cases]


def _bitsets(marks: np.ndarray) -> np.ndarray:
    """Each row of the boolean ``marks`` as little-endian uint64 words,
    bit c of word w marking column 64 w + c."""
    rows, cols = marks.shape
    padded = np.zeros((rows, -(-cols // 64) * 64), dtype=bool)
    padded[:, :cols] = marks
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


_M1, _M2, _M4, _H01 = (
    np.uint64(word)
    for word in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def _swar_popcount(words: np.ndarray) -> np.ndarray:
    """The set bits of each uint64 of ``words``, by the SWAR bit count."""
    words = words - ((words >> np.uint64(1)) & _M1)
    words = (words & _M2) + ((words >> np.uint64(2)) & _M2)
    words = (words + (words >> np.uint64(4))) & _M4
    return (words * _H01) >> np.uint64(56)


def _row_popcount(sets: np.ndarray) -> np.ndarray:
    """The set bits of each row of the uint64 words ``sets`` (a set's
    words run along the last axis)."""
    if hasattr(np, "bitwise_count"):
        counts = np.bitwise_count(sets)
        # The uint8 counts sum faster into a uint16 accumulator, which
        # holds any row of fewer than 2^16 bits.
        narrow = sets.shape[-1] * 64 < 1 << 16
        return counts.sum(axis=-1, dtype=np.uint16 if narrow else None)
    # NumPy 1.x has no bit count ufunc; the SWAR count is several times slower.
    return _swar_popcount(sets).sum(axis=-1)


# Per-case set-up reads the case-major errors in chunks of about this
# many entries, so its temporaries stay small whatever the matrix.
_CHUNK_ENTRIES = 1 << 16


def _case_chunks(m: int, k: int):
    """(start, stop) runs of the m cases of about ``_CHUNK_ENTRIES``
    entries of k classes each."""
    rows = max(1, _CHUNK_ENTRIES // k)
    return ((lo, min(lo + rows, m)) for lo in range(0, m, rows))


def _least_nonzero(errors: np.ndarray) -> np.ndarray:
    """Each row's least nonzero entry of the non-negative ``errors``
    (+inf counts as an entry), inf where there is none.

    Non-negative floats order as their bit patterns, and one less than
    the pattern of +0 is the largest pattern (-0's is the next), so a
    minimum over the patterns minus one skips the zeros.  On tied rows
    this is several times faster than a masked minimum.  Callers pass
    case rows a chunk at a time (:func:`_case_chunks`), so its one
    temporary stays small.
    """
    least = (errors.view(np.uint64) - np.uint64(1)).min(axis=1)
    least = (least + np.uint64(1)).view(np.float64)
    least[least == 0] = np.inf
    return least


def _screen_setup(class_errors: np.ndarray) -> _Screen | None:
    """The per-pass inputs of the screens for the shifted ``class_errors``,
    the (k, m) view of a case-major array (:func:`_shifted_errors`),
    read a chunk of case rows at a time.  None, and a float64 pass, when
    the errors do not fit float32 or m is too large for the bound.  On
    full score rows the lexicographic screen (:func:`_lex_screen`) walks
    every event its gate admits; on scores drawn in parts
    :func:`_top_decide` tries the events whose heaviest case has a
    unique best class.  The float32 screen then takes the events left,
    except those walked from a tied heaviest case, on which most classes
    would stay candidates.

    Let F_c be class c's exact fitness under the float64 weights, and
    g_c its float32 fitness.  Casting the weights and errors and summing
    m non-negative terms in float32 puts g_c within a relative
    gamma_{m+4} of F_c (two of the four spare terms cover the casts, two
    the threshold's own rounding); flushing the weights below float32
    ``tiny`` lowers it by at most m * tiny32 * max error; and float32
    underflow in casts and products adds at most 2^-148 a term.  The
    float64 fitness lies within a relative gamma_m of F_c, and ties
    within ``slack``.  So every class of the float64 tie set has
    g_c <= rel * min g + absolute, with ``rel`` and ``absolute`` below,
    whatever order the terms are summed in.  The class sums are taken
    case row by case row; every bound covers any order of a sum.
    """
    errors_t = class_errors.T
    m, k = errors_t.shape
    top = float(errors_t.max(initial=0.0))
    if top > _F32_ROOM or (m + 4) * 2.0**-24 >= 0.5:
        return None
    elite_sizes, best = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
    runner_up, sums = np.empty(m), np.zeros(k)
    for lo, hi in _case_chunks(m, k):
        rows = errors_t[lo:hi]
        zero = rows == 0
        elite_sizes[lo:hi] = np.count_nonzero(zero, axis=1)
        # Where a case's best class is unique, it is the one zero's column.
        best[lo:hi] = zero.argmax(axis=1)
        runner_up[lo:hi] = _least_nonzero(rows)
        sums += rows.sum(axis=0)
    g32, g64 = _gamma(m + 4, 2.0**-24), _gamma(m, 2.0**-53)
    slack = 1.0 + 2.0 * m * np.finfo(np.float64).eps
    rel = slack * (1 + g32) / (1 - g32) * (1 + g64) / (1 - g64)
    # The top screen's factor: the tie slack, gamma_m on both float64
    # fitnesses and on the error sum, and 16 more rounding errors for
    # exp, the softmax division and the bound's own arithmetic.  Its
    # absolute term covers float64 underflow: at most 2^-1075 a product,
    # m products a fitness, times a softmax denominator of at most m.
    g = _gamma(3 * m + 16, 2.0**-53)
    # The lexicographic screen's factor: the same, plus two rounding
    # errors for each exp and one for each term of its longer sums, and
    # 3 * 709 for a round whose heaviest usable case is heavier than the
    # bound's: its exponents differ from the bound's by at most 3 u |z|,
    # and |z| < 709 wherever a weight is not flushed.
    g_lex = _gamma(3 * m + 4 * _LEX_DEPTH + 16 + 3 * 709, 2.0**-53)
    return _Screen(
        errors_t=errors_t,
        unique_min=elite_sizes == 1,
        rel=rel,
        absolute=(rel + 1) * m * (_TINY32 * top + 2.0**-148),
        best=best,
        runner_up=runner_up,
        sums=sums,
        top_factor=slack * (1 + g) / (1 - g),
        top_absolute=m * m * 2.0**-1072,
        most=top,
        elite_sizes=elite_sizes,
        lex_factor=slack * (1 + g_lex) / (1 - g_lex),
    )


def _top_decide(cases: np.ndarray, values: np.ndarray, screen) -> tuple[np.ndarray, np.ndarray]:
    """The events decided from their heaviest cases alone, and their
    classes, without the softmax or a product.

    ``cases`` and ``values`` hold each event's r largest scores, largest
    first, and its other scores are at most the last of them.  Let
    z_t <= 0 be the t-th largest score minus the largest (the exponents
    :func:`_flushed_softmax` gives those cases) and S the softmax
    denominator.  Over the r - 1 heaviest cases, class c has
    L_c = sum_t exp(z_t) e_ct, and every other case weighs at most
    exp(z_r) / S, so S F_c lies between L_c and U_c = L_c + exp(z_r) E_c,
    where E_c is c's error sum.  The float64 round marks the class a of
    least L alone when every other class has L_c > U_a beyond the tie
    slack and every rounding error, and S cancels.  Only events whose
    heaviest case has a unique best class b are tried, and most are
    decided by a first pass that needs no class-wide work: e_b1 = 0 in
    U_b, and every other class has L_c >= e2, the runner-up's error on
    the heaviest case.

    The class-wide pass, for the events left with a light tail, weighs
    only the head of the heaviest case j1 (:meth:`_Screen.heads`): its
    ``_HEAD`` classes of least e_c1, with ``rest`` the least e_c1 of any
    other class.  When the head's class a has U_a's bound below ``rest``
    the head decides alone, since every class outside it has
    L_c >= e_c1 >= rest, in floating point too: adding non-negative
    terms never lowers a sum.  The class of least L is then the same as
    over every class (the head is in class order, so ties go to the
    first), and so is the decision.  Other events, and every event when
    k <= ``_HEAD``, weigh every class.
    """
    errors_t, sums = screen.errors_t, screen.sums
    factor, absolute = screen.top_factor, screen.top_absolute
    j1 = cases[:, 0]
    rows = np.flatnonzero(screen.unique_min[j1])
    r = cases.shape[1]
    # The same subtractions as the softmax's, so the same exponents.
    z = values[rows, 1:] - values[rows, :1]
    b = screen.best[j1[rows]]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        w = np.exp(z)
        # U_b, with e_b1 = 0.  An overflowing error sum makes it inf (or
        # nan when the exponent underflows to 0); neither decides.
        upper = w[:, -1] * sums[b] if r > 1 else np.zeros(rows.size)
        for t in range(1, r - 1):
            upper += w[:, t - 1] * errors_t[cases[rows, t], b]
        alone = screen.runner_up[j1[rows]] > factor * upper + absolute
        decided, classes = [rows[alone]], [b[alone]]
        # The class-wide pass costs about as much as a product row, and
        # a heavy tail leaves it nothing to prove.
        left = np.flatnonzero(~alone & (z[:, -1] < _LOG_LIGHT_TAIL)) if r > 1 else []
        if len(left):
            events = rows[left]
            top = cases[events, : r - 1]
            # Subnormal factors would slow the class-wide products down a
            # hundredfold; dropping a term keeps L a lower bound, and
            # raising the last exponent keeps U an upper one.
            weights = w[left, : r - 2]
            weights[weights < _FLOOR] = 0.0
            tail = np.exp(np.maximum(z[left, -1], _LOG_FLOOR))
            if errors_t.shape[1] > _HEAD:
                heads, rest = screen.heads(top[:, 0])
                only, a, bound = _class_wide(top, weights, tail, screen, heads)
                # Outside the head L_c >= e_c1 >= rest > bound.
                inside = bound < rest
                decided.append(events[only & inside])
                classes.append(a[only & inside])
                out = ~inside
                events, top, weights, tail = events[out], top[out], weights[out], tail[out]
            if events.size:
                only, a, _ = _class_wide(top, weights, tail, screen)
                decided.append(events[only])
                classes.append(a[only])
    return np.concatenate(decided), np.concatenate(classes)


def _class_wide(top, weights, tail, screen, columns=None):
    """:func:`_top_decide`'s class-wide test of the events whose heaviest
    cases are the rows of ``top``, over every class or over each event's
    row of ``columns`` (class indices, ascending).  Returns which events
    it decides, the class of least L over those it weighs (the first of
    equals, as over every class), and that class's bound on U."""
    errors_t = screen.errors_t

    def gather(t):
        return errors_t[top[:, t]] if columns is None else errors_t[top[:, t, None], columns]

    lower = gather(0)
    for t in range(1, top.shape[1]):
        lower += weights[:, t - 1, None] * gather(t)
    at = np.arange(top.shape[0])
    a = lower.argmin(axis=1)
    least = a if columns is None else columns[at, a]
    bound = screen.top_factor * (lower[at, a] + tail * screen.sums[least]) + screen.top_absolute
    only = np.count_nonzero(lower > bound[:, None], axis=1) == lower.shape[1] - 1
    return only, least, bound


def _set_bits(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and position of every set bit of the rows of uint64 words
    ``sets``, lowest bits first (word by word, one pass per bit)."""
    rows, words = np.nonzero(sets)
    w = sets[rows, words]
    found_rows, found_bits = [rows[:0]], [words[:0]]
    while w.size:
        low = w & (~w + 1)
        found_rows.append(rows)
        # A power of two converts to float64 exactly.
        found_bits.append(words * 64 + np.frexp(low.astype(np.float64))[1] - 1)
        w &= w - 1
        more = w != 0
        w, rows, words = w[more], rows[more], words[more]
    return np.concatenate(found_rows), np.concatenate(found_bits)


def _lex_screen(scores: np.ndarray, screen) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The events of full score rows whose cascade ends with the lexicase
    winner of their heaviest cases marked alone, those classes, and the
    events walked from a tied heaviest case, decided or not; all without
    the softmax or a product.

    Let j_1, j_2, ... be an event's cases by falling score v, and S_t
    the classes of least error on j_t among S_{t-1}, S_0 holding every
    class: a lexicase filter in score order.  A class c cut at step s(c)
    agrees with the survivors on j_1 ... j_{s-1} and has at least n_s,
    the least error of a class cut there, on j_s.  The screen decides for
    a when S_t = {a} within the heaviest R = ``_LEX_DEPTH`` cases and, at
    every step s that cuts a class,

        n_s > f (e_as + sum_{t>s} exp(v_t - v_s) e_at) + absolute,

    the sum exact over the heaviest R cases and bounded past them by
    exp(v_{R+1} - v_s) E_a, E_a being a's error sum.  These exponents are
    the subtractions the cascade makes in a round whose heaviest usable
    case is j_s; ``lex_factor`` f and ``top_absolute`` cover the tie
    slack and the rounding of the exps, the softmax, both fitnesses and
    this bound, as they do for :func:`_top_decide`.

    Why that holds over the whole cascade, not only its first round.  In
    any round a class c != a has at least a's fitness: the two agree
    before s(c), and past it c's error at s(c) outweighs all of a's (f
    also covers exponents taken from a heavier case), or the weight at
    s(c) is flushed and so is every later one.  So a keeps
    the least fitness and stays marked.  Take a round and the shallowest
    step s cutting a marked class; every marked class agrees with a on
    j_1 ... j_{s-1}.  After the first round those are agreed cases the
    cascade has dropped, so j_s is the round's heaviest usable case, the
    round's exponents are the bound's, and the margin at s unmarks every
    class cut there; the next round drops j_s.  In the first round, if
    s = 1 the same holds; if s > 1 no class was cut before j_s, so those
    columns are all zero, agreed, and dropped.  Each round thus drops a
    case while a rival is marked, and the rivals cut at each step go in
    turn, until a is alone.

    Steps run on bitsets while some survivor has a zero on the next case
    (a class cut there then has at least the case's runner-up); an event
    whose survivors all miss the zeros unpacks them into (event, class)
    pairs, filtered by exact minimum from that step on.

    The walk takes every event whether its heaviest case is tied or has
    a unique best class: that case is then a first step keeping one
    class, and its margin test is :func:`_top_decide`'s first bound with
    R exact cases instead of three.  One gate spares events the walk:
    every tail term is at least exp(v_{R+1} - v_1) times the least error
    sum, which the margin of the first step (the case's runner-up) or,
    if that step cuts nothing, of a later one (at most the largest
    error) must beat.
    """
    n, m = scores.shape
    depth = min(_LEX_DEPTH, m)
    width = min(depth + 1, m)
    first = scores.argmax(axis=1)
    rows = np.arange(n)
    if width > depth:
        # The margin at the first step, if it cuts a class, is that
        # case's runner-up; else a later margin is at most the largest
        # error.  Either must beat the tail term.
        cuts = screen.elite_sizes[first] < screen.sums.size
        need = np.where(cuts, screen.runner_up[first], screen.most)
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = scores[rows, first] + (np.log(need) - np.log(screen.sums.min()))
        rows = np.flatnonzero(np.count_nonzero(scores >= reach[:, None], axis=1) <= depth)
    if rows.size == 0:
        return rows, rows, rows
    # The heaviest cases by repeated argmax, about 3x faster here than an
    # argpartition and a sort.
    heaviest = scores[rows]
    at = np.arange(rows.size)
    cases = np.empty((rows.size, width), dtype=np.intp)
    cases[:, 0] = first[rows]
    for t in range(width):
        if t:
            cases[:, t] = heaviest.argmax(axis=1)
        heaviest[at, cases[:, t]] = -np.inf
    values = scores[rows[:, None], cases]
    elite, sizes, errors_t = screen.elite, screen.elite_sizes, screen.errors_t
    least_cut = np.full((rows.size, depth), np.inf)
    winner = np.full(rows.size, -1)
    # The first step keeps the heaviest case's zeros: one class where it
    # is the case's unique best.
    j = cases[:, 0]
    count = sizes[j]
    cut = count < errors_t.shape[1]
    least_cut[cut, 0] = screen.runner_up[j[cut]]
    winner[count == 1] = screen.best[j[count == 1]]
    # Events walk on bitsets until one class survives, or none keeps a
    # zero on the next case; those keep the set they had and the step.
    walking = np.flatnonzero(count > 1)
    survivors, count = elite[j[walking]], count[walking]
    singles, single_sets = [at[:0]], [survivors[:0]]
    missed, missed_sets, start = [at[:0]], [], np.full(rows.size, depth)
    for t in range(1, depth):
        if walking.size == 0:
            break
        j = cases[walking, t]
        kept = survivors & elite[j]
        kept_count = _row_popcount(kept)
        cut = (kept_count > 0) & (kept_count < count)
        least_cut[walking[cut], t] = screen.runner_up[j[cut]]
        one = kept_count == 1
        singles.append(walking[one])
        single_sets.append(kept[one])
        none = kept_count == 0
        missed.append(walking[none])
        missed_sets.append(survivors[none])
        start[walking[none]] = t
        going = kept_count > 1
        walking, survivors, count = walking[going], kept[going], kept_count[going]
    owner, classes = _set_bits(np.concatenate(single_sets))
    winner[np.concatenate(singles)[owner]] = classes
    # The exact filter, on (event, class) pairs.  An event left with one
    # pair can no longer be cut, so it retires with its winner.
    missed = np.concatenate(missed)
    if missed.size:
        owner, classes = _set_bits(np.concatenate(missed_sets))
        events = missed[owner]
        for t in range(int(start.min()), depth):
            # A flat gather from the C-contiguous case rows.
            e = errors_t.take(cases[events, t] * errors_t.shape[1] + classes)
            # Events whose filter starts later keep every pair.
            e[start[events] > t] = 0.0
            low = np.full(rows.size, np.inf)
            np.minimum.at(low, events, e)
            low = low[events]
            np.minimum.at(least_cut[:, t], events, np.where(e > low, e, np.inf))
            events, classes = events[e == low], classes[e == low]
            single = np.bincount(events, minlength=rows.size)[events] == 1
            winner[events[single]] = classes[single]
            events, classes = events[~single], classes[~single]
            if events.size == 0:
                break
    alone = np.flatnonzero(winner >= 0)
    a = winner[alone]
    v = values[alone]
    own = errors_t[cases[alone, :depth], a[:, None]]
    if width > depth:
        own = np.concatenate([own, screen.sums[a][:, None]], axis=1)
    later = np.arange(width)[None, :] > np.arange(depth)[:, None]
    with np.errstate(under="ignore", over="ignore"):
        ratio = np.where(later, np.exp(v[:, None, :] - v[:, :depth, None]), 0.0)
    bound = screen.lex_factor * (own[:, :depth] + (ratio * own[:, None, :]).sum(axis=2))
    least_cut = least_cut[alone]
    held = np.isinf(least_cut) | (least_cut > bound + screen.top_absolute)
    decided = held.all(axis=1)
    return rows[alone[decided]], a[decided], rows[sizes[cases[:, 0]] > 1]


def _screen_candidates(weights: np.ndarray, screen) -> tuple[np.ndarray, np.ndarray]:
    """The float32 screen's candidate classes for each row of ``weights``,
    and each row's best class: the classes whose float32 fitness is
    within the bound of :func:`_screen_setup` of the row's least.  They
    hold every class the float64 round would mark."""
    w32 = weights.astype(np.float32)
    # Subnormal weights would slow the product down tenfold.
    w32[w32 < _TINY32] = 0.0
    if np.count_nonzero(w32) * _SPARSE_SHARE <= w32.size:
        # High pressure leaves a few weights a row in float32 range: sum
        # the weighted error rows of those cases instead of a product,
        # which also stays off the BLAS threads.  Every row keeps its
        # heaviest weight, at least 1 / m.
        rows, cases = np.nonzero(w32)
        terms = screen.errors_t[cases].astype(np.float32) * w32[rows, cases][:, None]
        fitness = np.add.reduceat(terms, np.searchsorted(rows, np.arange(w32.shape[0])), axis=0)
    else:
        fitness = w32 @ screen.errors32
    best = fitness.argmin(axis=1)
    low = fitness[np.arange(best.size), best].astype(np.float64)
    # Rounded to float32, then up one ulp, the bound can only grow.
    bound = low * screen.rel + screen.absolute
    bound = np.nextafter(bound.astype(np.float32), np.float32(np.inf))
    return fitness <= bound[:, None], best


def _cascade(scores: np.ndarray, class_errors: np.ndarray, class_rows) -> np.ndarray:
    """Mark, per event, the classes of least softmax-weighted mean error,
    faithful to the real-valued computation across the full pressure
    range.

    High pressure spreads the case weights over many more orders of
    magnitude than a float64 sum can represent, so the contributions
    that should separate classes tied on the heaviest cases are rounded
    away and the argmin degenerates into a coin flip.  The cascade
    recovers the lost information: after one aggregation pass, the
    classes whose fitness ties with the event's minimum are kept, the
    cases on which all of them agree are removed (their contributions
    are equal, so removing them keeps the real-valued order among the
    tied classes), the remaining scores are re-shifted, which brings the
    previously underflowed weights back into float range, and the
    contested events are aggregated again.  Each round settles an event
    or removes at least one of its cases, so at most m rounds run;
    without ties only the first runs.  Classes still marked together
    when no agreed case is left lie below float resolution.  Only the
    first round takes the product over every class; a later round
    weighs each event's survivors alone, one (event, class) sum each
    (:func:`_pair_fitness`), since no other class can be marked again.

    Ties are relative, not bit-equal.  With the per-case shift every
    weight and error is non-negative, so each computed fitness lies
    within about m * eps / 2 (relative) of its exact value, and the
    batched product can round two classes of equal real fitness a few
    ulps apart in either order.  A class therefore counts as tied when
    its fitness is within 2 * m * eps of the event minimum.  Every class
    of least real fitness passes that test; a tied class that is in fact
    worse loses in a later round, once the agreed cases are gone, unless
    it differs from the others only below float resolution.

    :func:`dalex_select` hands it the events its screens leave, gathered
    from several blocks into chunks (:func:`_cascade_chunks`).  BLAS
    picks its kernels by shape, so a row of a chunk's product can round
    a few ulps apart from the same row in a product of its own block's
    rows (as the block size itself does).  Both lie within m * eps / 2
    of the exact fitness, well inside the tie slack, so the marks differ
    only where a class sits within those ulps of the slack's edge.  A
    lone row is weighed beside a copy of itself: numpy computes a
    one-row product as a matrix-vector product (see :func:`_event_blocks`).

    The product takes the shifted ``class_errors`` whole; the later
    rounds gather rows of ``class_rows``, the same errors by class
    index (a :class:`_ClassRows`, or the array itself).
    """
    n = scores.shape[0]
    slack = 1.0 + 2.0 * scores.shape[1] * np.finfo(np.float64).eps
    weights = _flushed_softmax(scores if n > 1 else np.repeat(scores, 2, axis=0))
    fitness = (weights @ class_errors.T)[:n]
    tied = fitness <= fitness.min(axis=1, keepdims=True) * slack
    # Every event marks its best class; as many marks as events is one each.
    if np.count_nonzero(tied) == n:
        return tied
    contested = np.flatnonzero(tied.sum(axis=1) > 1)
    survivors = tied[contested]
    usable = np.ones((contested.size, scores.shape[1]), dtype=bool)
    live = np.arange(contested.size)
    while live.size:
        dropped = _agreed_cases(survivors[live], class_rows) & usable[live]
        usable[live] &= ~dropped
        # Events keep cascading only while the round removed something
        # and a case is left to weigh.  Running out of cases means the
        # tied classes have identical error rows (duplicates kept as
        # separate classes), a genuine tie.
        live = live[dropped.any(axis=1) & usable[live].any(axis=1)]
        if live.size == 0:
            break
        z = _flushed_softmax(np.where(usable[live], scores[contested[live]], -np.inf))
        # Only the survivors are weighed, one (event, class) pair at a time.
        rows, classes = np.divmod(np.flatnonzero(survivors[live]), survivors.shape[1])
        fitness = _pair_fitness(z, rows, classes, class_rows)
        low = np.full(live.size, np.inf)
        np.minimum.at(low, rows, fitness)
        kept = fitness <= low[rows] * slack
        marked = np.zeros((live.size, survivors.shape[1]), dtype=bool)
        marked[rows[kept], classes[kept]] = True
        survivors[live] = marked
        live = live[np.bincount(rows[kept], minlength=live.size) > 1]
    tied[contested] = survivors
    return tied


def _pair_fitness(weights, rows, classes, class_errors) -> np.ndarray:
    """The fitness of class ``classes[i]`` under weight row ``rows[i]``,
    for every i, with about ``_BLOCK_ENTRIES`` gathered entries a slice;
    ``class_errors`` gathers the class rows (an array or a
    :class:`_ClassRows`).  Each is one row's sum, so it does not depend
    on the others."""
    out = np.empty(rows.size)
    step = max(1, _BLOCK_ENTRIES // weights.shape[1])
    for a in range(0, rows.size, step):
        at, of = rows[a : a + step], classes[a : a + step]
        out[a : a + step] = np.einsum("ij,ij->i", weights[at], class_errors[of])
    return out


@dataclass
class _ClassRows:
    """Rows of the shifted errors (:func:`_shifted_errors`) by class
    index, for the cascade: whole C-ordered rows of the unshifted
    ``errors``, scaled and shifted on the way, where the case-major
    shift would read each row strided.  ``e * scale - low`` has the bits
    of the shift's own entry."""

    errors: np.ndarray  # the unshifted (k, m) class errors, C-ordered
    scale: float  # 1, or 0.25 where the shift scales
    low: np.ndarray  # each case's shift, scaled

    @property
    def shape(self) -> tuple[int, int]:
        return self.errors.shape

    def __getitem__(self, classes: np.ndarray) -> np.ndarray:
        rows = self.errors[classes]
        if self.scale != 1.0:
            rows *= self.scale
        rows -= self.low
        return rows


def _shifted_errors(class_errors: np.ndarray) -> tuple[np.ndarray, _ClassRows]:
    """Shift each case so its best class sits at zero.

    The shift adds the same constant to every class's fitness within an
    event, so the argmin is unchanged, but classes tied at a case's
    minimum now contribute nothing there and fewer cascade rounds are
    needed to separate the rest.  When some case's range overflows, all
    errors are first scaled by 0.25, a power of two that keeps the order
    of every weighted sum.

    The shift is written case major, one C-contiguous (m, k) array, and
    returned as its (k, m) transpose: the screens read it a case row at
    a time, and the cascade's product takes it as it is.  The cascade's
    class rows come from the returned :class:`_ClassRows` instead, which
    shifts rows of ``class_errors`` itself, with the same bits.
    """
    low = class_errors.min(axis=0)
    with np.errstate(over="ignore"):
        spread = class_errors.max(axis=0) - low
    scale, scaled = 1.0, class_errors
    if not np.isfinite(spread).all():
        scale, scaled = 0.25, class_errors * 0.25
        low = low * 0.25
    shifted = np.empty(class_errors.shape[::-1])
    np.subtract(scaled.T, low[:, None], out=shifted)
    return shifted.T, _ClassRows(class_errors, scale, low)


# Repeated error columns are looked for on this many class rows first:
# columns that differ there differ, and that costs about m short rows.
_FINGERPRINT_ROWS = 16


@dataclass
class _Columns:
    """Groups of identical error columns (see :func:`_column_groups`)."""

    order: np.ndarray  # every column, rank by rank (see :func:`_column_groups`)
    widths: list  # how many groups have a column of each rank

    @property
    def firsts(self) -> np.ndarray:
        """Each group's first column: the merged errors' columns."""
        return self.order[: self.widths[0]]


def _column_groups(class_errors: np.ndarray) -> _Columns | None:
    """The groups of identical columns of ``class_errors``, the (k, m)
    view of a case-major array (:func:`_shifted_errors`), or None when
    every column is distinct.  The whole columns are grouped as the
    array's C-contiguous case rows, without a copy.

    Distinct values on the first class row prove the columns distinct
    at the cost of a sort, and otherwise a grouping of the first
    ``_FINGERPRINT_ROWS`` class rows, transposed, proves most passes'
    columns distinct; only where it finds candidates are the whole
    columns grouped (:func:`~lexsel.core._group_rows`).
    Groups run largest first, ties in order of first column, and
    ``order`` lists each group's first column, then each group's second,
    and so on: the groups with an r-th column are the first
    ``widths[r]``, and their r-th columns follow each other in ``order``.
    """
    first = np.sort(class_errors[0])
    if (first[1:] != first[:-1]).all():
        return None
    if _group_rows(np.ascontiguousarray(class_errors[:_FINGERPRINT_ROWS].T))[1] is None:
        return None
    group, firsts = _group_rows(class_errors.T)
    if firsts is None:
        return None
    counts = np.bincount(group)
    # Group g's columns, in column order, sit at heads[g] ... in ``by_group``.
    by_group = np.argsort(group, kind="stable")
    heads = np.cumsum(counts) - counts
    ranked = np.argsort(-counts, kind="stable")
    widths = [int(np.count_nonzero(counts > r)) for r in range(int(counts.max()))]
    order = np.concatenate([by_group[heads[ranked[:w]] + r] for r, w in enumerate(widths)])
    return _Columns(order, widths)


def _merged_scores(scores: np.ndarray, columns: _Columns) -> np.ndarray:
    """Each group's log-sum-exp of its columns' ``scores``, per row, the
    groups in the order of ``columns.firsts``.

    The softmax of the merged scores gives a group the summed weight of
    its columns, so on the merged errors every class keeps its weighted
    mean error.  Each group is shifted by its own largest score, so its
    sum holds an exact 1 and lies in [1, size]: its other terms may be
    far below the row's largest score, and the cascade's later rounds
    bring them back.  Exponents below log(tiny) are raised to it before
    ``exp``, which is slow on subnormal results; such a term is below
    2^-1021 before and after, and cannot move a sum of at least 1.  A
    lone column keeps its score bit for bit (log 1 = 0).
    """
    # Case major, so each rank's columns are one contiguous block.
    z = scores.T[columns.order]
    bounds = np.cumsum([0, *columns.widths]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    top = z[: columns.widths[0]].copy()
    for a, b in spans[1:]:
        np.maximum(top[: b - a], z[a:b], out=top[: b - a])
    for a, b in spans:
        z[a:b] -= top[: b - a]
    np.maximum(z, _LOG_TINY, out=z)
    np.exp(z, out=z)
    total = z[: columns.widths[0]]
    for a, b in spans[1:]:
        total[: b - a] += z[a:b]
    top += np.log(total, out=total)
    return np.ascontiguousarray(top.T)


# The partial-support screen (:func:`_partial_screen`) walks each event's
# heaviest cases at most this deep and weighs its candidates over them.
_PARTIAL_DEPTH = 36
# Its walk stops once no event of a block has more live classes than this
# (checked every fourth step), and it leaves to the products an event
# with more candidates than ``_PARTIAL_CAP``.
_PARTIAL_LIVE = 8
_PARTIAL_CAP = 64
# A pass runs the screen only if it has more classes than this (with
# fewer, its two products cost about what the screen does: 1.02-1.10x
# the pass time at 1000x200), at least ``_PARTIAL_EVENTS`` events (the
# screen's set-up costs about the products of 100 events at 4000x200),
# and if its first events leave at most ``_PARTIAL_TAIL`` of their
# weight past the heaviest ``_PARTIAL_DEPTH`` cases.
_PARTIAL_CLASSES = 1024
_PARTIAL_EVENTS = 256
_PARTIAL_TAIL = 2.0**-8


@dataclass
class _PartialScreen:
    """The per-pass inputs of :func:`_partial_screen` (see
    :func:`_partial_setup`)."""

    errors: np.ndarray  # the class errors, flat and class major
    support: np.ndarray  # and the class support
    zeros: np.ndarray  # each case's classes of error 0, defined or not, as bitsets
    defined: np.ndarray  # each case's defined classes, as bitsets
    least: np.ndarray  # each case's least nonzero error
    most: np.ndarray  # each class's largest error
    fewest: np.ndarray  # each class's least defined error
    factor: float  # the relative rounding factor
    absolute: float  # and the underflow term, per unit of denominator


def _partial_setup(class_errors: np.ndarray, class_support: np.ndarray) -> _PartialScreen | None:
    """The inputs of :func:`_partial_screen` for a partial-support pass,
    or None when some error is negative: its bounds need non-negative
    terms.  The bitsets, each case's least nonzero error and each
    class's least defined error come from the case-major errors with
    +inf at every undefined entry (:func:`_case_errors`), built a chunk
    of cases at a time, so no matrix-sized temporary is made.

    ``factor`` is (1 + g) / (1 - g) with g = gamma_{4m + 4 depth + 32},
    and covers the rounding of both sides.  ``weighted_fitness`` sums m
    non-negative products per numerator and per denominator, each within
    gamma_m whatever order BLAS takes, and divides once; the screen's
    sums over at most depth = ``_PARTIAL_DEPTH`` ranks, its suffix sums
    over m weights and its few further operations per bound add less
    than gamma_{2m + 4 depth + 16}.  ``absolute`` covers underflow: at
    most 2^-1075 a product, for the m products of BLAS and the depth of
    the screen, taken at four times that and divided by a lower bound on
    the class's denominator where it is used; each bound also moves by
    2^-1073 for the divisions' own underflow.
    """
    k, m = class_errors.shape
    words = -(-k // 64)
    zeros, defined = np.empty((m, words), dtype=np.uint64), np.empty((m, words), dtype=np.uint64)
    least, fewest = np.empty(m), np.full(k, np.inf)
    # The per-case and per-class reductions read the case-major +inf
    # layout the lexicase family filters on, a chunk of cases at a time.
    for lo, hi in _case_chunks(m, k):
        rows = _case_errors(class_errors, class_support, lo, hi)
        known = rows != np.inf
        zeros[lo:hi] = _bitsets((rows == 0) | ~known)
        defined[lo:hi] = _bitsets(known)
        least[lo:hi] = _least_nonzero(rows)
        np.minimum(fewest, rows.min(axis=0), out=fewest)
    # Undefined entries hold 0, so only a defined error can be negative.
    if (fewest < 0).any():
        return None
    depth = min(_PARTIAL_DEPTH, m)
    g = _gamma(4 * m + 4 * depth + 32, 2.0**-53)
    return _PartialScreen(
        errors=class_errors.ravel(),
        support=class_support.ravel(),
        zeros=zeros,
        defined=defined,
        least=least,
        most=class_errors.max(axis=1),
        fewest=fewest,
        factor=(1 + g) / (1 - g),
        absolute=(m + depth + 4) * 2.0**-1073,
    )


def _partial_screen(weights: np.ndarray, screen: _PartialScreen):
    """The events of softmax ``weights`` on partial support whose
    normalized fitness has one least class, that class, and how many
    (event, class) pairs were weighed; all without the products.

    Rank an event's cases by weight, j_1 first, and let T_t be the
    weight of ranks t and later.  Class c's fitness is
    F_c = (sum_j w_j e_cj) / (sum_j w_j s_cj), with e_cj = 0 where c is
    undefined.  If c is undefined on every rank before t and defined with
    a nonzero error on rank s, then F_c >= w_s n_s / T_t, n_s being case
    j_s's least nonzero error, since its numerator holds w_s e_cs and its
    denominator at most T_t.

    The walk steps through the ranks on class bitsets and keeps L_s, the
    classes with error 0 or undefined on each of j_1 ... j_s.  A step
    cuts the classes of L_{s-1} with a nonzero error on j_s; those
    defined on j_1 get the bound with T_1, the others with T_2.  The
    walk ends at ``_PARTIAL_DEPTH`` ranks or once every event has at most
    ``_PARTIAL_LIVE`` live classes.  Each event then weighs its deepest
    live classes, those defined on j_1 and the others apart: over its
    ranked cases up to the depth, exactly, and past them by the rest of
    the weight T, times the class's largest error in the numerator.  The
    best upper bound so found, H, brings back every class cut at or after
    the first step whose bound is not above H, separately for the two
    kinds; those are weighed too.  So no class outside the candidates
    can have a computed fitness below H.

    An event is decided for its candidate a of least upper bound when
    every other candidate's lower bound is above it.  The bounds take
    the computed fitness, not the exact one: ``factor`` and ``absolute``
    (:func:`_partial_setup`) cover the rounding of ``weighted_fitness``
    and of the screen.  Its fitness row then has a alone at its minimum,
    and the pick is a whatever the tie-break draw.  Events whose
    candidates outnumber ``_PARTIAL_CAP`` are not weighed.
    """
    n, m = weights.shape
    k = screen.most.size
    depth = min(_PARTIAL_DEPTH, m)
    # Positive floats order as their bit patterns, which sort faster.
    order = np.argsort(-weights.view(np.int64), axis=1)
    ranked = np.take_along_axis(weights, order, axis=1)
    # total[:, t]: the weight of ranks t and later, summed from the lightest.
    total = np.cumsum(ranked[:, ::-1], axis=1)[:, ::-1]
    cases, top = order[:, :depth], ranked[:, :depth]
    tail = total[:, depth] if depth < m else np.zeros(n)
    first = screen.defined[cases[:, 0]]
    live = np.empty((depth + 1, n, first.shape[1]), dtype=np.uint64)
    live[0] = _bitsets(np.ones((1, k), dtype=bool))
    steps = depth
    for s in range(1, depth + 1):
        np.bitwise_and(live[s - 1], screen.zeros[cases[:, s - 1]], out=live[s])
        if s % 4 == 0 and (_row_popcount(live[s]) <= _PARTIAL_LIVE).all():
            steps = s
            break
    live = live[: steps + 1]
    count = _row_popcount(live).T
    # Step by step, so no temporary the size of ``live``.
    count1 = np.stack([_row_popcount(sets & first) for sets in live], axis=1)
    count2 = count - count1
    at = np.arange(n)
    with np.errstate(all="ignore"):
        # Each step's two bounds, for classes defined on j_1 and the others.
        w, least = top[:, :steps], screen.least[cases[:, :steps]]
        slack = screen.absolute / w + 2.0**-1073
        cut = [count1[:, :-1] > count1[:, 1:], count2[:, :-1] > count2[:, 1:]]
        bounds = [
            np.where(cut[i], np.minimum(w * least / total[:, i : i + 1], least), np.inf)
            / screen.factor
            - slack
            for i in range(min(2, m))
        ]
        # The deepest step at which each kind still has a live class.
        deepest = [steps - np.argmax(c[:, ::-1] > 0, axis=1) for c in (count1, count2)]
        final = (live[deepest[0], at] & first) | (live[deepest[1], at] & ~first)
        pairs = [_weigh(final, cases, top, tail, screen)]
        best = np.full(n, np.inf)
        np.minimum.at(best, pairs[0][0], pairs[0][2])
        # Bring back the classes cut at or after each kind's first step
        # whose bound is not above the best upper bound.
        rest = np.zeros_like(final)
        for i, bound in enumerate(bounds):
            fails = bound <= best[:, None]
            start = np.where(fails.any(axis=1), fails.argmax(axis=1), steps)
            start = np.minimum(start, deepest[i])
            mask = first if i == 0 else ~first
            rest |= live[start, at] & mask
        rest &= ~final
        crowded = _row_popcount(rest) + _row_popcount(final) > _PARTIAL_CAP
        rest[crowded] = 0
        pairs.append(_weigh(rest, cases, top, tail, screen))
        events, classes, upper, lower = (np.concatenate(p) for p in zip(*pairs))
        weighed = events.size
        keep = ~crowded[events]
        events, classes, upper, lower = events[keep], classes[keep], upper[keep], lower[keep]
        best = np.full(n, np.inf)
        np.minimum.at(best, events, upper)
        winner = np.full(n, -1)
        leading = np.flatnonzero(upper == best[events])
        winner[events[leading]] = leading
        lower[winner[winner >= 0]] = np.inf
        others = np.full(n, np.inf)
        np.minimum.at(others, events, lower)
    decided = np.flatnonzero((winner >= 0) & (best < others))
    return decided, classes[winner[decided]], weighed


def _weigh(sets, cases, top, tail, screen):
    """Each (event, class) pair of the bitsets ``sets``, with bounds on
    its class's computed fitness: weighed exactly over the event's ranked
    ``cases`` (weights ``top``), and past them by the ``tail`` weight."""
    events, classes = _set_bits(sets)
    at = classes[:, None] * (screen.errors.size // screen.most.size) + cases[events]
    w = top[events]
    low = (w * screen.errors.take(at)).sum(axis=1)
    mass = (w * screen.support.take(at)).sum(axis=1)
    most, fewest, rest = screen.most[classes], screen.fewest[classes], tail[events]
    upper = np.where(mass > 0, np.minimum((low + rest * most) / mass, most), most)
    lower = np.maximum(np.minimum(low / (mass + rest), most), fewest)
    slack = screen.absolute / np.maximum(mass, np.finfo(np.float64).tiny) + 2.0**-1073
    return events, classes, upper * screen.factor + slack, lower / screen.factor - slack


def dalex_select(
    classing: EquivalenceClassing,
    n_events: int,
    cfg: SelectorConfig,
    rng: RandomSource,
    importance: np.ndarray | None = None,
) -> np.ndarray:
    """Run ``n_events`` weighted-aggregation selection events at once.

    Per event: importance scores -> softmax case weights w -> fitness of
    class c is (sum_j w_j e_cj) / (sum_j w_j s_cj), i.e. the weighted
    mean error over the cases the class is defined on.  With full
    support the denominator is identically 1 and is skipped.  The argmin
    class per event wins, ties broken uniformly at random.

    ``importance`` lets callers inject pre-drawn scores (shape
    ``(n_events, m)``); by default scores come from
    :func:`sample_importance`, or, for normal scores on a pass the screens
    can work on, the same scores drawn in parts: each event's four
    largest first, the rest only for the events :func:`_top_decide`
    leaves.

    Events run in blocks (:data:`_BLOCK_ENTRIES`), so memory grows with
    the block size times k, not with ``n_events``; each event's scores
    and tie-break uniform sit at fixed positions on their streams, so its
    pick does not depend on how many events run with it.  With full
    support, aggregation runs through a tie-resolving cascade
    (:func:`_cascade`) so that high pressure yields the lexicographic
    order the weights encode instead of float64 round-off noise.
    Partial support takes no cascade (dividing by per-class support mass
    leaves no exact cancellation to exploit): its marks are exact float64
    ties of the two products (:func:`_least_marked`).  Screens decide
    the events whose final marks they can prove to be one class, with
    the same picks as the marking.  On full score rows, sampled or
    injected, identical error columns are merged first
    (:func:`_column_groups`): each group weighs as one case whose score
    is the log-sum-exp of its columns' scores (:func:`_merged_scores`),
    so every class keeps its weighted mean error, and the screens, their
    rounding bounds and the cascade all work on the merged columns.
    Scores drawn in parts keep every case: the pilot's bound reads the
    cases' own columns.

    Every pass runs one block loop.  Each block takes one first screen:
    on scores drawn in parts, a bound from the heaviest cases alone
    (:func:`_top_decide`), whose leftover events are then completed; on
    full rows, injected or sampled, a lexicase filter over each event's
    heaviest cases (:func:`_lex_screen`); on partial support, when a
    pilot shows it pays (:func:`_partial_pilot`), a zero-walk screen
    (:func:`_partial_screen`) for the events whose computed fitness it
    proves to have one least class.  A pass whose errors the screens
    cannot bound runs none.  A float32 product (:func:`_screen_setup`)
    then takes the full rows left, but for those the filter walked from
    a tied heaviest case.  The events left are only recorded; after the
    last block one tail marks them all and draws the picks.  On full
    support it runs the cascade in chunks of at most half a block
    (:func:`_cascade_chunks`), so its per-call cost is paid a few times
    a pass, not once a block, and memory still grows with the block.  On
    partial support it runs the products in near-equal chunks of event
    blocks (:func:`_event_blocks`), a lone row weighed beside a copy of
    itself unless the pass has one event: a product row can round apart
    with the rows around it, and a pass with the screen off leaves every
    event, so its chunks are exactly its blocks.  The product buffers
    then hold the events left only, and their scores are taken again
    from ``importance`` rather than kept from the blocks, which left the
    heap more fragmented.
    """
    if cfg.method != "dalex":
        raise ConfigError(f"method: dalex_select called with method {cfg.method!r}")
    if n_events < 1:
        raise ShapeError(f"need n_events >= 1, got {n_events}")
    full_support = classing.full_support
    class_errors = classing.class_errors
    if cfg.relaxed:
        support = None if full_support else classing.class_support
        class_errors = standardize_per_case(class_errors, classing.sizes, support)
    if importance is not None:
        importance = np.asarray(importance, dtype=np.float64)
        if importance.shape != (n_events, classing.m):
            raise ShapeError(
                f"importance shape {importance.shape} does not match "
                f"({n_events}, {classing.m})"
            )
        if not np.isfinite(importance).all():
            raise ShapeError("importance contains non-finite entries")
    screen = columns = None
    if full_support:
        class_errors, class_rows = _shifted_errors(class_errors)
        columns = _column_groups(class_errors)
        # Case rows of the case-major shift, so the merge stays case major.
        merged = class_errors if columns is None else class_errors.T[columns.firsts].T
        screen = _screen_setup(merged)
    elif class_errors is not classing.class_errors:
        classing = replace(classing, class_errors=class_errors)
    # Drawing in parts serves only events whose heaviest case has a
    # unique best class.  Its pilot reads the cases' own columns.
    unique = screen is not None and screen.unique_min.any()
    top = None
    if importance is None and unique and cfg.distribution == "normal":
        own = screen if columns is None else _screen_setup(class_errors)
        top = _decisive_top_scores(n_events, classing.m, cfg.pressure, rng, own)
        if top is not None:
            screen, columns = own, None
    in_parts = top is not None
    if in_parts:
        cases, values, level = top
        rest = _RestStream(rng, classing.m)
    elif importance is None:
        importance = sample_importance(n_events, classing.m, cfg, rng)
    u = rng.generator(TIEBREAK_STREAM).random(n_events)
    partial = None if full_support else _partial_pilot(classing, importance)
    if columns is not None:
        # Full rows on repeated columns: each group weighs as one case.
        # Merged rows are gathered from the merged errors themselves: a
        # two-step gather from the unshifted rows costs more.
        class_errors = class_rows = merged
        importance = _merged_scores(importance, columns)
    picks = np.empty(n_events, dtype=np.intp)
    blocks = list(_event_blocks(n_events, classing.k))
    if partial is not None:
        weights = np.empty((max(hi - lo for lo, hi in blocks), classing.m))
    # The events the screens leave, block by block, and on scores drawn in
    # parts their completed rows; full rows are read from ``importance``.
    pending, pending_scores = [], []
    for lo, hi in blocks:
        if in_parts:
            rows, classes = _top_decide(cases[lo:hi], values[lo:hi], screen)
            picks[lo + rows] = classes
            events = lo + np.delete(np.arange(hi - lo), rows)
            scores = _complete_scores(
                cases[events], values[events], level[events], rest.draw(events), cfg.pressure
            )
            rows = walked = rows[:0]
        else:
            # Injected or sampled scores: full rows, which the walk takes
            # first, or on partial support the zero-walk screen.
            events, scores = np.arange(lo, hi), importance[lo:hi]
            rows = walked = classes = events[:0]
            if screen is not None:
                rows, classes, walked = _lex_screen(scores, screen)
            elif partial is not None:
                w = softmax_rows(scores, out=weights[: hi - lo])
                rows, classes, _ = _partial_screen(w, partial)
            picks[lo + rows] = classes
        left = np.ones(events.size, dtype=bool)
        left[rows] = False
        # The float32 screen takes the full rows left but the tied events
        # the walk took: on those most classes would stay candidates.
        screened = np.setdiff1d(np.flatnonzero(left), walked, assume_unique=True)
        if screen is not None and screened.size:
            candidates, best = _screen_candidates(_flushed_softmax(scores[screened]), screen)
            # Every row holds its best class; one candidate in all is one a row.
            if np.count_nonzero(candidates) > screened.size:
                alone = np.count_nonzero(candidates, axis=1) == 1
                screened, best = screened[alone], best[alone]
            picks[events[screened]] = best
            left[screened] = False
        if left.any():
            pending.append(events[left])
            if in_parts:
                pending_scores.append(scores[left])
    if not pending:
        return picks
    # One marking pass over every block's leftovers: the cascade's cost is
    # mostly per call, a full read of the errors a round.
    pending = np.concatenate(pending)
    if in_parts:
        pending_scores = np.concatenate(pending_scores)
    chunks = list((_cascade_chunks if full_support else _event_blocks)(pending.size, classing.k))
    if not full_support:
        size = max(2, max(b - a for a, b in chunks))
        weights, buffers = np.empty((size, classing.m)), _marking_buffers(size, classing.k)
    for a, b in chunks:
        events = pending[a:b]
        if full_support:
            scores = pending_scores[a:b] if in_parts else importance[events]
            picks[events] = _pick_marked(_cascade(scores, class_errors, class_rows), u[events])
        else:
            # The softmax works row by row, so these are the block's weights.
            # Every index is valid, and "clip" gathers straight into the
            # buffer, where the default mode would copy through a new one.
            w = np.take(importance, events, axis=0, out=weights[: b - a], mode="clip")
            softmax_rows(w, out=w)
            if b - a == 1 and n_events > 1:
                w = np.repeat(w, 2, axis=0)
            picks[events] = _pick_marked(_least_marked(classing, w, buffers)[: b - a], u[events])
    return picks


def _partial_pilot(classing: EquivalenceClassing, importance: np.ndarray) -> _PartialScreen | None:
    """The inputs of :func:`_partial_screen` if it pays on a pass of
    ``importance`` scores, else None.  On the pass's first ``_PILOT``
    events the screen must decide at least a quarter, weighing on
    average at most a quarter of the classes an event.  First, though,
    the pass needs more than ``_PARTIAL_CLASSES`` classes and at least
    ``_PARTIAL_EVENTS`` events, and the heaviest ``_PARTIAL_DEPTH`` cases
    must hold all but ``_PARTIAL_TAIL`` of the median pilot event's
    weight: past them the weights enter the bounds only through their
    sum, so a heavy tail leaves every bound loose (at low pressure), and
    the set-up is not worth building."""
    if classing.k <= _PARTIAL_CLASSES or importance.shape[0] < _PARTIAL_EVENTS:
        return None
    weights = softmax_rows(importance[:_PILOT])
    n, m = weights.shape
    depth = min(_PARTIAL_DEPTH, m)
    if depth < m:
        light = np.partition(weights, m - depth - 1, axis=1)[:, : m - depth]
        if np.median(light.sum(axis=1)) > _PARTIAL_TAIL:
            return None
    screen = _partial_setup(classing.class_errors, classing.class_support)
    if screen is None:
        return None
    rows, _, weighed = _partial_screen(weights, screen)
    return screen if 4 * rows.size >= n and 4 * weighed <= n * classing.k else None


def _marking_buffers(rows: int, k: int):
    """Buffers for :func:`_least_marked` of up to ``rows`` events."""
    return np.empty((2, rows, k)), np.empty((rows, k), dtype=bool)


def _least_marked(classing: EquivalenceClassing, weights: np.ndarray, buffers) -> np.ndarray:
    """The classes of least ``weighted_fitness`` per row of ``weights``,
    marked by exact equality, in ``buffers`` (:func:`_marking_buffers`)."""
    products, least = buffers
    r = weights.shape[0]
    fitness = weighted_fitness(classing, weights, out=(products[0, :r], products[1, :r]))
    return np.equal(fitness, fitness.min(axis=1, keepdims=True), out=least[:r])


# The lexicase family takes first steps in blocks of events holding
# about this many (event, class) entries each, and pools the events
# those leave contested until they hold a sixteenth as many pair entries
# (:func:`_filter_events`), so its memory does not grow with the event
# count.
_PAIR_BUDGET = 1 << 18


def _segment_positions(heads: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``heads[i] : heads[i] + counts[i]``."""
    return np.repeat(heads - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _segment_argsort(values: np.ndarray, counts: np.ndarray, kind: str | None = None) -> np.ndarray:
    """Indices that sort ``values`` within each segment of ``counts[i]``
    consecutive entries, the segments kept in place; ``kind`` picks
    numpy's sort algorithm within segments."""
    if counts.min() == counts.max():
        # Equal segments, as in the per-case elites over every class, sort
        # as the rows of a matrix, faster than the two sorts below.
        width = counts[0]
        order = np.argsort(values.reshape(-1, width), axis=1, kind=kind)
        order += np.arange(0, values.size, width)[:, None]
        return order.ravel()
    # A stable sort by segment keeps each segment's values in order; on
    # 16-bit segment numbers numpy makes it a radix sort.
    segment = np.repeat(np.arange(counts.size, dtype=np.min_scalar_type(counts.size)), counts)
    order = np.argsort(values, kind=kind)
    return order[np.argsort(segment[order], kind="stable")]


def _midpoint(a: np.ndarray, b: np.ndarray, total) -> np.ndarray:
    """``a`` where ``total`` is odd, else ``(a + b) / 2`` as ``np.median``
    takes it, or ``a / 2 + b / 2`` where ``a + b`` overflows."""
    with np.errstate(over="ignore"):
        mid = (a + b) / 2
    over = np.isinf(mid)
    mid[over] = a[over] / 2 + b[over] / 2
    return np.where(total % 2 == 1, a, mid)


def _weighted_median(values: np.ndarray, weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per segment of ``counts[i]`` consecutive entries, sorted within the
    segment, ``np.median`` of the segment with each value repeated by its
    weight; every segment needs a positive total weight."""
    # One running total over every segment: a segment's value of rank r
    # sits at the first running total above the weight before the
    # segment, plus r.
    cum = np.cumsum(weights)
    ends = cum[np.cumsum(counts) - 1]
    total = np.diff(ends, prepend=0)
    before = ends - total
    a = values[np.searchsorted(cum, before + (total - 1) // 2, side="right")]
    b = values[np.searchsorted(cum, before + total // 2, side="right")]
    return _midpoint(a, b, total)


def _segment_mad(scores: np.ndarray, weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per segment of ``counts`` consecutive pairs, the median absolute
    deviation of the multiset holding each score ``weights`` times: the
    value ``np.median`` gives on the ``np.repeat``-expanded segment, with
    an even count's midpoint safe from overflow (:func:`_midpoint`)."""
    if (counts == counts[0]).all() and (weights == 1).all():
        # Unit weights in equal segments, as in the per-case elites of a
        # population without duplicates: sorted rows, with no argsort.
        return _row_mad(scores.reshape(-1, counts[0]))
    order = _segment_argsort(scores, counts)
    scores, weights = scores[order], weights[order]
    med = _weighted_median(scores, weights, counts)
    # The sorted copy becomes the deviations.  One that overflows belongs
    # to less than half the weight, on one side of the median, so it never
    # reaches the median deviation.
    with np.errstate(over="ignore"):
        scores -= np.repeat(med, counts)
    np.abs(scores, out=scores)
    # Over sorted scores the deviations fall, then rise: runs a stable
    # sort merges in linear time, where numpy's default argsort slows down
    # tenfold on rows dominated by their least value (deviation 0).
    order = _segment_argsort(scores, counts, kind="stable")
    return _weighted_median(scores[order], weights[order], counts)


def _row_median(rows: np.ndarray, total, cum: np.ndarray | None = None) -> np.ndarray:
    """``np.median`` over the first ``total`` members of each sorted row,
    entry j holding one member, or ``cum[:, j] - cum[:, j - 1]`` with
    running member totals ``cum``."""
    low, high = (total - 1) // 2, total // 2
    if cum is not None:
        # A row's member of rank r sits at its first running total above r.
        low = np.count_nonzero(cum <= np.reshape(low, (-1, 1)), axis=1)
        high = np.count_nonzero(cum <= np.reshape(high, (-1, 1)), axis=1)
    at = np.arange(rows.shape[0])
    return _midpoint(rows[at, low], rows[at, high], total)


def _row_mad(rows: np.ndarray, members: np.ndarray | None = None) -> np.ndarray:
    """Per row, the median absolute deviation of its finite entries, the
    value :func:`_segment_mad` gives; +inf entries stand for undefined
    ones and weigh nothing.  With ``members``, entry j counts
    ``members[j]`` times.  Each row needs a finite entry."""
    finite = rows.shape[1] if members is None else members.sum()
    weighted = members is not None and finite > 8 * members.size
    if rows.max() == np.inf:
        defined = np.isfinite(rows)
        finite = np.count_nonzero(defined, axis=1) if members is None else defined @ members
    if weighted:
        # Few classes of many members, as in a converged population:
        # sorting member-expanded rows would cost more than two argsorts
        # of the class rows and their running member totals (0.2-0.6x the
        # time at 20 members a class, 1.5-2.7x at 3, crossing near 5).
        order = np.argsort(rows, axis=1)
        rows, members = np.take_along_axis(rows, order, axis=1), members[order]
        med = _row_median(rows, finite, np.cumsum(members, axis=1))
        with np.errstate(over="ignore"):
            rows -= med[:, None]
        np.abs(rows, out=rows)
        # Over sorted scores the deviations fall, then rise: runs a stable
        # sort merges in linear time.
        order = np.argsort(rows, axis=1, kind="stable")
        cum = np.cumsum(np.take_along_axis(members, order, axis=1), axis=1)
        return _row_median(np.take_along_axis(rows, order, axis=1), finite, cum)
    rows = rows.copy() if members is None else np.repeat(rows, members, axis=1)
    # Sorting puts the +inf entries last, after the finite ones; np.sort
    # beats the weighted median's argsorts about 3x.
    rows.sort(axis=1)
    med = _row_median(rows, finite)
    # A deviation that overflows belongs to less than half the weight, on
    # one side of the median, so it never reaches the median deviation.
    with np.errstate(over="ignore"):
        rows -= med[:, None]
    np.abs(rows, out=rows)
    rows.sort(axis=1)
    return _row_median(rows, finite)


def _batch_sums(values: np.ndarray, lo: int, n: int) -> np.ndarray:
    """``values[:, lo : lo + n]`` summed over axis 1 in numpy's pairwise
    order for a contiguous run of n values (eight running sums past
    seven values, halves past 128), so each sum has the bits of
    ``.sum()`` over the run; gathering the runs to rows would cost more."""
    if n < 8:
        total = values[:, lo].copy()
        for i in range(lo + 1, lo + n):
            total += values[:, i]
        return total
    if n <= 128:
        r = values[:, lo : lo + 8].copy()
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            r += values[:, i : i + 8]
        total = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
        for i in range(stop, lo + n):
            total += values[:, i]
        return total
    half = n // 2 - n // 2 % 8
    return _batch_sums(values, lo, half) + _batch_sums(values, lo + half, n - half)


def _batch_means(values: np.ndarray, undefined: bool) -> np.ndarray:
    """The mean of ``values`` over axis 1, a batch's cases, counting only
    the defined entries when ``undefined`` says +inf marks some; +inf
    where none is defined.  A batch of one case returns its values.

    Sums take numpy's pairwise order (:func:`_batch_sums`), so a batch
    has the bits of ``.sum()`` over its contiguous values, whichever
    axis comes last.  ``values`` is overwritten.
    """
    n = values.shape[1]
    if n == 1:
        return values[:, 0]
    n_defined = n
    if undefined:
        defined = values != np.inf
        n_defined = defined.sum(axis=1)
        # Zero the undefined entries for the sum.  Multiplying their bits
        # by 0 is cheaper than a masked assignment.
        bits = values.view(np.int64)
        bits *= defined
    divisor = np.maximum(n_defined, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        means = _batch_sums(values, 0, n) / divisor
    wide = ~np.isfinite(means)
    if wide.any():
        # Errors near the float limit overflow the sum, though their mean
        # fits.  Scaling those batches by a power of two is exact, so every
        # other mean keeps its bits (as in standardize_per_case); each
        # gathered batch is a contiguous row.
        scaled = np.moveaxis(values, 1, -1)[wide] * 2.0**-600
        means[wide] = scaled.sum(axis=1) / np.broadcast_to(divisor, wide.shape)[wide] * 2.0**600
    if undefined:
        means[n_defined == 0] = np.inf
    return means


def _first_step(
    case_errors: np.ndarray,
    undefined: bool,
    members: np.ndarray | None,
    tolerance: float | np.ndarray | str | None,
    cases: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_filter_step` for events that hold every class, with the
    same kept pairs bit for bit, as dense (event, class) rows.

    Event i filters on the cases of row i of ``cases``.  ``members`` is
    the classes' member counts when some class has several members, else
    None.  Returns the kept pairs' classes and the number kept per event.
    """
    k = case_errors.shape[1]
    # Each event's batch rows, (events, batch, k).
    scores = _batch_means(case_errors[cases], undefined)
    threshold = scores.min(axis=1)
    if isinstance(tolerance, np.ndarray):
        threshold += tolerance[cases[:, 0]]
    elif tolerance == "mad":
        scored = np.isfinite(threshold)
        if scored.any():
            threshold[scored] += _row_mad(scores[scored], members)
    elif tolerance is not None:
        threshold += tolerance
    keep = scores <= threshold[:, None]
    return (np.flatnonzero(keep) % k).astype(np.int32), np.count_nonzero(keep, axis=1)


def _filter_step(
    case_errors: np.ndarray,
    undefined: bool,
    sizes: np.ndarray,
    tolerance: float | np.ndarray | str | None,
    cases: np.ndarray,
    counts: np.ndarray,
    classes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Filter one batch of cases for a set of events.

    ``case_errors`` holds one row per case and one column per class, with
    +inf at every entry where the class is undefined; ``undefined`` says
    whether any entry is.  Event i holds ``counts[i]`` consecutive
    (event, class) pairs of ``classes`` and filters on the cases of row i
    of ``cases``.  A class's score on a batch is its mean error over the
    batch cases it is defined on, +inf when it is defined on none.  An
    event keeps the classes whose score is within a tolerance of its
    least score.  An undefined score loses to every defined one, and an
    event with no defined pair has an infinite threshold, so it keeps
    them all.  The tolerance is

    * ``None``: zero, so one-case batches give lexicase;
    * an (m,) array: the tolerance of the batch's case, for one-case
      batches (epsilon-lexicase);
    * a number: that fixed value;
    * ``"mad"``: the median absolute deviation of the defined pairs'
      scores, each counted once per member (``sizes``).

    Returns the kept pairs' classes and the number kept per event.
    """
    heads = np.cumsum(counts) - counts
    # Flat positions of each pair's entries in the case-major matrix; an
    # event's classes ascend, so it reads each case row in order.
    at = np.repeat(cases * case_errors.shape[1], counts, axis=0) + classes[:, None]
    scores = _batch_means(case_errors.take(at), undefined)
    threshold = np.minimum.reduceat(scores, heads)
    if isinstance(tolerance, np.ndarray):
        threshold += tolerance[cases[:, 0]]
    elif tolerance == "mad":
        weights = sizes[classes]
        if undefined:
            weights = weights * np.isfinite(scores)
        scored = np.isfinite(threshold)
        if scored.any():
            pairs = np.repeat(scored, counts)
            threshold[scored] += _segment_mad(scores[pairs], weights[pairs], counts[scored])
    elif tolerance is not None:
        threshold += tolerance
    keep = scores <= np.repeat(threshold, counts)
    return classes[keep], np.add.reduceat(keep, heads)


def _filter_pairs(
    step: Callable, batch_size: int, orders: np.ndarray, counts: np.ndarray, classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Filter a block of events, each holding ``counts[i]`` consecutive
    (event, class) pairs of ``classes``, through ``step``, a
    :func:`_filter_step` from :func:`_case_major_steps`.

    Row i of ``orders`` is event i's case order, walked in consecutive
    batches of ``batch_size`` cases.  An event retires once one class
    survives.  Returns each event's lone survivor (unset for the others),
    the events left with several classes when the cases run out, and
    their surviving pairs as counts and classes.
    """
    m = orders.shape[1]
    events = np.arange(orders.shape[0])
    lone = np.empty(events.size, dtype=classes.dtype)
    start = 0
    while True:
        settled = counts == 1
        if settled.any():
            lone[events[settled]] = classes[np.repeat(settled, counts)]
            left = ~settled
            classes = classes[np.repeat(left, counts)]
            events, counts = events[left], counts[left]
        if events.size == 0 or start >= m:
            return lone, events, counts, classes
        cases = orders[events, start : start + batch_size].astype(np.intp, copy=False)
        classes, counts = step(cases, counts, classes)
        start += batch_size


def _finish_events(
    counts: np.ndarray, classes: np.ndarray, sizes: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Resolve events that still have several surviving classes.

    Event i, holding ``counts[i]`` consecutive classes, picks the class
    at ``searchsorted(cum, u[i] * cum[-1], side="right")``, where ``cum``
    is the cumulative member count of its classes: a uniform draw over
    the surviving individuals.
    """
    weights = sizes[classes]
    cum = np.cumsum(weights)
    heads = np.cumsum(counts) - counts
    cum -= np.repeat(cum[heads] - weights[heads], counts)
    target = u * cum[heads + counts - 1]
    slot = np.add.reduceat(cum <= np.repeat(target, counts), heads)
    return classes[heads + np.minimum(slot, counts - 1)]


def _case_errors(
    class_errors: np.ndarray, class_support: np.ndarray | None, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Cases ``lo:hi`` of the class errors, case major (one C-contiguous
    row per case), with +inf at every entry where the class is
    undefined; ``class_support`` is None on full support."""
    rows = class_errors[:, lo:hi].T.copy()
    if class_support is not None:
        # Errors are exactly 0 where support is 0, so dividing by the
        # support keeps every defined error and puts NaN (0 / 0) at each
        # undefined entry, which fmin turns into +inf.
        with np.errstate(invalid="ignore"):
            np.divide(rows, class_support[:, lo:hi].T, out=rows)
        np.fmin(rows, np.inf, out=rows)
    return rows


def _case_major_steps(
    classing: EquivalenceClassing, tolerance: float | np.ndarray | str | None = None
) -> tuple[Callable, Callable]:
    """:func:`_first_step` and :func:`_filter_step` bound to one case-major
    copy of the classing's errors with +inf at every undefined entry
    (:func:`_case_errors`, over every case): an event's first step, over
    every class, and the steps after it, as :func:`_filter_pairs` takes
    them."""
    undefined = not classing.full_support
    case_errors = _case_errors(classing.class_errors, classing.class_support if undefined else None)
    members = classing.sizes if classing.k < classing.n else None
    return (
        partial(_first_step, case_errors, undefined, members, tolerance),
        partial(_filter_step, case_errors, undefined, classing.sizes, tolerance),
    )


def _survivors_for_order(classing: EquivalenceClassing, order: np.ndarray) -> np.ndarray:
    """Filter classes case by case in the given order, as lexicase does;
    return the survivors.  This is one event of the engine
    :func:`_filter_events` runs.
    """
    first, step = _case_major_steps(classing)
    order = np.asarray(order, dtype=np.intp)[None, :]
    classes, counts = first(order[:, :1])
    lone, events, _, classes = _filter_pairs(step, 1, order[:, 1:], counts, classes)
    return classes if events.size else lone


def lexicase_select(
    classing: EquivalenceClassing, n_events: int, rng: RandomSource
) -> np.ndarray:
    """Classic lexicase selection.

    Each event shuffles the cases uniformly, then repeatedly keeps only
    the classes with minimum error on the next case.  The lone survivor
    wins; if the cases run out first, the winner is drawn uniformly over
    the surviving individuals.
    """
    return _filter_events(classing, n_events, rng)


def _filter_events(
    classing: EquivalenceClassing,
    n_events: int,
    rng: RandomSource,
    tolerance: float | np.ndarray | str | None = None,
    batch_size: int = 1,
) -> np.ndarray:
    """Run ``n_events`` lexicase-family events as (event, class) pairs.

    Two generators serve the whole pass.  Event i's case order is the
    i-th ``permutation(m)`` of stream ``EVENT_STREAM``, and its finish
    uniform, used by :func:`_finish_events` when several classes outlast
    the cases, the i-th ``random()`` of stream ``FINISH_STREAM``; every
    event draws both.  A block's orders are one ``permuted`` call over
    its rows and its uniforms one ``random`` call, which give the same
    values as those per-event draws, so an event's draws depend neither
    on ``n_events`` nor on the block size.  Events take their first step
    in blocks of about :data:`_PAIR_BUDGET` entries.  An event's first
    step holds every class, so a block takes it densely
    (:func:`_first_step`).  With one-case batches the first step keeps
    the elite of the event's first case, whatever the event; when events
    are at least as many as cases, each case's elite is computed once, as
    a pseudo-event holding every class, and looked up.

    The steps after the first run as (event, class) pairs through
    :func:`_filter_pairs`, each call of which costs a fixed overhead.  A
    block's events left with one class are settled at once; the others
    pool across blocks and filter as one set (:func:`_filter_pool`) once
    the pool holds ``_PAIR_BUDGET // 16`` pair entries or
    :data:`_PAIR_BUDGET` case order entries, and at the end of the pass.
    A block whose own contested pairs reach that cap runs by itself, as
    does the last block when nothing else is pooled.  Each event's filter
    reads its own pairs only, so pooling moves no pick.
    """
    if n_events < 1:
        raise ShapeError(f"need n_events >= 1, got {n_events}")
    k, m = classing.class_errors.shape
    sizes = classing.sizes
    first, step = _case_major_steps(classing, tolerance)
    batch_size = min(batch_size, m)
    # A first step gathers k entries per batch case and an event, and a
    # MAD sorts n member-expanded scores.
    width = max(k * batch_size, classing.n)
    # The elites are pseudo-events holding every class, filtered as pairs:
    # 3.5 ms for the 200 cases of a 1000x200 classing, where 1000 events'
    # own first steps take 2.9 ms and _first_step would take the elites in
    # 0.7 ms.  Moving them to _first_step makes a 1000-event lexicase pass
    # there about as fast as a dalex pass, the comparison acceptance
    # criterion 08 makes, so it waits for a cheaper dalex pass set-up.
    lookup = batch_size == 1 and n_events >= m
    if lookup:
        elite, elite_counts = [], []
        every = np.arange(k, dtype=np.int32)
        chunk = max(1, _PAIR_BUDGET // k)
        for lo in range(0, m, chunk):
            cases = np.arange(lo, min(lo + chunk, m))
            kept, n_kept = step(cases[:, None], np.full(cases.size, k), np.tile(every, cases.size))
            elite.append(kept)
            elite_counts.append(n_kept)
        elite, elite_counts = np.concatenate(elite), np.concatenate(elite_counts)
        elite_heads = np.cumsum(elite_counts) - elite_counts
        width = -(-elite.size // m)
    # A block's case orders take m entries per event.
    block = max(1, _PAIR_BUDGET // max(width, m))
    # Each pair step costs about 0.2 ms of fixed numpy overhead, paid once
    # per pool rather than once per block.  The pool's pair entries (pairs
    # times the batch size) stay far below a first step's.
    cap = _PAIR_BUDGET // 16
    order_gen, finish_gen = rng.generator(EVENT_STREAM), rng.generator(FINISH_STREAM)
    picks = np.empty(n_events, dtype=np.int64)
    pool, pooled_pairs, pooled_orders = [], 0, 0
    for lo in range(0, n_events, block):
        hi = min(lo + block, n_events)
        orders = order_gen.permuted(np.tile(np.arange(m), (hi - lo, 1)), axis=1)
        u = finish_gen.random(hi - lo)
        if lookup:
            counts = elite_counts[orders[:, 0]]
            classes = elite[_segment_positions(elite_heads[orders[:, 0]], counts)]
        else:
            classes, counts = first(orders[:, :batch_size])
        orders = orders[:, batch_size:]
        settled = counts == 1
        contested = (classes.size - np.count_nonzero(settled)) * batch_size
        if contested >= cap or (hi == n_events and not pool):
            # A block over the cap, or the last block with nothing pooled,
            # filters as it is, with no copy.
            block_events = [(np.arange(lo, hi), orders, counts, classes, u)]
            _filter_pool(step, batch_size, sizes, block_events, picks)
        else:
            # Events left with one class are settled; the others join the
            # pool with their pairs, the rest of their case order (in the
            # narrowest integer type) and their finish uniform.
            picks[lo + np.flatnonzero(settled)] = classes[np.repeat(settled, counts)]
            events = np.flatnonzero(~settled)
            if events.size:
                pool.append(
                    (
                        lo + events,
                        orders[events].astype(np.min_scalar_type(m)),
                        counts[events],
                        classes[np.repeat(~settled, counts)],
                        u[events],
                    )
                )
                pooled_pairs += contested
                pooled_orders += events.size * orders.shape[1]
        # Freed here, the block's first-step pairs do not share the next
        # block's first step's peak.
        del classes, counts, settled
        if pooled_pairs >= cap or pooled_orders >= _PAIR_BUDGET:
            _filter_pool(step, batch_size, sizes, pool, picks)
            pooled_pairs, pooled_orders = 0, 0
    if pool:
        _filter_pool(step, batch_size, sizes, pool, picks)
    return picks


def _filter_pool(step: Callable, batch_size: int, sizes: np.ndarray, pool: list, picks: np.ndarray):
    """Filter the contested events of one or more first-step blocks as
    one set through :func:`_filter_pairs`, finish them and write their
    picks.  Each entry of ``pool`` holds some events' indices, their case
    orders past the first step, pair counts, classes and finish uniforms.
    Every event reads only its own pairs, so its pick does not depend on
    the events it is pooled with."""
    if len(pool) == 1:
        events, orders, counts, classes, u = pool[0]
    else:
        events, orders, counts, classes, u = (np.concatenate(part) for part in zip(*pool))
    # Emptied, the pool frees its pieces before the filter runs.
    pool.clear()
    lone, left, counts, classes = _filter_pairs(step, batch_size, orders, counts, classes)
    lone[left] = _finish_events(counts, classes, sizes, u[left])
    picks[events] = lone


def epsilon_for_cases(classing: EquivalenceClassing) -> np.ndarray:
    """Per-case tolerance: median absolute deviation from the median.

    Computed over the full population, so class rows are weighted by
    their member counts.  With partial support an undefined entry counts
    as an error of 0.  Even-length medians average the two middle
    values, without overflow (:func:`_midpoint`).
    """
    members = classing.sizes if classing.k < classing.n else None
    return _row_mad(classing.class_errors.T, members)


def epsilon_lexicase_select(
    classing: EquivalenceClassing,
    n_events: int,
    rng: RandomSource,
    epsilons: np.ndarray | None = None,
) -> np.ndarray:
    """Lexicase with a per-case survival tolerance.

    The tolerance vector defaults to :func:`epsilon_for_cases` computed
    once from the full population; during an event each case keeps the
    classes within ``eps`` of the minimum among those still remaining.
    Passing ``epsilons`` explicitly overrides the MAD computation (an
    all-zero vector reproduces plain lexicase).
    """
    if epsilons is None:
        epsilons = epsilon_for_cases(classing)
    else:
        epsilons = np.asarray(epsilons, dtype=np.float64)
        if epsilons.shape != (classing.m,):
            raise ShapeError(
                f"epsilons shape {epsilons.shape} does not match m={classing.m}"
            )
        if not np.isfinite(epsilons).all() or (epsilons < 0).any():
            raise ShapeError("epsilons must be finite and >= 0")
    return _filter_events(classing, n_events, rng, tolerance=epsilons)


def batch_lexicase_select(
    classing: EquivalenceClassing,
    n_events: int,
    cfg: SelectorConfig,
    rng: RandomSource,
) -> np.ndarray:
    """Lexicase over batches of cases instead of single cases.

    Each event shuffles the cases and partitions them into consecutive
    batches of ``cfg.batch_size`` (the last batch may be smaller; sizes
    above m give one batch of every case).  A class's score on a batch
    is its mean error over the batch cases it is defined on; classes
    defined on no case in the batch are skipped past only if every
    survivor is.  A batch keeps the classes within a threshold of the
    minimum score: ``mad`` mode uses the median absolute deviation of
    the survivors' batch means, ``absolute`` mode a fixed value.  Batch
    size 1 with a zero absolute threshold reproduces plain lexicase.
    """
    if cfg.method != "batch_lexicase":
        raise ConfigError(
            f"method: batch_lexicase_select called with method {cfg.method!r}"
        )
    tolerance = "mad" if cfg.batch_threshold_mode == "mad" else cfg.batch_threshold_value
    return _filter_events(classing, n_events, rng, tolerance, cfg.batch_size)


def select_classes(
    classing: EquivalenceClassing,
    n_events: int,
    cfg: SelectorConfig,
    rng: RandomSource,
) -> np.ndarray:
    """Dispatch to the selector named by ``cfg.method``."""
    if cfg.method == "dalex":
        return dalex_select(classing, n_events, cfg, rng)
    if cfg.method == "lexicase":
        return lexicase_select(classing, n_events, rng)
    if cfg.method == "epsilon_lexicase":
        return epsilon_lexicase_select(classing, n_events, rng)
    return batch_lexicase_select(classing, n_events, cfg, rng)


def select_parents(
    errors,
    support,
    cfg: SelectorConfig,
    n_events: int,
    rng: RandomSource,
) -> np.ndarray:
    """Full pipeline on raw matrices: group, select classes, expand.

    Returns one selected individual index per event.
    """
    classing = build_classes(errors, support)
    picks = select_classes(classing, n_events, cfg, rng)
    return expand_class_selection(classing, picks, rng)

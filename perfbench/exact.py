"""Exact selection distributions by enumerating every case order.

This is the benchmark's own reference, written apart from
``lexsel.oracle`` so that the correctness checks do not trust the code
they check.  It works on individuals, not classes: duplicates stay
separate rows, and an event that runs out of cases picks uniformly among
the surviving individuals.

Each event of the lexicase family is a deterministic function of the
case order it draws, so the exact probability of an individual is the
share of the m! orders that select it.  The enumeration walks the orders
as a tree of prefixes and stops descending once the survivors can no
longer be told apart (one survivor, or identical rows), crediting the
whole subtree at once.  That keeps m <= 7 instances cheap.

Undefined entries follow the package's partial-support semantics: a case
(or batch) on which no survivor is defined decides nothing, and an
individual undefined on a case (or on every case of a batch) is never
elite on it.
"""

from __future__ import annotations

from math import factorial

import numpy as np

MAX_CASES = 7


def mad_per_case(errors):
    """Per-case median absolute deviation over the population's rows.

    Undefined entries hold 0 and are counted like any other entry, which
    is how the package defines the epsilon-lexicase tolerance.
    """
    E = np.asarray(errors, dtype=np.float64)
    med = np.median(E, axis=0)
    return np.median(np.abs(E - med), axis=0)


def _case_filter(E, S, eps):
    def keep(alive, cases):
        t = cases[0]
        defined = S[alive, t] > 0
        if not defined.any():
            return alive
        col = np.where(defined, E[alive, t], np.inf)
        threshold = col.min() + (0.0 if eps is None else eps[t])
        return alive[col <= threshold]

    return keep


def _batch_filter(E, S, threshold):
    def keep(alive, cases):
        cover = S[np.ix_(alive, cases)]
        counts = cover.sum(axis=1)
        defined = counts > 0
        if not defined.any():
            return alive
        sums = (E[np.ix_(alive, cases)] * cover).sum(axis=1)
        means = np.where(defined, sums / np.maximum(counts, 1), np.inf)
        if threshold is None:
            vals = means[defined]
            tau = np.median(np.abs(vals - np.median(vals)))
        else:
            tau = threshold
        return alive[means <= means.min() + tau]

    return keep


def _enumerate(E, S, step, width):
    """Distribution over rows when each event filters ``width`` cases at
    a time along a uniformly random case order."""
    n, m = E.shape
    if m > MAX_CASES:
        raise ValueError(f"enumeration is limited to m <= {MAX_CASES}, got m={m}")
    rows = np.concatenate([E, S], axis=1)
    probs = np.zeros(n)
    total = float(factorial(m))

    def settle(alive, orders):
        probs[alive] += orders / total / alive.size

    def walk(alive, remaining, batch, orders):
        # ``orders`` counts the full case orders that share this prefix.
        if alive.size == 1 or (rows[alive] == rows[alive[0]]).all():
            settle(alive, orders)
            return
        if len(batch) == width or (batch and not remaining):
            alive = step(alive, batch)
            batch = []
            if alive.size == 1 or not remaining:
                settle(alive, orders)
                return
        for i, t in enumerate(remaining):
            rest = remaining[:i] + remaining[i + 1 :]
            walk(alive, rest, batch + [t], orders / len(remaining))

    walk(np.arange(n), list(range(m)), [], total)
    return probs


def _as_matrices(errors, support):
    E = np.asarray(errors, dtype=np.float64)
    S = np.ones_like(E) if support is None else np.asarray(support, dtype=np.float64)
    return E, S


def lexicase_probs(errors, support=None):
    """Exact lexicase probability of each row."""
    E, S = _as_matrices(errors, support)
    return _enumerate(E, S, _case_filter(E, S, None), 1)


def epsilon_lexicase_probs(errors, support=None, epsilons=None):
    """Exact epsilon-lexicase probability of each row under a fixed
    tolerance vector (per-case MAD of the population by default)."""
    E, S = _as_matrices(errors, support)
    eps = mad_per_case(E) if epsilons is None else np.asarray(epsilons, dtype=np.float64)
    return _enumerate(E, S, _case_filter(E, S, eps), 1)


def batch_lexicase_probs(errors, support=None, batch_size=1, threshold=None):
    """Exact batch-lexicase probability of each row.

    Consecutive ``batch_size`` cases of the order form a batch (the last
    may be shorter); a row's score is its mean over the batch cases it is
    defined on.  ``threshold=None`` keeps rows within the median absolute
    deviation of the survivors' scores; a number is a fixed threshold.
    """
    E, S = _as_matrices(errors, support)
    width = min(int(batch_size), E.shape[1])
    return _enumerate(E, S, _batch_filter(E, S, threshold), width)

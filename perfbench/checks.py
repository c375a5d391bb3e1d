"""Output checks computed apart from the package.

Nothing here calls ``lexsel.oracle``, ``lexsel.metrics`` or the
selectors' helpers; each check recomputes what a correct output must
satisfy from the raw matrices.
"""

from __future__ import annotations

import math

import numpy as np

# False-alarm rate of one distribution check.  A run makes a few dozen
# and the benchmark is run thousands of times, so it must be tiny.
ALPHA_Z = 6.0


def js_divergence(p, q):
    """Jensen-Shannon divergence in nats."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mix = 0.5 * (p + q)
    total = 0.0
    for a in (p, q):
        nz = a > 0
        total += 0.5 * float(np.sum(a[nz] * np.log(a[nz] / mix[nz])))
    return max(total, 0.0)


def js_sampling_bound(probs, n_samples):
    """Largest JS between ``probs`` and an n-sample histogram of it that
    is not a failure.

    For small deviations JS is about a Pearson chi-square statistic over
    8n; the chi-square tail at z = ALPHA_Z (Wilson-Hilferty) is doubled
    to cover the approximation on low-probability rows.
    """
    dof = max(int(np.count_nonzero(np.asarray(probs) > 0)) - 1, 1)
    h = 2.0 / (9.0 * dof)
    tail = dof * (1.0 - h + ALPHA_Z * math.sqrt(h)) ** 3
    return 2.0 * tail / (8.0 * n_samples)


def histogram(picks, n):
    picks = np.asarray(picks)
    return np.bincount(picks, minlength=n) / picks.size


def check_distribution(label, picks, exact, allowance=0.0):
    """Compare sampled row picks with an exact distribution.

    Fails when a row of probability 0 is picked while ``allowance`` is 0
    (the method should match ``exact`` exactly), or when the JS exceeds
    the sampling bound plus ``allowance``.  Returns the JS.
    """
    emp = histogram(picks, exact.size)
    js = js_divergence(emp, exact)
    bound = js_sampling_bound(exact, len(picks)) + allowance
    if allowance == 0.0 and (emp[exact == 0] > 0).any():
        raise AssertionError(f"{label}: picked a row of exact probability 0")
    if js > bound:
        raise AssertionError(f"{label}: JS {js:.3g} above bound {bound:.3g}")
    return js


def dominated(errors, rows, chunk=256, sieve=8):
    """For each index in ``rows``, whether some row of ``errors`` Pareto
    dominates it (no worse on every case, better on one).

    A dominator's row sum is never larger and it is no worse on the first
    ``sieve`` columns; those tests discard most pairs cheaply, and the
    pairs left are compared whole.
    """
    E = np.asarray(errors, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    sums = E.sum(axis=1)
    out = np.zeros(rows.size, dtype=bool)
    for start in range(0, rows.size, chunk):
        block = rows[start : start + chunk]
        mask = sums[None, :] <= sums[block][:, None]
        for j in range(min(sieve, E.shape[1])):
            mask &= E[None, :, j] <= E[block, j][:, None]
        pos, cand = np.nonzero(mask)
        target = block[pos]
        # Small slices keep this check's memory below the program's.
        for lo in range(0, pos.size, 2048):
            c, t = cand[lo : lo + 2048], target[lo : lo + 2048]
            no_worse = (E[c] <= E[t]).all(axis=1)
            differs = (E[c] != E[t]).any(axis=1)
            out[start + pos[lo : lo + 2048][no_worse & differs]] = True
    return out


def check_not_dominated(label, errors, picked_rows):
    rows = np.unique(picked_rows)
    bad = rows[dominated(errors, rows)]
    if bad.size:
        raise AssertionError(f"{label}: picked Pareto-dominated rows {bad[:5].tolist()}")


def normalized_weighted_means(importance, errors, support):
    """Support-normalized weighted mean error of every row under every
    importance row: softmax weights, clamped below at the smallest normal
    float as the package documents, then sum(w e) / sum(w s)."""
    z = importance - importance.max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    w = np.maximum(w, np.finfo(np.float64).tiny)
    return np.einsum("ij,kj->ik", w, errors) / np.einsum("ij,kj->ik", w, support)


def check_row_minimum(label, picks, importance, errors, support, chunk=250, rtol=1e-9):
    """Each pick must attain its event's minimum normalized weighted mean
    (within ``rtol``, since the two computations round differently)."""
    for lo in range(0, len(picks), chunk):
        fit = normalized_weighted_means(importance[lo : lo + chunk], errors, support)
        best = fit.min(axis=1)
        got = fit[np.arange(fit.shape[0]), picks[lo : lo + chunk]]
        if (got > best + rtol * np.abs(best)).any():
            raise AssertionError(f"{label}: a pick misses its row minimum")

"""Evaluation statistics: signal recovery counts and predictive scores."""

import numpy as np

ACCURACY_THRESHOLD = 0.5


def tp_fp(selected, truth) -> tuple[int, int]:
    """``(tp, fp)``: true and false positives of a selected index set."""
    selected = frozenset(int(j) for j in selected)
    truth = frozenset(int(j) for j in truth)
    tp = len(selected & truth)
    return tp, len(selected) - tp


def relative_mse(X: np.ndarray, beta_hat, beta_star) -> float:
    """|X(beta_hat - beta_star)| / |X beta_star| in Euclidean norm."""
    X = np.asarray(X, dtype=float)
    signal = X @ np.asarray(beta_star, dtype=float)
    denom = float(np.linalg.norm(signal))
    if denom == 0.0:
        raise ValueError("null true signal: |X beta_star| is zero")
    diff = X @ np.asarray(beta_hat, dtype=float) - signal
    return float(np.linalg.norm(diff)) / denom


def accuracy(prob, y) -> float:
    """Fraction classified correctly at ``ACCURACY_THRESHOLD``; ties go to 1."""
    prob = np.asarray(prob, dtype=float)
    y = np.asarray(y, dtype=float)
    if prob.shape != y.shape:
        raise ValueError("prob and y must have equal length")
    return float(np.mean((prob >= ACCURACY_THRESHOLD).astype(float) == y))


def concordance_index(risk, time, status) -> float:
    """Harrell's C for right-censored data.

    A pair (i, j) is comparable when i is an event observed before j; it is
    concordant when i also has the higher risk, and tied risks count one
    half.  A NaN risk leaves its pairs comparable but neither, and a NaN
    time is in no pair.  O(n log^2 n) time, O(n) memory: over blocks of
    time ranks of doubling width, each event in a left block counts the
    lower and the equal risks in the right block by ``searchsorted``.
    """
    rows = ~np.isnan(np.asarray(time, dtype=float))
    risk = np.asarray(risk, dtype=float)[rows]
    time = np.asarray(time, dtype=float)[rows]
    event = np.asarray(status, dtype=float)[rows] == 1.0
    n, sorted_time = time.shape[0], np.sort(time)
    time_rank = np.searchsorted(sorted_time, time)  # tied times share a block
    risk_rank = np.searchsorted(np.sort(risk), risk)  # NaN ranks above every number
    n_pairs = np.sum(n - np.searchsorted(sorted_time, time[event], side="right"))
    if n_pairs == 0:
        raise ValueError("no comparable pairs: concordance is undefined")
    scored = event & ~np.isnan(risk)
    concordant = tied = 0
    for width in (1 << b for b in range((n - 1).bit_length())):  # 1, 2, 4, ... < n
        pair, offset = np.divmod(time_rank, 2 * width)
        later, key = offset >= width, pair * (n + 1) + risk_rank
        keys = np.sort(key[later])
        queries = np.sort(key[~later & scored])  # sorted queries search faster
        below, at_most = (np.searchsorted(keys, queries, side) for side in ("left", "right"))
        concordant += np.sum(below - np.searchsorted(keys, queries // (n + 1) * (n + 1)))
        tied += np.sum(at_most - below)
    return float((concordant + 0.5 * tied) / n_pairs)

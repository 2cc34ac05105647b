"""Evaluation statistics: signal recovery counts and predictive scores."""

from dataclasses import dataclass

import numpy as np

ACCURACY_THRESHOLD = 0.5


@dataclass(frozen=True)
class SelectionScore:
    """True/false positive counts of a selected index set against the truth."""

    tp: int
    fp: int


def tp_fp(selected, truth) -> SelectionScore:
    selected = frozenset(int(j) for j in selected)
    truth = frozenset(int(j) for j in truth)
    tp = len(selected & truth)
    return SelectionScore(tp, len(selected) - tp)


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


def comparable_pairs(time, status) -> np.ndarray:
    """Pairs (i, j) where i is an event observed before j, as an n x n mask."""
    time = np.asarray(time, dtype=float)
    status = np.asarray(status, dtype=float)
    return (status[:, None] == 1.0) & (time[:, None] < time[None, :])


def concordance_index(risk, time, status) -> float:
    """Harrell's C for right-censored data.

    A pair is comparable (:func:`comparable_pairs`) when the earlier
    observation is an event; it is concordant when that observation also
    has the higher risk, and tied risks count one half.
    """
    risk = np.asarray(risk, dtype=float)
    comparable = comparable_pairs(time, status)
    n_pairs = int(comparable.sum())
    if n_pairs == 0:
        raise ValueError("no comparable pairs: concordance is undefined")
    concordant = comparable & (risk[:, None] > risk[None, :])
    tied = comparable & (risk[:, None] == risk[None, :])
    return float((concordant.sum() + 0.5 * tied.sum()) / n_pairs)

"""Primal-dual active set iteration for a fixed cardinality k.

Starting from some size-k active set, each sweep (i) fits the coefficients
restricted to the current set, (ii) computes duals and sacrifices for every
coordinate, and (iii) replaces the set with the k coordinates of largest
sacrifice.  A set that reproduces itself is a fixed point and the iteration
stops.  On weak signals the sweep can enter a short cycle instead, so every
visited set is remembered and any revisit stops the run, returning the
visited set of lowest loss.

A result is one :class:`PdasOutput`: the ``CoefficientModel`` fitted on
the returned set, the sacrifices delta at that model (no duals: only delta
drives the iteration), and the sweep count, convergence flag and visited
sets.  The size cap is the family's, ``ModelFamily.max_size``.  A start
is exactly k indices; :func:`warm_start_set` sizes one from an earlier
output, and a cold start is the one it sizes from :func:`null_fit`.
"""

from dataclasses import dataclass

import numpy as np

from .data import StandardizedDataset
from .families import (
    CoefficientModel,
    ModelFamily,
    as_indices,
    dual_sacrifice,
    fit_active,
)

DEFAULT_MAX_SWEEPS = 20


@dataclass(frozen=True, eq=False)
class PdasOutput:
    """The model fitted on the returned set, its sacrifices, and the run.

    ``model.beta`` vanishes off ``model.active_set``; the inactive set is
    the complement.  ``delta`` is read-only, as outputs may share it.
    ``history`` lists the distinct sets visited, in order.
    """

    model: CoefficientModel
    delta: np.ndarray
    iterations: int
    converged: bool
    history: tuple[tuple[int, ...], ...]

    @property
    def loss(self) -> float:
        return self.model.loss

    @property
    def k(self) -> int:
        return len(self.model.active_set)


def select_top_k(delta: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k largest sacrifices, in increasing order.

    Ties break toward lower indices, ``+inf`` ranks first and NaN ranks
    below every number.  One partition finds the k-th largest value, so the
    cost is O(p) rather than a full sort.
    """
    key = -np.asarray(delta)
    if not 0 <= k <= key.shape[0]:
        raise ValueError("k must be between 0 and the number of coordinates")
    if k == 0:
        return ()
    # partition sorts NaN last, like the ascending order of key
    kth = np.partition(key, k - 1)[k - 1]
    if np.isnan(kth):
        chosen, tied = ~np.isnan(key), np.isnan(key)
    else:
        chosen, tied = key < kth, key == kth
    chosen[np.flatnonzero(tied)[: k - np.count_nonzero(chosen)]] = True
    return tuple(np.flatnonzero(chosen).tolist())


def _evaluate(family, d, active, evaluations):
    """``(model, delta)`` on ``active``, via the ``evaluations`` memo."""
    evaluations = {} if evaluations is None else evaluations
    if active not in evaluations:
        model = fit_active(family, d, active)
        _, delta = dual_sacrifice(family, d, model)
        delta.setflags(write=False)  # lookups share this array
        evaluations[active] = model, delta
    return evaluations[active]


def null_fit(family: ModelFamily, d: StandardizedDataset, evaluations=None) -> PdasOutput:
    """The empty-model output (k = 0); anchors warm starts and k-0 criteria."""
    return PdasOutput(*_evaluate(family, d, (), evaluations), 0, True, ((),))


def warm_start_set(prev: PdasOutput, k: int) -> tuple[int, ...]:
    """A size-k start from ``prev``, an earlier output (``null_fit`` for a cold one).

    When k is at most ``prev``'s size, its k members of largest |beta|;
    otherwise its set grown by the top sacrifices outside it.  Ties go to
    the lower index either way.
    """
    active = prev.model.active_set
    if k <= len(active):
        order = np.argsort(-np.abs(prev.model.beta[list(active)]), kind="stable")
        return tuple(sorted(active[j] for j in order[:k]))
    delta = np.array(prev.delta, dtype=float)
    delta[list(active)] = np.inf  # keep the members on top
    return select_top_k(delta, k)


def pdas(
    family: ModelFamily,
    d: StandardizedDataset,
    k: int,
    init=None,
    m_max: int = DEFAULT_MAX_SWEEPS,
    *,
    evaluations: dict | None = None,
) -> PdasOutput:
    """Run the active-set fixed-point iteration at cardinality k.

    ``init`` is the starting set, exactly k distinct indices in [0, p); when
    omitted the k largest empty-model sacrifices are used, which is
    ``warm_start_set(null_fit(...), k)``.  ``converged``
    is True only when an active set reproduced itself; hitting a cycle or
    ``m_max`` returns the best visited set with the flag down.

    ``evaluations`` maps an active set to its ``(model, delta)`` for
    this family and dataset.  Every set this run fits is looked up there
    first and added when missing, so callers that run ``pdas`` repeatedly
    on one dataset can share a dict to fit each set once.  Results do not
    depend on it.
    """
    p = d.dataset.p
    n = d.dataset.n
    if not 1 <= k <= p:
        raise ValueError(f"k must be in [1, {p}], got {k}")
    if k > family.max_size(n, p):
        raise ValueError(f"k={k} exceeds n={n} for the gaussian family")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    evaluations = {} if evaluations is None else evaluations

    if init is None:
        active = warm_start_set(null_fit(family, d, evaluations), k)
    else:
        init = as_indices(init)
        active = tuple(sorted(set(init)))
        if len(init) != k or len(active) != k or active[0] < 0 or active[-1] >= p:
            raise ValueError(f"init must be {k} distinct indices in [0, {p})")

    visited: dict[tuple[int, ...], tuple] = {}  # set -> (model, delta)
    for _ in range(m_max):
        model, delta = visited[active] = _evaluate(family, d, active, evaluations)
        proposal = select_top_k(delta, k)
        if proposal == active:
            return PdasOutput(model, delta, len(visited), True, tuple(visited))
        if proposal in visited:
            break
        active = proposal
    best = min(visited.values(), key=lambda fit: (fit[0].loss, fit[0].active_set))
    return PdasOutput(*best, len(visited), False, tuple(visited))

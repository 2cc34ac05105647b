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

import math
from dataclasses import dataclass

import numpy as np

from .data import StandardizedDataset
from .families import CoefficientModel, ModelFamily, as_set, as_size, problem

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
    def separated(self) -> bool:
        return self.model.separated

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
    k = as_size(k, "k", 0, key.shape[0])
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


def null_fit(family: ModelFamily, d: StandardizedDataset) -> PdasOutput:
    """The empty-model output (k = 0); anchors warm starts and k-0 criteria."""
    return PdasOutput(*problem(d).evaluate(family, d, ()), 0, True, ((),))


def warm_start_set(prev: PdasOutput, k: int) -> tuple[int, ...]:
    """A size-k start from ``prev``, an earlier output (``null_fit`` for a cold one).

    When k is at most ``prev``'s size, its k members of largest |beta|;
    otherwise its set grown by the top sacrifices outside it.  Ties go to
    the lower index either way.
    """
    active = prev.model.active_set
    k = as_size(k, "k", 0, prev.model.beta.shape[0])
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
    start=None,
) -> PdasOutput:
    """Run the active-set fixed-point iteration at cardinality k.

    ``init`` is the starting set, exactly k distinct indices in [0, p); when
    omitted the k largest empty-model sacrifices are used, which is
    ``warm_start_set(null_fit(...), k)``.  ``converged``
    is True only when an active set reproduced itself; hitting a cycle or
    ``m_max`` returns the best visited set with the flag down.

    ``start``, an earlier model, warm starts the fit of the first set, and
    each later sweep's fit starts from the previous sweep's model; without
    it every set is fitted from zero.  ``fit_active`` says which families
    use it and when it is refused.

    Each set is looked up first in the memo all runs on ``d`` share, so it
    is fitted once per dataset while held there; ``families.Problem`` says
    what that changes.
    """
    p = d.dataset.p
    k = as_size(k, "k", 1, family.max_size(d.dataset.n, p))
    m_max = as_size(m_max, "m_max", 1, math.inf)

    if init is None:
        active = warm_start_set(null_fit(family, d), k)
    else:
        active = as_set(init, p)
        as_size(len(active), "init size", k, k)

    visited: dict[tuple[int, ...], tuple] = {}  # set -> (model, delta)
    for _ in range(m_max):
        model, delta = visited[active] = problem(d).evaluate(family, d, active, start)
        if start is not None:
            start = model
        proposal = select_top_k(delta, k)
        if proposal == active:
            return PdasOutput(model, delta, len(visited), True, tuple(visited))
        if proposal in visited:
            break
        active = proposal
    best = min(visited.values(), key=lambda fit: (fit[0].loss, fit[0].active_set))
    return PdasOutput(*best, len(visited), False, tuple(visited))

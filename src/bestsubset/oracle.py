"""Exhaustive best-subset search, the ground truth for small p.

Fits every size-k subset in lexicographic order and returns the fitted
model of the first one attaining the minimal loss, so ties resolve
deterministically and the loss it was ranked by is the one every other
method reports for that set.  Only intended for desk-scale problems; the
subset count explodes beyond ``p_cap``.
"""

from itertools import combinations

from .data import StandardizedDataset
from .families import CoefficientModel, ModelFamily, fit_active

DEFAULT_P_CAP = 25


def exhaustive_best_subset(
    family: ModelFamily,
    d: StandardizedDataset,
    k: int,
    p_cap: int = DEFAULT_P_CAP,
) -> CoefficientModel:
    """Globally best size-k subset by enumeration, as its fitted model."""
    p = d.dataset.p
    if p > p_cap:
        raise ValueError(
            f"refusing exhaustive search: p={p} exceeds p_cap={p_cap}"
        )
    if not 0 <= k <= p:
        raise ValueError(f"k must be in [0, {p}], got {k}")
    best = None
    for subset in combinations(range(p), k):
        model = fit_active(family, d, subset)
        if best is None or model.loss < best.loss:
            best = model
    return best

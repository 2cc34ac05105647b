"""Best size-k subset by branch and bound, the ground truth for small p.

Returns the fitted model of the lexicographically first size-k subset
attaining the minimal loss: the model that fitting every size-k subset in
lexicographic order and keeping the first strict minimum would return, so
ties resolve deterministically and the loss it was ranked by is the one
every other method reports for that set.

The search (the "leaps and bounds" of Furnival & Wilson, 1974) rests on
one fact shared by all three families: the minimal loss over a set is
never above the minimal loss over any of its subsets.  It runs depth first
over the columns in order of their null sacrifice, from the ``pdas`` fit
at k as the incumbent.  A node is a picked set F and a pool C of columns
still open; it is dropped when the fit on F | C certifies a lower bound
above the incumbent's loss.  Only desk-scale problems are accepted: the
search is refused beyond ``p_cap`` columns, as the count of subsets it may
still have to fit grows as C(p, k).
"""

import math

import numpy as np

from .data import StandardizedDataset
from .families import (
    LINEAR_PREDICTOR_CLIP,
    CoefficientModel,
    ModelFamily,
    _active_predictor,
    as_size,
    fit_active,
    problem,
    quiet_fit,
)
from .pdas import null_fit, pdas

DEFAULT_P_CAP = 25

# A bound prunes only above the incumbent by this share of its loss, which
# covers the rounding and solver tolerance of the fit the bound comes from:
# a superset whose extra columns add nothing may compute a few ulps above a
# subset tied with the incumbent.
BOUND_MARGIN = 1e-9


def _lower_bound(family: ModelFamily, d: StandardizedDataset, superset) -> float:
    """A lower bound on the loss of every subset of ``superset``, or -inf.

    The loss of the fit on ``superset`` is one only when that fit is a
    minimum: it fits within the family's size cap,
    :func:`~bestsubset.families.quiet_fit` accepts it, and it converged.  A
    fit flagged ``separated`` stops above its infimum, so it gives 0; an
    unflagged binomial or cox fit may still be quasi-separated, so any |eta|
    at ``LINEAR_PREDICTOR_CLIP`` disqualifies it.  It never enters the
    memo, as no leaf of this search is as large as a superset.
    """
    if len(superset) > family.max_size(d.dataset.n, d.dataset.p):
        return -math.inf
    model = quiet_fit(fit_active, family, d, superset)
    if model is None or not model.solver_converged:
        return -math.inf
    if model.separated:
        return 0.0
    if family.tag != "gaussian":
        eta = model.intercept + _active_predictor(d.dataset.X, model)
        if np.max(np.abs(eta)) >= LINEAR_PREDICTOR_CLIP:
            return -math.inf
    return model.loss


def exhaustive_best_subset(
    family: ModelFamily,
    d: StandardizedDataset,
    k: int,
    p_cap: int = DEFAULT_P_CAP,
) -> CoefficientModel:
    """Globally best size-k subset, as its fitted model.

    The result is the one enumeration of all C(p, k) subsets gives; the
    branch and bound usually fits far fewer, at k = 1 just the p singletons.
    A leaf the dataset's memo holds is not fitted, and no set is fitted
    twice unless ``pdas`` here fitted more sets than the memo keeps (n / 2).
    ``p_cap``, a size in [1, inf], refuses the search when p exceeds it.
    """
    n, p = d.dataset.n, d.dataset.p
    if p > as_size(p_cap, "p_cap", 1, math.inf):
        raise ValueError(f"refusing exhaustive search: p={p} exceeds p_cap={p_cap}")
    k = as_size(k, "k", 0, family.max_size(n, p))
    if k in (0, p):  # a single subset
        return fit_active(family, d, range(k))
    if k == 1:  # the bound fits would cost more than the p leaves
        singletons = (fit_active(family, d, (j,)) for j in range(p))
        return min(singletons, key=lambda model: (model.loss, model.active_set))

    null = null_fit(family, d)
    best = pdas(family, d, k).model
    order = tuple(np.argsort(-null.delta, kind="stable").tolist())

    # Nodes (picked, i, bound): the pool is order[i:], and bound is the
    # lower bound of picked | pool, or None until it is fitted.  Taking
    # order[i] keeps the node's superset, so that child inherits its bound.
    stack = [((), 0, None)]
    while stack:
        picked, i, bound = stack.pop()
        need = k - len(picked)
        if need in (0, p - i):  # a leaf: picked, or picked | pool
            leaf = tuple(sorted(picked + order[i:] if need else picked))
            model = problem(d).fit(family, d, leaf)  # held if pdas or a search fitted it
            if (model.loss, model.active_set) < (best.loss, best.active_set):
                best = model
            continue
        if bound is None:
            bound = _lower_bound(family, d, picked + order[i:])
        if bound > best.loss + BOUND_MARGIN * abs(best.loss):
            continue
        stack.append((picked, i + 1, None))
        stack.append((picked + (order[i],), i + 1, bound))
    return best

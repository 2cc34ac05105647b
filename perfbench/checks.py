"""Correctness checks on one op's reported selection.

The checks use only the documented public contract: a reported model is
the minimiser of the family loss on its active set (``fit_active`` then
``loss``), its size is k, its coefficients vanish off the set, and a
criterion-selected k minimises the criterion computed from the path's
losses by the formulas in ``bestsubset.tuning.criteria``.  They never
rerun a search.  Each returns a list of problems; empty means correct.

``fit_active`` and ``loss`` are bound at import, before any tracer is
installed, so checking adds no spans.
"""

import math

from bestsubset.families import ModelFamily, fit_active, loss

LOSS_RTOL = 1e-9


def relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def selection_problems(family: ModelFamily, d, k, active, reported_loss, nonzero, expected_k=None):
    """Problems with one reported model.

    ``active`` holds 0-based indices of the reported active set and
    ``nonzero`` the 0-based indices of the reported nonzero coefficients.
    """
    problems = []
    active = [int(j) for j in active]
    if len(set(active)) != len(active):
        problems.append(f"active set has duplicates: {active}")
    if len(active) != k:
        problems.append(f"|active|={len(active)} but k={k}")
    if expected_k is not None and k != expected_k:
        problems.append(f"k={k} but {expected_k} was asked for")
    stray = sorted(set(int(j) for j in nonzero) - set(active))
    if stray:
        problems.append(f"nonzero coefficients off the active set at {stray}")
    if not all(0 <= j < d.dataset.p for j in active):
        problems.append(f"active index out of range: {active}")
        return problems
    refit = loss(family, d, fit_active(family, d, sorted(set(active))))
    if not relative_gap(refit, reported_loss) <= LOSS_RTOL:
        problems.append(f"refit loss {refit!r} differs from reported {reported_loss!r}")
    return problems


def criterion_value(family_tag, loss_value, k, n, p, criterion):
    """AIC, BIC or EBIC from a loss, as documented in tuning.criteria."""
    if family_tag == "gaussian":
        deviance = n * math.log(max(2.0 * n * loss_value, 1e-300) / n)
    else:
        deviance = 2.0 * loss_value
    penalty = {
        "aic": 2.0 * k,
        "bic": k * math.log(n),
        "ebic": k * math.log(n) + 2.0 * k * math.log(p),
    }[criterion]
    return deviance + penalty


def criterion_problems(family_tag, n, p, path, criterion, chosen_k):
    """The chosen k must minimise the criterion over ``path`` [(k, loss), ...]."""
    values = {k: criterion_value(family_tag, value, k, n, p, criterion) for k, value in path}
    if chosen_k not in values:
        return [f"chosen k={chosen_k} is not on the path"]
    best = min(values.values())
    if values[chosen_k] > best + 1e-9 * max(abs(best), 1.0):
        best_k = min(k for k, v in values.items() if v == best)
        return [f"{criterion} picks k={best_k} over the path, report says k={chosen_k}"]
    return []

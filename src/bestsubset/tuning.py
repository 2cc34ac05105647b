"""Choosing the subset size: sequential sweep and golden-section elbow search.

The sequential search runs the active-set solver for k = 1, 2, ..., warm
starting each size from the previous solution, and picks the k minimizing an
information criterion (AIC, BIC, or EBIC).  Every criterion is deviance +
pen(k) with pen increasing in k, so once a lower bound on any fit's deviance
plus pen(k + 1) exceeds the best value so far, no larger size can be chosen
and the sweep stops: the path is then a prefix of the full one and the
choice is the same.  The bound is the deviance of the converged fit on all p
columns when ``k_max`` is p (every fit is a restricted one), else 0 for
binomial and cox (the loss is nonnegative); gaussian gets none otherwise.
The full-fit bound is exact only for a true minimum: a separated fit stops
about 2-6e-8 above its infimum, flagged converged, so a path size can beat
its loss; no choice has been seen to change.  ``FitPath.stop`` says why the
sweep ended.  The golden-section search brackets the `elbow' of the
loss-versus-k curve; interval ends are held, not re-solved
(:func:`golden_section_search` lists the sizes each iteration solves).
The iteration count is not O(log k_max): when the loss is flat
left of the split, the left end resets to 1, so the search can run many
iterations before the interval collapses.
Each search sizes every start with ``pdas.warm_start_set`` from an output it
holds, and a start with no earlier output from its one ``null_fit``, and
passes that output's model as ``pdas``'s ``start``, so cox fits begin from
the coefficients it holds (binomial and gaussian fits ignore it).  The
runs of both searches share the dataset's memo (``families.Problem``, which
says what sharing changes), so ``GoldenSectionTrace.pdas_calls`` counts
solver calls, not fits.

Every size is reported by one builder, :func:`fixed_k_report`, as a
:class:`SelectionReport`: each entry of the sequential path is one, and
``spdas`` returns the entry it chose, not a copy of it.  Both searches cap
``k_max`` at ``ModelFamily.max_size`` and run ``pdas`` with its sweep cap.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import StandardizedDataset
from .families import ModelFamily, as_size, fit_active, loglik_from_loss, problem, quiet_fit
from .pdas import PdasOutput, null_fit, pdas, warm_start_set

CRITERIA = ("aic", "bic", "ebic")
LOSS_FLOOR = 1e-8
GOLDEN_RATIO = 0.618
GSECTION_MAX_ITER = 100


def criteria(loglik: float, k: int, n: int, p: int) -> dict[str, float]:
    """Information criteria from a log-likelihood and model size, by name.

    deviance = -2 loglik, aic = deviance + 2k, bic = deviance + k log n,
    ebic = bic + 2k log p.
    """
    if n < 2 or p < 1 or k < 0:
        raise ValueError("need n >= 2, p >= 1, k >= 0")
    deviance = -2.0 * loglik
    aic = deviance + 2.0 * k
    bic = deviance + k * math.log(n)
    ebic = bic + 2.0 * k * math.log(p)
    return {"deviance": deviance, "aic": aic, "bic": bic, "ebic": ebic}


def resolve_criterion(criterion: str, n: int, p: int) -> str:
    """``auto`` maps to AIC for n >= p and to EBIC for n < p."""
    if criterion == "auto":
        return "aic" if n >= p else "ebic"
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    return criterion


def check_eta(eta: float) -> None:
    """The elbow tolerance of the golden-section search lies in (0, 1)."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")


def check_epsilon(epsilon: float) -> None:
    """The early-stop threshold of the sequential sweep is finite and >= 0."""
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")


def default_k_max(family: ModelFamily, n: int, p: int) -> int:
    """Family-specific cap on candidate subset sizes."""
    if family.tag == "gaussian":
        cap = min(n / 2, p)
    else:
        cap = min(n / math.log(n), p)
    return max(1, int(cap))


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """A model at one subset size with its criteria and diagnostics.

    Both the selected model and every entry of a :class:`FitPath` are
    reports; ``method`` and ``criterion`` say how the size was chosen, and
    ``criteria`` is the dict :func:`criteria` returns.
    """

    family: str
    method: str
    k: int
    active_set: tuple[int, ...]
    beta: np.ndarray
    intercept: float
    loss: float
    loglik: float
    criteria: dict[str, float]
    criterion: str
    pdas_iterations: int
    pdas_converged: bool
    solver_converged: bool


@dataclass(frozen=True, eq=False)
class FitPath:
    """Solution path over k, the best size under each criterion, and the stop.

    ``best_by`` is the argmin of each criterion over the computed path; only
    the chosen criterion's is certified over all sizes up to ``k_max``.
    ``stop`` says why the sweep ended: ``"k_max"`` (it got there),
    ``"epsilon"`` (the loss stopped improving) or ``"certified"`` (no larger
    size can win the chosen criterion).
    """

    entries: tuple[SelectionReport, ...]
    best_by: dict[str, int]
    stop: str

    def entry_for(self, k: int) -> SelectionReport:
        for entry in self.entries:
            if entry.k == k:
                return entry
        raise KeyError(f"no path entry for k={k}")


def fixed_k_report(family, d, out: PdasOutput, method: str, criterion: str):
    """Selection report for one ``pdas`` output at its own size."""
    model = out.model
    loglik = loglik_from_loss(family, d.dataset.n, model.loss)
    return SelectionReport(
        family=family.tag,
        method=method,
        k=out.k,
        active_set=model.active_set,
        beta=model.beta,
        intercept=model.intercept,
        loss=model.loss,
        loglik=loglik,
        criteria=criteria(loglik, out.k, d.dataset.n, d.dataset.p),
        criterion=criterion,
        pdas_iterations=out.iterations,
        pdas_converged=out.converged,
        solver_converged=model.solver_converged,
    )


def _checked_k_max(family: ModelFamily, n: int, p: int, k_max: int | None) -> int:
    """``k_max``, defaulted per family and checked against the size cap."""
    if k_max is None:
        return default_k_max(family, n, p)
    return as_size(k_max, "k_max", 1, family.max_size(n, p))


def gsection_k_max(family: ModelFamily, n: int, p: int, k_max: int | None) -> int:
    """``k_max`` of a golden-section search: defaulted, capped, and at least 3."""
    resolved = _checked_k_max(family, n, p, k_max)
    if resolved < 3:
        given = "got" if k_max is not None else f"the default for n={n}, p={p} is"
        raise ValueError(f"golden-section search needs k_max >= 3; {given} {resolved}")
    return resolved


def loglik_ceiling(family: ModelFamily, d: StandardizedDataset, k_max: int):
    """An upper bound on the log-likelihood of every fit of up to ``k_max``, or None.

    With ``k_max`` = p the converged fit on all p columns bounds every
    restricted fit.  That fit is always made, through ``families.quiet_fit``
    (a memo hit could not say it warned), and kept in the memo unless the
    helper refuses it.  Otherwise binomial and cox losses are nonnegative,
    so the bound is 0, and gaussian has none.  A separated full fit gives a
    bound a few 1e-8 too low (see the module notes); the oracle's |eta| test
    is not used to refuse it, as it fires on most benchmark cox full fits
    and would drop the bound that ends those sweeps early.
    """
    n, p = d.dataset.n, d.dataset.p
    if k_max == p:
        full = quiet_fit(fit_active, family, d, range(p))
        if full is not None:
            problem(d).add(full)
            if full.solver_converged:
                return loglik_from_loss(family, n, full.loss)
    return None if family.tag == "gaussian" else 0.0


def spdas(
    family: ModelFamily,
    d: StandardizedDataset,
    k_max: int | None = None,
    criterion: str = "auto",
    epsilon: float = 0.0,
):
    """Sequential sweep over k = 1..k_max with warm starts.

    Returns ``(path, report)``.  The path always contains the k = 0 null
    model so the criteria may select the empty set.  With ``epsilon > 0``
    the sweep stops early once the relative loss improvement of a step
    falls below it.  After each size k it also stops once the bound of
    :func:`loglik_ceiling` plus the penalty of k + 1 exceeds the best value
    of the chosen criterion so far, so the report is the one the sweep to
    ``k_max`` would choose.  ``path.stop`` names the rule that ended it.
    """
    n, p = d.dataset.n, d.dataset.p
    k_max = _checked_k_max(family, n, p, k_max)
    check_epsilon(epsilon)
    chosen = resolve_criterion(criterion, n, p)
    ceiling = loglik_ceiling(family, d, k_max)

    def entry(out):
        return fixed_k_report(family, d, out, "sequential", chosen)

    prev = null_fit(family, d)
    entries = [entry(prev)]
    best = entries[0].criteria[chosen]
    stop = "k_max"
    for k in range(1, k_max + 1):
        out = pdas(family, d, k, init=warm_start_set(prev, k), start=prev.model)
        entries.append(entry(out))
        best = min(best, entries[-1].criteria[chosen])
        if k == k_max:
            break
        if epsilon > 0.0:
            gain = (prev.loss - out.loss) / max(abs(prev.loss), 1e-10)
            if gain < epsilon:
                stop = "epsilon"
                break
        if ceiling is not None:
            # strict, with a margin for the full fit's tolerance: ties go to
            # the smaller k, which is already on the path
            bound = criteria(ceiling, k + 1, n, p)[chosen]
            if bound > best + 1e-9 * max(abs(best), 1.0):
                stop = "certified"
                break
        prev = out

    best_by = {
        name: min(entries, key=lambda e: (e.criteria[name], e.k)).k
        for name in CRITERIA
    }
    path = FitPath(tuple(entries), best_by, stop)
    return path, path.entry_for(best_by[chosen])


@dataclass(frozen=True)
class GoldenSectionTrace:
    """Per-iteration interval log of the elbow search.

    ``pdas_calls`` is the number of solver calls: 2 + 2 x iterations + the
    iterations whose split passed the drop test, which alone probe k_M + 1.
    """

    rows: tuple[tuple[int, int, int, int], ...]  # (iteration, k_left, k_split, k_right)
    terminal_k: int
    reason: str  # elbow | interval-collapse | max-iter
    pdas_calls: int

    def lines(self) -> list[str]:
        return [
            f"{i}-th iteration s.left:{kl} s.split:{km} s.right:{kr}"
            for i, kl, km, kr in self.rows
        ]


def split_point(k_left: int, k_right: int) -> int:
    """Golden-ratio interior point, rounded half-up to an integer."""
    return int(math.floor(k_left + GOLDEN_RATIO * (k_right - k_left) + 0.5))


def golden_section_search(run, k_max: int, eta: float, m_max: int):
    """Drive the elbow search over an abstract solver.

    ``run(k, prev)`` must fit size k, warm started from the previous output
    ``prev`` (or None), and return an object with a ``loss`` attribute.
    Returns ``(output, rows, reason, calls)``; ``calls`` counts the ``run``
    calls made, 2 + 2 x iterations + the iterations whose split passed the
    drop test.  Interval ends are held, not re-solved.

    Sizes 1 and k_max are solved once, up front.  Each iteration solves the
    golden split k_M, warm started from the previous split, then probes
    k_M - 1, and k_M + 1 only if that probe passed: a drop into k_M that is
    large relative to the loss there, followed by a flat step beyond it,
    certifies an elbow.  Otherwise the interval shrinks toward wherever the
    loss still moves, and k_M's output becomes the moved end's; a reset left
    end takes back the size-1 output.  No ``run`` call gets an output at its
    own size as ``prev``.
    """
    k_max = as_size(k_max, "k_max", 3, math.inf)
    check_eta(eta)
    m_max = as_size(m_max, "m_max", 1, math.inf)
    k_left, k_right = 1, k_max
    out_left = first = run(1, None)
    out_right = run(k_max, None)
    out_mid = None
    rows = []
    reason = "max-iter"
    calls = 2
    for m in range(1, m_max + 1):
        # k_right - k_left >= 2 here, so k_left < k_mid < k_right: a new size
        k_mid = split_point(k_left, k_right)
        out_mid = run(k_mid, out_mid)
        rows.append((m, k_left, k_mid, k_right))

        loss_mid = out_mid.loss
        tol = eta * max(abs(loss_mid), LOSS_FLOOR)
        drop_in = abs(loss_mid - run(k_mid - 1, out_mid).loss) > tol
        # k_M + 1 is solved only to confirm a drop: without one there is no elbow
        calls += 2 + drop_in
        if drop_in and abs(loss_mid - run(k_mid + 1, out_mid).loss) < tol / 2.0:
            reason = "elbow"
            break

        gap_left = abs(loss_mid - out_left.loss)
        gap_right = abs(out_right.loss - loss_mid)
        if gap_left > tol > gap_right:
            k_right, out_right = k_mid, out_mid
        elif min(gap_left, gap_right) > tol:
            k_left, out_left = k_mid, out_mid
        else:
            k_right, out_right = k_mid, out_mid
            k_left, out_left = 1, first
        if k_left == k_right - 1:
            reason = "interval-collapse"
            break
    return out_mid, tuple(rows), reason, calls


def gpdas(
    family: ModelFamily,
    d: StandardizedDataset,
    k_max: int | None = None,
    eta: float = 0.01,
):
    """Golden-section elbow search over the subset size.

    Returns ``(report, trace)``: :func:`golden_section_search`, for at most
    ``GSECTION_MAX_ITER`` iterations, over ``pdas`` runs started by
    :func:`~bestsubset.pdas.warm_start_set` (from one ``null_fit`` when a
    run has no earlier output).  Each set is fitted once per dataset while
    the shared memo holds it: ``trace.pdas_calls`` counts calls, not fits.
    """
    k_max = gsection_k_max(family, d.dataset.n, d.dataset.p, k_max)
    null = null_fit(family, d)

    def run(k, prev):
        prev = null if prev is None else prev
        return pdas(family, d, k, init=warm_start_set(prev, k), start=prev.model)

    out, rows, reason, calls = golden_section_search(run, k_max, eta, GSECTION_MAX_ITER)
    trace = GoldenSectionTrace(rows, out.k, reason, calls)
    return fixed_k_report(family, d, out, "gsection", "loss-elbow"), trace

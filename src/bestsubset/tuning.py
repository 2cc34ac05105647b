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
A full fit flagged ``separated`` stops above its infimum 0, so it gives
the bound 0 instead (a monotone cox fit is not flagged).  ``FitPath.stop``
says why the sweep ended.  The golden-section search brackets the `elbow'
of the loss-versus-k curve, reading a flagged size's loss as its infimum
0; interval ends are held, not re-solved
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
:class:`SelectionReport`: the ``CoefficientModel`` its ``pdas`` output
fitted, with the search's own fields added.  Each entry of the sequential
path is one, and ``spdas`` returns the entry it chose, not a copy of it.  Both searches take
``k_max`` from :func:`search_k_max` and run ``pdas`` with its sweep cap.
"""

import math
from dataclasses import dataclass

from .data import StandardizedDataset
from .families import (
    CoefficientModel, ModelFamily, as_size, fit_active, loglik_from_loss, problem, quiet_fit,
)
from .pdas import PdasOutput, null_fit, pdas, warm_start_set

CRITERIA = ("aic", "bic", "ebic")
LOSS_FLOOR = 1e-8
GOLDEN_RATIO = 0.618
GSECTION_MAX_ITER = 100


def criteria(loglik: float, k: int, n: int, p: int) -> dict[str, float]:
    """Information criteria from a log-likelihood and model size, by name.

    deviance = -2 loglik, aic = deviance + 2k, bic = deviance + k log n,
    ebic = bic + 2k log p.  Sizes are checked by ``as_size``: n in [2, inf],
    p in [1, inf] and k in [0, p].
    """
    n, p = as_size(n, "n", 2, math.inf), as_size(p, "p", 1, math.inf)
    k = as_size(k, "k", 0, p)
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
    """Family-specific cap on candidate subset sizes; n and p as in :func:`criteria`."""
    n, p = as_size(n, "n", 2, math.inf), as_size(p, "p", 1, math.inf)
    if family.tag == "gaussian":
        cap = min(n / 2, p)
    else:
        cap = min(n / math.log(n), p)
    return max(1, int(cap))


@dataclass(frozen=True, eq=False, kw_only=True)
class SelectionReport(CoefficientModel):
    """The model fitted at one subset size, with its criteria and diagnostics.

    A report is the ``CoefficientModel`` of its ``pdas`` output, field for
    field (``beta`` is the model's own read-only array), plus the search's
    own fields: ``method`` and ``criterion`` say how the size was chosen,
    ``criteria`` is the dict :func:`criteria` returns at ``k``, and
    ``pdas_iterations`` and ``pdas_converged`` describe the run.  Both the
    selected model and every entry of a :class:`FitPath` are reports.
    """

    family: str
    method: str
    k: int
    loglik: float
    criteria: dict[str, float]
    criterion: str
    pdas_iterations: int
    pdas_converged: bool

    def __post_init__(self):
        """No check and no copy: the model fields come from a checked model.

        So a report altered with ``dataclasses.replace`` keeps what it was
        given, which lets a checker of reports be tested on a corrupt one.
        """


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
    """Selection report for one ``pdas`` output at its own size: its model, field for field."""
    loglik = loglik_from_loss(family, d.dataset.n, out.loss)
    return SelectionReport(
        **vars(out.model), family=family.tag, method=method, k=out.k, loglik=loglik,
        criteria=criteria(loglik, out.k, d.dataset.n, d.dataset.p), criterion=criterion,
        pdas_iterations=out.iterations, pdas_converged=out.converged,
    )


def search_k_max(family: ModelFamily, n: int, p: int, k_max, gsection: bool = False) -> int:
    """``k_max`` of a size search: defaulted, capped, and >= 3 for golden section."""
    given = "got" if k_max is not None else f"the default for n={n}, p={p} is"
    if k_max is None:
        k_max = default_k_max(family, n, p)
    k_max = as_size(k_max, "k_max", 1, family.max_size(n, p))
    if gsection and k_max < 3:
        raise ValueError(f"golden-section search needs k_max >= 3; {given} {k_max}")
    return k_max


def loglik_ceiling(family: ModelFamily, d: StandardizedDataset, k_max: int):
    """An upper bound on the log-likelihood of every fit of up to ``k_max``, or None.

    With ``k_max`` = p the converged fit on all p columns bounds every
    restricted fit, unless it is flagged ``separated``.  That fit is always
    made, through ``families.quiet_fit`` (a memo hit could not say it
    warned), and kept in the memo unless the helper refuses it.  Otherwise
    binomial and cox losses are nonnegative, so the bound is 0, and
    gaussian has none.  The oracle's |eta| test is not used to refuse a
    cox full fit, as it fires on most benchmark cox full fits and would
    drop the bound that ends those sweeps early.
    """
    n, p = d.dataset.n, d.dataset.p
    if k_max == p:
        full = quiet_fit(fit_active, family, d, range(p))
        if full is not None:
            problem(d).add(full)
            if full.solver_converged and not full.separated:
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
    k_max = search_k_max(family, n, p, k_max)
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
    """Per-iteration interval log of the elbow search."""

    rows: tuple[tuple[int, int, int, int], ...]  # (iteration, k_left, k_split, k_right)
    terminal_k: int
    reason: str  # elbow | interval-collapse | max-iter
    pdas_calls: int  # the solver calls the search made

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
    ``prev`` (or None), and return an object with a ``loss`` attribute; one
    whose ``separated`` attribute is true is compared at its infimum 0.
    Returns ``(output, rows, reason, calls)``; ``calls`` counts the ``run``
    calls made.  Interval ends are held, not re-solved.

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
    solved = []  # the size of each ``run`` call, in order

    def solve(k, prev):
        solved.append(k)
        return run(k, prev)

    def level(out):
        return 0.0 if getattr(out, "separated", False) else out.loss

    k_left, k_right = 1, k_max
    out_left = first = solve(1, None)
    out_right = solve(k_max, None)
    out_mid = None
    rows = []
    reason = "max-iter"
    for m in range(1, m_max + 1):
        # k_right - k_left >= 2 here, so k_left < k_mid < k_right: a new size
        k_mid = split_point(k_left, k_right)
        out_mid = solve(k_mid, out_mid)
        rows.append((m, k_left, k_mid, k_right))

        loss_mid = level(out_mid)
        tol = eta * max(abs(loss_mid), LOSS_FLOOR)
        drop_in = abs(loss_mid - level(solve(k_mid - 1, out_mid))) > tol
        # k_M + 1 is solved only to confirm a drop: without one there is no elbow
        if drop_in and abs(loss_mid - level(solve(k_mid + 1, out_mid))) < tol / 2.0:
            reason = "elbow"
            break

        gap_left = abs(loss_mid - level(out_left))
        gap_right = abs(level(out_right) - loss_mid)
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
    return out_mid, tuple(rows), reason, len(solved)


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
    k_max = search_k_max(family, d.dataset.n, d.dataset.p, k_max, gsection=True)
    check_eta(eta)
    null = null_fit(family, d)

    def run(k, prev):
        prev = null if prev is None else prev
        return pdas(family, d, k, init=warm_start_set(prev, k), start=prev.model)

    out, rows, reason, calls = golden_section_search(run, k_max, eta, GSECTION_MAX_ITER)
    trace = GoldenSectionTrace(rows, out.k, reason, calls)
    return fixed_k_report(family, d, out, "gsection", "loss-elbow"), trace

"""Per-family loss, coordinate derivatives, dual variables, and sub-solvers.

Three model families share one interface:

* gaussian -- squared-error loss ``|y - X b|^2 / (2n)``, solved on an active
  set from the Gram matrix, Cholesky-checked for positive definiteness.
* binomial -- logistic negative log-likelihood with a free (unpenalized)
  intercept.
* cox      -- negative partial likelihood over event-time risk sets
  (Breslow handling of ties).

Binomial and cox share one damped Newton-Raphson solver on the active set.
Each linear solve is a small positive-definite system done by
``numpy.linalg`` alone, so importing the package loads no scipy.  The
solver limits are module constants, so a ``ModelFamily`` is its tag alone.

For a coefficient vector ``b`` the coordinate functions are
``g_j = d loss / d b_j`` and ``h_j = d^2 loss / d b_j^2`` with all other
coordinates held fixed.  The dual variable of an inactive coordinate is the
Newton step ``gamma_j = -g_j / h_j`` away from zero, and the sacrifice
``delta_j`` measures how much the local quadratic model of the loss would
grow if that coordinate were forced (back) to zero:

    active j:   gamma_j = 0,            delta_j = h_j * b_j^2 / 2
    inactive j: gamma_j = -g_j / h_j,   delta_j = h_j * gamma_j^2 / 2
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import RESPONSES, StandardizedDataset, Survival, as_set, as_size

# Guards against degenerate numerics; the solvers are otherwise exact.
CURVATURE_FLOOR = 1e-10
IRLS_WEIGHT_FLOOR = 1e-10
LINEAR_PREDICTOR_CLIP = 30.0
RIDGE_JITTER = 1e-8

# Damped Newton (binomial and cox) stopping rule; see _damped_newton.
SOLVER_TOL = 1e-8
MAX_ITER = 100


@dataclass(frozen=True)
class ModelFamily:
    """Loss family tag; ``data.RESPONSES`` maps it to its response type."""

    tag: str

    def __post_init__(self):
        if self.tag not in RESPONSES:
            raise ValueError(f"unknown family {self.tag!r}")

    def max_size(self, n: int, p: int) -> int:
        """Size cap of every fit and search (a gaussian Gram is singular past n)."""
        return min(n, p) if self.tag == "gaussian" else p


@dataclass(frozen=True, eq=False)
class CoefficientModel:
    """A fitted coefficient vector restricted to an active set.

    ``beta`` is always a full p-vector with zeros off the active set, which
    :func:`as_set` keeps as sorted distinct indices in [0, p);
    ``intercept`` is nonzero only for the binomial family.  ``loss`` is the
    family loss at these coefficients as computed by :func:`fit_active`,
    None for a model built by hand.
    """

    beta: np.ndarray
    intercept: float
    active_set: tuple[int, ...]
    solver_converged: bool = True
    solver_iterations: int = 0
    loss: float | None = None

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        beta.setflags(write=False)
        active = as_set(self.active_set, beta.shape[0])
        if np.any(np.delete(beta, active) != 0.0):
            raise ValueError("beta must vanish off the active set")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "active_set", active)


def _check_family(family: ModelFamily, d: StandardizedDataset) -> None:
    if not isinstance(d.dataset.response, RESPONSES[family.tag]):
        raise ValueError(
            f"family {family.tag!r} does not match response type "
            f"{type(d.dataset.response).__name__}"
        )


class Problem:
    """Work done once per (family, standardized dataset), shared by every search.

    ``fits`` maps an active set to ``[model, delta]`` (delta None until a
    ``pdas`` proposal needs it) for the latest n / 2 sets, at most n x p
    floats.  Dropping the oldest changes no selection; a cox fit's last
    digits (<= 1e-12 relative in the loss, the Newton tolerance in beta)
    can depend on which warm start fitted the set first.  ``risk_design``
    is the cox design with rows in risk order and ``zero_loss`` the cox
    loss at beta = 0, the same for every set.
    """

    def __init__(self, d: StandardizedDataset):
        self.fits, self.capacity = {}, d.dataset.n // 2
        resp = d.dataset.response
        self.risk_design = self.zero_loss = None
        if isinstance(resp, Survival):
            self.risk_design = d.dataset.X[resp.order]
            self.zero_loss = _cox_loss(np.zeros(d.dataset.n), resp)

    def add(self, model: CoefficientModel) -> list:
        """The entry of ``model``'s set, made from ``model`` when missing."""
        if model.active_set not in self.fits and len(self.fits) >= self.capacity:
            del self.fits[next(iter(self.fits))]  # the oldest
        return self.fits.setdefault(model.active_set, [model, None])


def problem(family: ModelFamily, d: StandardizedDataset) -> Problem:
    """The :class:`Problem` of ``family`` on ``d``, made on first use."""
    if family.tag not in d._problems:
        d._problems[family.tag] = Problem(d)
    return d._problems[family.tag]


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # clip before exponentiation; e = exp(-|eta|) keeps every exp argument
    # <= 0: the result is 1 / (1 + e) for eta >= 0 and e / (1 + e) below
    eta = np.clip(eta, -LINEAR_PREDICTOR_CLIP, LINEAR_PREDICTOR_CLIP)
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _gaussian_loss(residual: np.ndarray) -> float:
    return float(residual @ residual) / (2.0 * residual.shape[0])


def _binomial_loss(eta: np.ndarray, y: np.ndarray) -> float:
    # log(1 + exp(eta)) via logaddexp to dodge overflow
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def _cox_log_risk(eta_sorted: np.ndarray, risk_end: np.ndarray):
    """log of risk-set sums of exp(eta), shift-stabilized, plus the weights."""
    shift = eta_sorted.max()
    w = np.exp(eta_sorted - shift)
    cw = np.cumsum(w)
    log_risk = shift + np.log(cw[risk_end - 1])
    return log_risk, w, cw


def _cox_loss(eta_sorted: np.ndarray, resp: Survival) -> float:
    log_risk, _, _ = _cox_log_risk(eta_sorted, resp.risk_end)
    return float(np.sum(log_risk[resp.events] - eta_sorted[resp.events]))


def _monotone(eta_sorted: np.ndarray, resp: Survival) -> bool:
    """Whether ``eta_sorted`` certifies a monotone partial likelihood.

    It does when every event's eta is strictly above the running max of the
    rows before it in risk order, which is then every other row of its risk
    set: scaling beta up drives the loss to its infimum 0, so the loss has
    no minimizer.  An event whose time is tied never certifies (the risk set
    then holds a row after it, and two tied events bound the loss above 0).
    O(n).
    """
    ev = np.flatnonzero(resp.events)
    end = resp.risk_end
    before = ev[ev > 0]
    # a tie: the event's risk set reaches past it, or the previous row's reaches it
    if np.any(end[ev] > ev + 1) or np.any(end[before - 1] > before):
        return False
    prior = np.maximum.accumulate(np.concatenate(([-np.inf], eta_sorted[:-1])))
    return bool(np.all(eta_sorted[ev] > prior[ev]))


def _cox_derivatives(Xs: np.ndarray, eta_sorted: np.ndarray, resp: Survival):
    """Score, per-row weights ``u`` and event risk-set means ``xbar``.

    ``Xs`` holds the columns of interest with rows in ``resp.order``.  With
    ``w = exp(eta)`` and ``S0(e)`` the risk-set sum of ``w`` at event e,
    ``xbar_e`` is the w-weighted mean of the rows at risk at e and
    ``u_i = w_i * sum(1 / S0(e))`` over the events whose risk set holds
    row i.  The Hessian of the loss is then ``Xs' diag(u) Xs - xbar' xbar``.
    """
    _, w, cw = _cox_log_risk(eta_sorted, resp.risk_end)
    last = resp.risk_end[resp.events] - 1  # end row of each event's risk set
    denom = cw[last]
    xbar = np.cumsum(w[:, None] * Xs, axis=0)[last] / denom[:, None]
    at_or_after = np.bincount(last, weights=1.0 / denom, minlength=w.shape[0])
    u = w * np.cumsum(at_or_after[::-1])[::-1]
    score = -(Xs[resp.events] - xbar).sum(axis=0)
    return score, u, xbar


def loss(family: ModelFamily, d: StandardizedDataset, m: CoefficientModel) -> float:
    """Family loss at the given coefficients.

    gaussian: |y - X b|^2 / (2n); binomial: negative log-likelihood with
    intercept; cox: negative partial likelihood summed over events.
    """
    _check_family(family, d)
    X = d.dataset.X
    resp = d.dataset.response
    if family.tag == "gaussian":
        return _gaussian_loss(resp.y - X @ m.beta)
    if family.tag == "binomial":
        return _binomial_loss(m.intercept + X @ m.beta, resp.y)
    return _cox_loss((X @ m.beta)[resp.order], resp)


def _active_predictor(X: np.ndarray, m: CoefficientModel) -> np.ndarray:
    """``X @ m.beta`` from the active columns only (beta is zero elsewhere)."""
    active = list(m.active_set)
    return X[:, active] @ m.beta[active]


def grad_hess(family: ModelFamily, d: StandardizedDataset, m: CoefficientModel):
    """Coordinate gradient g_j and curvature h_j for every j at once.

    These are the per-coordinate first and second derivatives of the loss
    with all other coordinates (and the binomial intercept) held fixed.
    The linear predictor is formed from the active columns, so the gaussian
    case reads the full design once, for ``X' e``.
    """
    _check_family(family, d)
    X = d.dataset.X
    n = d.dataset.n
    if family.tag == "gaussian":
        e = d.dataset.response.y - _active_predictor(X, m)
        g = -(X.T @ e) / n
        return g, np.ones(d.dataset.p)
    if family.tag == "binomial":
        eta = m.intercept + _active_predictor(X, m)
        prob = _sigmoid(eta)
        y = d.dataset.response.y
        g = X.T @ (prob - y)
        h = (X**2).T @ (prob * (1.0 - prob))
        return g, h
    resp = d.dataset.response
    Xs = problem(family, d).risk_design
    g, u, xbar = _cox_derivatives(Xs, _active_predictor(X, m)[resp.order], resp)
    h = u @ Xs**2 - (xbar**2).sum(axis=0)
    # exact h is nonnegative; clear roundoff dust
    np.maximum(h, 0.0, out=h)
    return g, h


def dual_sacrifice(family: ModelFamily, d: StandardizedDataset, m: CoefficientModel):
    """Dual variables and sacrifices at an active-set minimizer.

    Active coordinates have zero dual and sacrifice h_j b_j^2 / 2; inactive
    coordinates get the Newton step gamma_j = -g_j / h_j from zero and
    sacrifice h_j gamma_j^2 / 2.  Curvature is floored before the division
    so that flat coordinates cannot produce infinities.
    """
    g, h = grad_hess(family, d, m)
    active = np.zeros(d.dataset.p, dtype=bool)
    active[list(m.active_set)] = True
    h_safe = np.maximum(h, CURVATURE_FLOOR)
    gamma = np.where(active, 0.0, -g / h_safe)
    delta = np.where(active, 0.5 * h * m.beta**2, 0.5 * h_safe * gamma**2)
    return gamma, delta


def _solve_spd(A: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """SPD solve with a ridge fallback for (numerically) singular systems.

    ``np.linalg.cholesky`` tests positive definiteness and
    ``np.linalg.solve`` returns the solution.  A factor whose pivot ratio
    collapses signals rank deficiency even when the factorization itself
    squeaks through, so both cases take the ridge path with a
    ``RuntimeWarning``.  Non-finite input raises ``ValueError``.
    """
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValueError(f"non-finite entries in {context} system")
    try:
        pivots = np.abs(np.diagonal(np.linalg.cholesky(A)))
        if pivots.min() > 1e-7 * max(pivots.max(), 1e-300):
            return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        pass
    k = A.shape[0]
    ridge = RIDGE_JITTER * max(np.trace(A), 1.0) / max(k, 1)
    warnings.warn(
        f"singular {context} system; adding ridge {ridge:.3e}", RuntimeWarning
    )
    return np.linalg.solve(A + ridge * np.eye(k), rhs)


def _damped_newton(objective, derivatives, coef: np.ndarray):
    """Minimize ``objective`` from ``coef`` by damped Newton-Raphson.

    ``objective(coef)`` returns the value and the linear predictor it was
    computed from; ``derivatives(predictor)`` returns the score and Hessian
    at the same coefficients, so an accepted step is not recomputed.  Each
    step is halved until the objective stops increasing; the iteration
    stops once the score or the step taken falls below ``SOLVER_TOL``, or
    after ``MAX_ITER`` iterations.
    Returns ``(coef, objective at coef, converged, iterations)``.
    """
    current, eta = objective(coef)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        score, hessian = derivatives(eta)
        if np.max(np.abs(score)) < SOLVER_TOL:
            converged = True
            break
        step = _solve_spd(hessian, score, "Newton")
        scale = 1.0
        for _ in range(40):
            trial = coef - scale * step
            value, trial_eta = objective(trial)
            if value <= current + 1e-12:
                break
            scale *= 0.5
        coef, current, eta = trial, value, trial_eta
        if np.max(np.abs(scale * step)) < SOLVER_TOL:
            converged = True
            break
    return coef, current, converged, iterations


def quiet_fit(fn, *args):
    """``fn(*args)``, or None if it raised ``ValueError`` or warned.

    The rule for every fit no report comes from (``loglik_ceiling``'s full
    fit, the oracle's bound fits, a cox warm run): it is used only if it
    raised nothing (a non-finite Newton system) and warned of nothing (the
    ridge fallback).  Every warning is caught, so none escapes.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except ValueError:
            return None
    return None if caught else result


def _model(d, active, coef, intercept, converged, iterations, value):
    beta = np.zeros(d.dataset.p)
    beta[list(active)] = coef
    return CoefficientModel(beta, intercept, active, converged, iterations, value)


def _fit_gaussian(d, active):
    XA = d.dataset.X[:, list(active)]
    y = d.dataset.response.y
    coef = np.zeros(len(active))
    if active:
        coef = _solve_spd(XA.T @ XA, XA.T @ y, "least-squares")
    return _model(d, active, coef, 0.0, True, 1, _gaussian_loss(y - XA @ coef))


def _fit_binomial(d, active):
    y = d.dataset.response.y
    Z = np.column_stack([np.ones(d.dataset.n), d.dataset.X[:, list(active)]])

    def objective(c):
        eta = Z @ c
        return _binomial_loss(eta, y), eta

    def derivatives(eta):
        prob = _sigmoid(eta)
        w = np.maximum(prob * (1.0 - prob), IRLS_WEIGHT_FLOOR)
        return Z.T @ (prob - y), Z.T @ (Z * w[:, None])

    coef, value, converged, iterations = _damped_newton(
        objective, derivatives, np.zeros(Z.shape[1])
    )
    return _model(d, active, coef[1:], float(coef[0]), converged, iterations, value)


def _fit_cox(d, active, context, start):
    if not active:
        return _model(d, active, (), 0.0, True, 0, context.zero_loss)
    resp = d.dataset.response
    XA = context.risk_design.take(list(active), axis=1)  # C order, the bits of a row gather

    def objective(c):
        eta = XA @ c
        return _cox_loss(eta, resp), eta

    def derivatives(eta):
        score, u, xbar = _cox_derivatives(XA, eta, resp)
        return score, XA.T @ (XA * u[:, None]) - xbar.T @ xbar

    if start is not None and start.solver_converged:
        coef = start.beta[list(active)]
        value, eta = objective(coef)
        if np.any(coef) and value <= context.zero_loss and not _monotone(eta, resp):
            warm = quiet_fit(_damped_newton, objective, derivatives, coef)
            if warm is not None and warm[2] and not _monotone(XA @ warm[0], resp):
                coef, value, _, iterations = warm
                return _model(d, active, coef, 0.0, True, iterations, value)
    coef, value, converged, iterations = _damped_newton(
        objective, derivatives, np.zeros(len(active))
    )
    return _model(d, active, coef, 0.0, converged, iterations, value)


def fit_active(
    family: ModelFamily, d: StandardizedDataset, active_set, start=None
) -> CoefficientModel:
    """Minimize the family loss with all coordinates off ``active_set`` at zero.

    The returned model carries the loss it reached.  Hitting an iteration
    cap yields a result flagged non-converged rather than an error, so
    callers inside the active-set iteration can proceed.

    ``start``, an earlier model, warm starts a cox fit from its coefficients
    on ``active_set`` (a start that is zero there is the cold start).  The
    start is used only if it converged, its loss on the set is at most the
    loss at zero, and its eta certifies no monotone likelihood
    (:func:`_monotone`); the warm result is kept only if :func:`quiet_fit`
    accepts it, it converged, and it certifies none either.  Otherwise the
    set is fitted from zero, with the cold fit's bits and warnings.  A kept
    warm fit moves the loss only in its last digits (<= 1e-12 relative)
    and beta within the Newton tolerance; on collinear columns, where the
    minimizer is not unique, it can reach another minimizer of equal loss.
    Gaussian fits do not iterate.  Binomial ignores ``start``: a separated
    fit ends wherever its iteration stops, so it depends on the start, and
    no separation certificate guards it yet.
    """
    _check_family(family, d)
    active = as_set(active_set, d.dataset.p)
    as_size(len(active), "active set size", 0, family.max_size(d.dataset.n, d.dataset.p))
    if family.tag == "gaussian":
        return _fit_gaussian(d, active)
    if family.tag == "binomial":
        return _fit_binomial(d, active)
    return _fit_cox(d, active, problem(family, d), start)


def predict(
    family: ModelFamily,
    m: CoefficientModel,
    Xnew: np.ndarray,
    meta: StandardizedDataset,
) -> np.ndarray:
    """Predict on original-scale rows: fitted values, probabilities, or risks."""
    Xnew = np.asarray(Xnew, dtype=float)
    if Xnew.ndim != 2 or Xnew.shape[1] != meta.dataset.p:
        raise ValueError(
            f"Xnew must have {meta.dataset.p} columns, got {Xnew.shape}"
        )
    Xs = (Xnew - meta.column_centers) / meta.column_scales
    eta = Xs @ m.beta
    if family.tag == "gaussian":
        return meta.response_center + eta
    if family.tag == "binomial":
        return _sigmoid(m.intercept + eta)
    return np.exp(eta)


def log_likelihood(
    family: ModelFamily, d: StandardizedDataset, m: CoefficientModel
) -> float:
    """Log-likelihood used by the information criteria."""
    return loglik_from_loss(family, d.dataset.n, loss(family, d, m))


def loglik_from_loss(family: ModelFamily, n: int, value: float) -> float:
    """Log-likelihood from a family loss value on n observations.

    The gaussian value is the profile log-likelihood without its additive
    constant, -(n/2) log(RSS/n); binomial and cox return the (partial)
    log-likelihood, i.e. the negated loss.
    """
    if family.tag == "gaussian":
        rss = 2.0 * n * value
        return -0.5 * n * math.log(max(rss, 1e-300) / n)
    return -value

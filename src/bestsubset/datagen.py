"""Synthetic data with a moving-average correlated design and planted support.

Design columns are built as Z_j + rho * (Z_{j-1} + Z_{j+1}) from i.i.d.
standard normal columns Z (boundary terms zero), then rescaled to sqrt(n)
norm, so adjacent predictors are positively correlated.  Coefficients have q
nonzero entries with magnitudes drawn uniformly from [b, B], 0 < b <= B < inf.
"""

# the ``np.random.Generator`` annotations stay strings, so importing the
# package does not load ``numpy.random``
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FAMILIES, Binary, Continuous, Dataset, Survival, as_size, column_norms


@dataclass(frozen=True, eq=False)
class GenConfig:
    """Scenario parameters for one synthetic dataset."""

    n: int
    p: int
    q: int
    family: str = "gaussian"
    rho: float = 0.5
    sigma: float = 1.0
    b: float | None = None
    B: float | None = None
    censor_rate: float = 0.0  # cox only
    signs: str = "random"  # random | positive
    beta: tuple[float, ...] | None = None  # explicit coefficient override
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        as_size(self.n, "n", 2, math.inf)
        as_size(self.p, "p", 1, math.inf)
        as_size(self.q, "q", 0, self.p)
        as_size(self.seed, "seed", 0, math.inf)
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        if not 0.0 <= self.censor_rate < 1.0:
            raise ValueError("censor_rate must be in [0, 1)")
        if self.censor_rate > 0.0 and self.family != "cox":
            raise ValueError("censor_rate applies only to the cox family")
        if self.signs not in ("random", "positive"):
            raise ValueError("signs must be 'random' or 'positive'")
        if self.beta is not None:
            beta = tuple(float(v) for v in self.beta)
            if len(beta) != self.p:
                raise ValueError("explicit beta must have length p")
            bad = [v for v in beta if not math.isfinite(v)]
            if bad:
                raise ValueError(f"explicit beta must be finite, got {bad[0]}")
            nonzero = sum(v != 0.0 for v in beta)
            if nonzero != self.q:
                raise ValueError(f"q={self.q} but explicit beta has {nonzero} nonzeros")
            object.__setattr__(self, "beta", beta)
        elif self.q > 0:
            b, B = self.magnitude_range()
            if not 0 < b <= B < math.inf:
                raise ValueError(f"magnitudes need 0 < b <= B < inf, got b={b}, B={B}")

    def magnitude_range(self) -> tuple[float, float]:
        """``(b, B)`` with the defaults filled in; checked only when drawing.

        Defaults: b = 5 sigma sqrt(2 log p / n) for gaussian, else
        10 sqrt(2 log p / n); B = 100 b for gaussian, else 5 b.
        """
        gaussian = self.family == "gaussian"
        b = self.b
        if b is None:
            base = math.sqrt(2.0 * math.log(self.p) / self.n)
            b = (5.0 * self.sigma if gaussian else 10.0) * base
        B = self.B if self.B is not None else (100.0 if gaussian else 5.0) * b
        return b, B


def gen_design(n: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Correlated design with every column rescaled to exact sqrt(n) norm.

    Only Z and X are held: the neighbour terms are added in 512-column
    blocks, Z is dropped before the norms, and X is scaled in place and
    returned read-only, so a ``Dataset`` takes it over.  A column whose sum
    of squares overflows still gets sqrt(n) norm (``data.column_norms``);
    a ``rho`` so large that a norm itself overflows is refused.
    """
    Z = rng.standard_normal((n, p))
    X = Z.copy()
    for lo in range(0, p, 512):
        hi = min(lo + 512, p)
        X[:, lo : min(hi, p - 1)] += rho * Z[:, lo + 1 : hi + 1]
        X[:, max(lo, 1) : hi] += rho * Z[:, max(lo, 1) - 1 : hi - 1]
    del Z
    norms = column_norms(X)
    if not np.all(np.isfinite(norms)):
        raise ValueError(f"rho={rho} is too large: a column norm overflows")
    X *= math.sqrt(n) / norms
    X.setflags(write=False)
    return X


def gen_beta(config: GenConfig, rng: np.random.Generator) -> np.ndarray:
    """The explicit ``config.beta``, else q nonzeros of magnitude Uniform[b, B]."""
    if config.beta is not None:
        return np.array(config.beta, dtype=float)
    p, q = config.p, config.q
    beta = np.zeros(p)
    if q == 0:
        return beta
    support = rng.choice(p, size=q, replace=False)
    magnitudes = rng.uniform(*config.magnitude_range(), size=q)
    if config.signs == "random":
        magnitudes = magnitudes * rng.choice((-1.0, 1.0), size=q)
    beta[support] = magnitudes
    return beta


def _censoring_horizon(rates: np.ndarray, target: float) -> float:
    """Horizon tau with P(Uniform(0, tau) < Exp(rate)) averaging to target."""

    def censored_fraction(tau):
        lt = rates * tau
        return float(np.mean(-np.expm1(-lt) / lt)) - target

    lo, hi = 1e-12, 1.0
    while censored_fraction(hi) > 0.0:
        if hi > 1e12:
            raise ValueError(f"censoring rate {target} is out of reach")
        hi *= 10.0
    # the fraction falls as tau grows: bisect until the midpoint is an endpoint
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if censored_fraction(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def gen_response(
    config: GenConfig, X: np.ndarray, beta_star: np.ndarray, rng: np.random.Generator
):
    """Draw ``config.family``'s response for the given design and true coefficients."""
    eta = X @ beta_star
    n = X.shape[0]
    if config.family == "gaussian":
        return Continuous(eta + config.sigma * rng.standard_normal(n))
    if config.family == "binomial":
        prob = 1.0 / (1.0 + np.exp(-np.clip(eta, -30, 30)))
        return Binary((rng.uniform(size=n) < prob).astype(float))
    rates = np.exp(np.clip(eta, -30, 30))
    times = -np.log(rng.uniform(size=n)) / rates
    status = np.ones(n)
    if config.censor_rate > 0.0:
        tau = _censoring_horizon(rates, config.censor_rate)
        censor = rng.uniform(0.0, tau, size=n)
        status = (times <= censor).astype(float)
        times = np.minimum(times, censor)
        if not np.any(status == 1.0):
            # pathological draw: keep the dataset valid by making the
            # longest observed time an event
            status[int(np.argmax(times))] = 1.0
    return Survival(times, status)


def gen_dataset(config: GenConfig):
    """Generate a full dataset plus the planted truth.

    Returns ``(dataset, beta_star, support)``; all randomness flows from
    ``config.seed`` so identical configs give bit-identical output.
    """
    rng = np.random.default_rng(config.seed)
    X = gen_design(config.n, config.p, config.rho, rng)
    beta_star = gen_beta(config, rng)
    response = gen_response(config, X, beta_star, rng)
    support = tuple(int(j) for j in np.flatnonzero(beta_star))
    return Dataset(X, response), beta_star, support

import numpy as np
import pytest

from bestsubset import bench
from bestsubset.data import Binary, Continuous, Dataset, Survival, standardize


def random_standardized(family, n, p, seed, beta=None, censor_rate=0.0):
    """A generic standardized instance for property tests.

    Draws an arbitrary (non-pathological) design plus a response consistent
    with the family; when ``beta`` is given the response carries that
    signal.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, size=p)
    X += rng.uniform(-1.0, 1.0, size=p)
    if beta is None:
        beta = np.zeros(p)
    eta = X @ beta
    if family == "gaussian":
        resp = Continuous(eta + rng.standard_normal(n))
    elif family == "binomial":
        prob = 1.0 / (1.0 + np.exp(-np.clip(eta + rng.standard_normal(n), -30, 30)))
        y = (rng.uniform(size=n) < prob).astype(float)
        # avoid degenerate all-0 / all-1 responses in tiny draws
        if y.sum() == 0:
            y[0] = 1.0
        elif y.sum() == n:
            y[0] = 0.0
        resp = Binary(y)
    elif family == "cox":
        rates = np.exp(np.clip(eta, -20, 20))
        times = -np.log(rng.uniform(size=n)) / rates
        status = np.ones(n)
        if censor_rate > 0:
            status = (rng.uniform(size=n) > censor_rate).astype(float)
            if status.sum() == 0:
                status[0] = 1.0
        resp = Survival(times, status)
    else:
        raise ValueError(family)
    return standardize(Dataset(X, resp))


def random_subset(p, k, rng):
    """A uniformly random size-k subset of {0..p-1}, usable as a pdas init."""
    return tuple(sorted(int(j) for j in rng.choice(p, size=k, replace=False)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def search_calls(monkeypatch):
    """Names of the ``spdas``/``gpdas`` calls ``bench`` makes, in order."""
    calls = []

    def counting(search):
        def wrapped(*args, **kwargs):
            calls.append(search.__name__)
            return search(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(bench, "spdas", counting(bench.spdas))
    monkeypatch.setattr(bench, "gpdas", counting(bench.gpdas))
    return calls

import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import bestsubset
from bestsubset.data import Binary, Survival
from bestsubset.datagen import (
    GenConfig,
    _censoring_horizon,
    gen_beta,
    gen_dataset,
    gen_design,
    gen_response,
)


class TestGenDesign:
    def test_columns_have_exact_sqrt_n_norm(self, rng):
        X = gen_design(37, 9, 0.5, rng)
        np.testing.assert_allclose(
            np.linalg.norm(X, axis=0), math.sqrt(37), rtol=1e-12
        )

    def test_independent_columns_when_rho_zero(self, rng):
        X = gen_design(4000, 8, 0.0, rng)
        corr = np.corrcoef(X, rowvar=False)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.abs(off).mean() < 3 / math.sqrt(4000)

    def test_neighbor_correlation_matches_moving_average(self, rng):
        # with weight r the construction gives corr(j, j+1) = 2r / (1 + 2r^2)
        # and corr(j, j+2) = r^2 / (1 + 2r^2) for interior columns
        n, p, r = 20000, 12, 0.5
        X = gen_design(n, p, r, rng)
        corr = np.corrcoef(X, rowvar=False)
        adj = np.array([corr[j, j + 1] for j in range(1, p - 2)])
        second = np.array([corr[j, j + 2] for j in range(1, p - 3)])
        expected_adj = 2 * r / (1 + 2 * r**2)
        expected_second = r**2 / (1 + 2 * r**2)
        assert expected_adj > 0.5
        np.testing.assert_allclose(adj.mean(), expected_adj, atol=0.03)
        np.testing.assert_allclose(second.mean(), expected_second, atol=0.03)
        assert 0 < second.mean() < adj.mean()


    def test_columns_whose_sums_of_squares_overflow(self, rng):
        # at rho 1e200 every column's squares overflow; the design used to
        # come back all zeros, with only numpy's overflow warning
        with np.errstate(all="raise"):  # any escaping warning raises
            X = gen_design(6, 3, 1e200, rng)
        np.testing.assert_allclose(np.linalg.norm(X, axis=0), math.sqrt(6), rtol=1e-12)
        assert not X.flags.writeable  # so a Dataset takes it over

    def test_rho_whose_column_norms_overflow_refused(self, rng):
        # at n 500 a column of about 1.4e307 has norm past the float range
        with np.errstate(all="raise"), pytest.raises(ValueError, match="rho=1e[+]307 is too large"):
            gen_design(500, 3, 1e307, rng)


class TestGenBeta:
    def test_zero_support(self, rng):
        cfg = GenConfig(n=10, p=10, q=0, b=1.0, B=2.0)
        np.testing.assert_array_equal(gen_beta(cfg, rng), 0.0)

    def test_magnitudes_within_range(self, rng):
        cfg = GenConfig(n=10, p=30, q=7, b=0.5, B=2.5)
        for _ in range(10):
            beta = gen_beta(cfg, rng)
            nz = beta[beta != 0]
            assert len(nz) == 7
            assert np.all((np.abs(nz) >= 0.5) & (np.abs(nz) <= 2.5))

    def test_positive_signs(self, rng):
        beta = gen_beta(GenConfig(n=10, p=20, q=6, b=1.0, B=2.0, signs="positive"), rng)
        assert np.all(beta[beta != 0] > 0)

    def test_random_signs_mix(self):
        rng = np.random.default_rng(3)
        beta = gen_beta(GenConfig(n=10, p=400, q=200, b=1.0, B=2.0), rng)
        nz = beta[beta != 0]
        assert (nz > 0).any() and (nz < 0).any()


class TestGenResponse:
    def test_gaussian_noise_free(self, rng):
        cfg = GenConfig(n=10, p=3, q=1, family="gaussian", sigma=1.0, seed=0)
        X = rng.standard_normal((10, 3))
        beta = np.array([1.0, -2.0, 0.0])
        cfg_zero = GenConfig(n=10, p=3, q=1, family="gaussian", sigma=1e-300, seed=0)
        resp = gen_response(cfg_zero, X, beta, rng)
        np.testing.assert_allclose(resp.y, X @ beta, atol=1e-290)

    def test_binomial_null_is_fair_coin(self, rng):
        n = 4000
        cfg = GenConfig(n=n, p=2, q=0, family="binomial", seed=0)
        X = rng.standard_normal((n, 2))
        resp = gen_response(cfg, X, np.zeros(2), rng)
        assert isinstance(resp, Binary)
        assert abs(resp.y.mean() - 0.5) < 4 / math.sqrt(n)

    def test_cox_null_uncensored_is_unit_exponential(self, rng):
        n = 4000
        cfg = GenConfig(n=n, p=2, q=0, family="cox", censor_rate=0.0, seed=0)
        X = rng.standard_normal((n, 2))
        resp = gen_response(cfg, X, np.zeros(2), rng)
        assert isinstance(resp, Survival)
        assert np.all(resp.status == 1.0)
        assert abs(resp.time.mean() - 1.0) < 4 / math.sqrt(n)

    def test_censor_rate_hit_in_expectation(self, rng):
        n = 6000
        target = 0.3
        cfg = GenConfig(n=n, p=2, q=0, family="cox", censor_rate=target, seed=0)
        X = rng.standard_normal((n, 2))
        beta = np.array([0.5, -0.5])
        resp = gen_response(cfg, X, beta, rng)
        censored = 1.0 - resp.status.mean()
        assert abs(censored - target) < 0.03


class TestGenDataset:
    def test_explicit_beta_returned_verbatim(self):
        target = (3.0, 1.5, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0, -1.0, 0.0)
        cfg = GenConfig(n=40, p=10, q=4, beta=target, seed=5)
        dataset, beta, support = gen_dataset(cfg)
        assert beta.tolist() == list(target) and support == (0, 1, 4, 8)
        # nothing is drawn for beta: the response follows the design directly
        rng = np.random.default_rng(5)
        X = gen_design(40, 10, cfg.rho, rng)
        y = gen_response(cfg, X, np.array(target), rng).y
        np.testing.assert_array_equal(dataset.X, X)
        np.testing.assert_array_equal(dataset.response.y, y)


    def test_peak_memory_is_two_designs(self):
        # Z and X, plus one 512-column block of rho * Z; the Dataset keeps X
        n, p = 200, 5000
        tracemalloc.start()
        try:
            d, _, _ = gen_dataset(GenConfig(n=n, p=p, q=5, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.X.shape == (n, p)
        assert peak <= 2.2 * 8 * n * p


class TestDeterminism:
    def test_same_config_bit_identical(self):
        cfg = GenConfig(
            n=50, p=8, q=3, family="cox", rho=0.3, censor_rate=0.25, seed=77
        )
        d1, b1, s1 = gen_dataset(cfg)
        d2, b2, s2 = gen_dataset(cfg)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.response.time, d2.response.time)
        np.testing.assert_array_equal(d1.response.status, d2.response.status)
        np.testing.assert_array_equal(b1, b2)
        assert s1 == s2

    def test_different_seed_differs(self):
        base = dict(n=50, p=8, q=3, family="gaussian")
        d1, _, _ = gen_dataset(GenConfig(seed=1, **base))
        d2, _, _ = gen_dataset(GenConfig(seed=2, **base))
        assert not np.array_equal(d1.X, d2.X)


class TestDefaults:
    def test_benchmark_magnitudes(self):
        base = math.sqrt(2 * math.log(100) / 500)
        for family, sigma, cap in (("gaussian", 2.0, 100.0), ("binomial", 1.0, 5.0)):
            b, B = GenConfig(n=500, p=100, q=1, family=family, sigma=sigma).magnitude_range()
            assert b == pytest.approx(10.0 * base) and B == pytest.approx(cap * b)
        assert GenConfig(n=500, p=100, q=1, b=0.5).magnitude_range() == (0.5, 50.0)
        assert GenConfig(n=500, p=100, q=1, family="cox", b=0.5).magnitude_range() == (0.5, 2.5)

    @pytest.mark.parametrize("q", [2.0, True, 2.5, np.float64(2.0), -1, 6])
    def test_q_checked_by_the_size_rule(self, q):
        want = f"q must be in [0, 5], got {q!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            GenConfig(n=30, p=5, q=q)

    def test_numpy_integer_q_accepted(self):
        _, _, support = gen_dataset(GenConfig(n=30, p=5, q=np.int64(2), seed=1))
        assert support == gen_dataset(GenConfig(n=30, p=5, q=2, seed=1))[2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n=10, p=4, q=5)
        with pytest.raises(ValueError):
            GenConfig(n=10, p=4, q=2, censor_rate=1.0)
        with pytest.raises(ValueError):
            GenConfig(n=10, p=4, q=2, b=3.0, B=1.0).magnitude_range()
        with pytest.raises(ValueError):
            GenConfig(n=10, p=4, q=2, beta=(1.0, 2.0))
        for family in ("gaussian", "binomial"):
            with pytest.raises(ValueError, match="only to the cox family"):
                GenConfig(n=10, p=4, q=2, family=family, censor_rate=0.5)


class TestDrawnMagnitudes:
    @pytest.mark.parametrize(
        "kwargs",
        [
            # b < 0 planted wrong-signed coefficients under signs="positive"
            dict(n=50, p=10, q=3, b=-2.0, B=1.0, signs="positive", seed=1),
            # log p = 0 made the defaults b = B = 0 and planted beta = [-0.]
            dict(n=20, p=1, q=1, seed=0),
            dict(n=50, p=10, q=3, b=0.0, B=1.0),
            dict(n=50, p=10, q=3, b=2.0, B=1.0),
            dict(n=50, p=10, q=3, b=float("nan"), B=1.0),
            # an infinite B made rng.uniform raise OverflowError
            dict(n=50, p=10, q=3, b=1.0, B=float("inf")),
        ],
    )
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="b <= B"):
            GenConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [dict(q=0), dict(q=1, beta=(1.0, 0.0, 0.0))], ids=["q-0", "beta"]
    )
    def test_b_above_B_accepted_when_nothing_is_drawn(self, kwargs):
        cfg = GenConfig(n=20, p=3, b=2.0, B=1.0, seed=0, **kwargs)
        assert cfg.magnitude_range() == (2.0, 1.0)
        _, beta, _ = gen_dataset(cfg)
        assert beta.tolist() == list(kwargs.get("beta", (0.0, 0.0, 0.0)))

    def test_unchecked_when_nothing_is_drawn(self):
        assert gen_dataset(GenConfig(n=20, p=1, q=0, seed=0))[2] == ()
        cfg = GenConfig(n=20, p=3, q=1, b=-1.0, B=1.0, beta=(0.0, 2.0, 0.0))
        _, beta, support = gen_dataset(cfg)
        assert support == (1,) and beta.tolist() == [0.0, 2.0, 0.0]


class TestFiniteScales:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(sigma=float("nan")), "sigma must be positive and finite, got nan"),
            (dict(sigma=float("inf")), "sigma must be positive and finite, got inf"),
            (dict(sigma=0.0), "sigma must be positive and finite, got 0.0"),
            (dict(sigma=-1.0), "sigma must be positive and finite, got -1.0"),
            (dict(rho=float("nan")), "rho must be finite, got nan"),
            (dict(rho=float("inf")), "rho must be finite, got inf"),
            (dict(rho=float("-inf")), "rho must be finite, got -inf"),
        ],
    )
    def test_rejected_at_construction(self, kwargs, message):
        for family in ("gaussian", "binomial"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                GenConfig(n=30, p=5, q=2, family=family, **kwargs)


class TestCensoringHorizon:
    @pytest.mark.parametrize("target", [0.05, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_root_matches_brentq(self, target, seed):
        from scipy.optimize import brentq

        rng = np.random.default_rng(seed)
        rates = np.exp(np.clip(rng.standard_normal(500) * 1.5, -30, 30))

        def censored_fraction(tau):
            lt = rates * tau
            return float(np.mean(-np.expm1(-lt) / lt)) - target

        hi = 1.0
        while censored_fraction(hi) > 0.0:
            hi *= 10.0
        tau = _censoring_horizon(rates, target)
        ref = brentq(censored_fraction, 1e-12, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert tau == pytest.approx(ref, rel=1e-12)
        assert censored_fraction(tau) == pytest.approx(0.0, abs=1e-12)

    def test_censored_fraction_hits_target(self):
        cfg = GenConfig(n=20000, p=2, q=2, family="cox", censor_rate=0.2, b=0.5, B=1.0, seed=5)
        data, _, _ = gen_dataset(cfg)
        assert abs((1.0 - data.response.status.mean()) - 0.2) < 0.015

    def test_unreachable_rate_rejected(self):
        with pytest.raises(ValueError):
            _censoring_horizon(np.full(4, 1e-30), 0.99)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GenConfig(n=1, p=2, q=1), "n must be in [2, inf], got 1"),
        # a float size used to pass and then fail inside numpy
        (lambda: GenConfig(n=40.0, p=5, q=1), "n must be in [2, inf], got 40.0"),
        (lambda: GenConfig(n=10, p=0, q=0), "p must be in [1, inf], got 0"),
        (lambda: GenConfig(n=10, p=2, q=1, signs="mixed"), "signs must be 'random' or 'positive'"),
        (lambda: GenConfig(n=3, p=3, q=0, family="poisson"), "unknown family 'poisson'"),
        (lambda: GenConfig(n=10, p=4, q=1, beta=(1.0, 0.0, -2.0, 0.0)),
         "q=1 but explicit beta has 2 nonzeros"),
        (lambda: GenConfig(n=10, p=2, q=2, family="binomial", beta=(math.nan, 1.0)),
         "explicit beta must be finite, got nan"),
        (lambda: GenConfig(n=10, p=2, q=2, family="cox", beta=(1.0, -math.inf)),
         "explicit beta must be finite, got -inf"),
        # unchecked, numpy refuses -1 without naming the field, fails on 1.5
        # inside the draw and draws True as seed 1
        (lambda: GenConfig(n=10, p=3, q=1, seed=-1), "seed must be in [0, inf], got -1"),
        (lambda: GenConfig(n=10, p=3, q=1, seed=1.5), "seed must be in [0, inf], got 1.5"),
        (lambda: GenConfig(n=10, p=3, q=1, seed=True), "seed must be in [0, inf], got True"),
    ],
    ids=["config-n", "config-n-float", "config-p", "config-signs", "gen-response-family",
         "config-q-beta", "config-beta-nan", "config-beta-inf", "config-seed-negative",
         "config-seed-float", "config-seed-bool"],
)
def test_input_check_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def _loaded_after_cli_import(package):
    """``package`` and its submodules loaded by a fresh ``import bestsubset.cli``."""
    # a fresh interpreter that imports this same copy of the package
    src = os.path.dirname(os.path.dirname(bestsubset.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, bestsubset, bestsubset.cli; "
        f"print(sorted(k for k in sys.modules if k == {package!r} "
        f"or k.startswith({package + '.'!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_optimize_out():
    assert _loaded_after_cli_import("scipy") == "[]"


def test_cli_import_leaves_numpy_random_out():
    # most CLI runs draw no random number; the generator loads it on first use
    assert _loaded_after_cli_import("numpy.random") == "[]"


@pytest.mark.parametrize("package", ["concurrent.futures", "multiprocessing"])
def test_cli_import_leaves_process_pools_out(package):
    # bench imports its process pool only when jobs > 1
    assert _loaded_after_cli_import(package) == "[]"

import gc
import hashlib
import math
import re
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from bestsubset import families
from bestsubset.bench import BenchScenario, run_replication
from bestsubset.data import Binary, Continuous, Dataset, Survival, standardize
from bestsubset.datagen import GenConfig, gen_dataset
from bestsubset.families import (
    LINEAR_PREDICTOR_CLIP,
    RIDGE_JITTER,
    CoefficientModel,
    ModelFamily,
    _cox_derivatives,
    _sigmoid,
    _solve_spd,
    dual_sacrifice,
    fit_active,
    grad_hess,
    log_likelihood,
    loglik_from_loss,
    loss,
    predict,
    quiet_fit,
)
from bestsubset.oracle import exhaustive_best_subset
from bestsubset.pdas import null_fit, pdas
from bestsubset.tuning import criteria, default_k_max, gpdas, spdas
from conftest import random_standardized, replication_draw

GAUSSIAN = ModelFamily("gaussian")
BINOMIAL = ModelFamily("binomial")
COX = ModelFamily("cox")
FAMILY = {"gaussian": GAUSSIAN, "binomial": BINOMIAL, "cox": COX}


def dense_model(beta, intercept=0.0):
    """Coefficient model over the full index set (for derivative checks)."""
    beta = np.asarray(beta, dtype=float)
    return CoefficientModel(beta, intercept, tuple(range(beta.shape[0])))


def coordinate_loss(family, sd, beta, intercept, j):
    def f(t):
        b = beta.copy()
        b[j] = t
        return loss(family, sd, dense_model(b, intercept))

    return f


class TestLossValues:
    def test_gaussian_zero_model(self, rng):
        sd = random_standardized("gaussian", 30, 4, seed=5)
        y = sd.dataset.response.y
        value = loss(GAUSSIAN, sd, dense_model(np.zeros(4)))
        assert value == pytest.approx(y @ y / (2 * 30), rel=1e-12)

    def test_binomial_zero_model_is_n_log2(self):
        sd = random_standardized("binomial", 40, 3, seed=6)
        value = loss(BINOMIAL, sd, dense_model(np.zeros(3)))
        assert value == pytest.approx(40 * math.log(2), rel=1e-12)

    def test_cox_zero_model_counts_risk_sets(self):
        # distinct times: at beta=0 each event contributes log |risk set|
        X = np.arange(10.0).reshape(5, 2)
        times = np.array([3.0, 1.0, 4.0, 2.0, 5.0])
        status = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        sd = standardize(Dataset(X, Survival(times, status)))
        expected = sum(
            math.log(int((times >= times[i]).sum()))
            for i in range(5)
            if status[i] == 1.0
        )
        value = loss(COX, sd, dense_model(np.zeros(2)))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_cox_tied_times_use_full_tie_group(self):
        X = np.arange(8.0).reshape(4, 2)
        times = np.array([2.0, 2.0, 1.0, 3.0])
        status = np.array([1.0, 1.0, 1.0, 0.0])
        sd = standardize(Dataset(X, Survival(times, status)))
        # risk sets: t=2 events see {1,2,4th obs? times >= 2} = 3 members each,
        # t=1 event sees all 4
        expected = math.log(3) + math.log(3) + math.log(4)
        value = loss(COX, sd, dense_model(np.zeros(2)))
        assert value == pytest.approx(expected, rel=1e-12)


class TestGradHess:
    def test_gaussian_curvature_is_one(self, rng):
        sd = random_standardized("gaussian", 25, 6, seed=7)
        for _ in range(5):
            beta = rng.standard_normal(6)
            _, h = grad_hess(GAUSSIAN, sd, dense_model(beta))
            np.testing.assert_array_equal(h, 1.0)

    def test_binomial_values_at_zero(self):
        sd = random_standardized("binomial", 50, 4, seed=8)
        X = sd.dataset.X
        y = sd.dataset.response.y
        g, h = grad_hess(BINOMIAL, sd, dense_model(np.zeros(4)))
        np.testing.assert_allclose(g, -X.T @ (y - 0.5), rtol=1e-12)
        # columns have sqrt(n) norm, so h_j(0) = n/4
        np.testing.assert_allclose(h, 50 / 4.0, rtol=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_gradient_matches_finite_differences(self, family):
        fam = FAMILY[family]
        checked = 0
        for trial in range(20):
            n, p = 40, 5
            sd = random_standardized(family, n, p, seed=1000 + trial, censor_rate=0.2)
            rng = np.random.default_rng(2000 + trial)
            beta = rng.standard_normal(p) * 0.5
            intercept = float(rng.standard_normal()) * 0.3 if family == "binomial" else 0.0
            g, _ = grad_hess(fam, sd, dense_model(beta, intercept))
            for j in range(p):
                f = coordinate_loss(fam, sd, beta, intercept, j)
                step = 1e-5 * max(1.0, abs(beta[j]))
                fd = (f(beta[j] + step) - f(beta[j] - step)) / (2 * step)
                assert abs(g[j] - fd) <= 1e-5 * max(1.0, abs(fd)), (family, trial, j)
                checked += 1
        assert checked == 20 * 5

    @pytest.mark.parametrize("family", ["binomial", "cox"])
    def test_curvature_matches_finite_differences(self, family):
        fam = FAMILY[family]
        for trial in range(20):
            n, p = 40, 5
            sd = random_standardized(family, n, p, seed=3000 + trial, censor_rate=0.2)
            rng = np.random.default_rng(4000 + trial)
            beta = rng.standard_normal(p) * 0.5
            intercept = float(rng.standard_normal()) * 0.3 if family == "binomial" else 0.0
            _, h = grad_hess(fam, sd, dense_model(beta, intercept))
            for j in range(p):
                f = coordinate_loss(fam, sd, beta, intercept, j)
                step = 5e-4 * max(1.0, abs(beta[j]))
                fd = (f(beta[j] + step) - 2 * f(beta[j]) + f(beta[j] - step)) / step**2
                assert abs(h[j] - fd) <= 1e-4 * max(1.0, abs(fd)), (family, trial, j)


class TestDualSacrifice:
    def test_gaussian_orthogonal_inactive_coordinate(self):
        # column 2 orthogonal to the residual => zero dual and sacrifice
        X = np.array(
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0],
             [0.0, 0.0, -1.0], [0.0, 0.0, -1.0]]
        )
        rng = np.random.default_rng(0)
        X = X + 0.0
        y = X[:, 0] * 2.0  # exactly spanned by column 0
        sd = standardize(Dataset(X, Continuous(y)))
        model = fit_active(GAUSSIAN, sd, (0,))
        gamma, delta = dual_sacrifice(GAUSSIAN, sd, model)
        e = sd.dataset.response.y - sd.dataset.X @ model.beta
        for j in (1, 2):
            if abs(e @ sd.dataset.X[:, j]) < 1e-10:
                assert abs(gamma[j]) < 1e-12
                assert abs(delta[j]) < 1e-24

    def test_complementary_supports_exact(self):
        for family in ("gaussian", "binomial", "cox"):
            sd = random_standardized(family, 60, 8, seed=11, censor_rate=0.1)
            model = fit_active(FAMILY[family], sd, (1, 4, 6))
            gamma, delta = dual_sacrifice(FAMILY[family], sd, model)
            for j in (1, 4, 6):
                assert gamma[j] == 0.0
            inactive = [j for j in range(8) if j not in (1, 4, 6)]
            assert all(model.beta[j] == 0.0 for j in inactive)

    def test_cox_event_weights_sum_to_one(self):
        # brute-force weights per event against the vectorized risk sums
        rng = np.random.default_rng(13)
        n, p = 15, 3
        X = rng.standard_normal((n, p))
        times = rng.uniform(0.5, 3.0, n)
        times[3] = times[7]  # force a tie
        status = (rng.uniform(size=n) < 0.7).astype(float)
        status[0] = 1.0
        sd = standardize(Dataset(X, Survival(times, status)))
        beta = rng.standard_normal(p) * 0.4
        eta = sd.dataset.X @ beta
        t = sd.dataset.response.time
        for i in range(n):
            if sd.dataset.response.status[i] != 1.0:
                continue
            risk = t >= t[i]
            weights = np.exp(eta[risk]) / np.exp(eta[risk]).sum()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_active_sacrifice_formula(self):
        sd = random_standardized("gaussian", 30, 5, seed=17)
        model = fit_active(GAUSSIAN, sd, (0, 2))
        _, delta = dual_sacrifice(GAUSSIAN, sd, model)
        # gaussian h == 1: active sacrifice is beta^2 / 2
        assert delta[0] == pytest.approx(0.5 * model.beta[0] ** 2, rel=1e-12)
        assert delta[2] == pytest.approx(0.5 * model.beta[2] ** 2, rel=1e-12)


def masked_sacrifice(family, sd, m):
    """``dual_sacrifice`` as a boolean mask and two ``np.where`` merges over p."""
    g, h = grad_hess(family, sd, m)
    active = np.zeros(sd.dataset.p, dtype=bool)
    active[list(m.active_set)] = True
    h_safe = np.maximum(h, families.CURVATURE_FLOOR)
    gamma = np.where(active, 0.0, -g / h_safe)
    delta = np.where(active, 0.5 * h * m.beta**2, 0.5 * h_safe * gamma**2)
    return gamma, delta


def spread_set(p, k):
    return tuple(int(j) for j in np.random.default_rng(k).choice(p, size=k, replace=False))


class TestSacrificeBits:
    # the sizes are 0, 1, a middle one and the family's cap; at the gaussian
    # cap of the wide design the Gram is singular and the fit takes the ridge
    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    @pytest.mark.parametrize("n, p", [(20, 60), (60, 8)], ids=["wide", "tall"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_equal_to_the_masked_formula(self, family, n, p):
        sd = random_standardized(family, n, p, seed=n + p, censor_rate=0.2)
        cap = FAMILY[family].max_size(n, p)
        for k in (0, 1, cap // 2, cap):
            model = fit_active(FAMILY[family], sd, spread_set(p, k))
            got = dual_sacrifice(FAMILY[family], sd, model)
            want = masked_sacrifice(FAMILY[family], sd, model)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (family, k)

    def test_equal_to_the_masked_formula_below_the_curvature_floor(self):
        sd = separated_by_first_column()
        model = CoefficientModel(np.array([1e4, 0.0]), 0.0, (0,), separated=True)
        _, h = grad_hess(BINOMIAL, sd, model)
        assert np.all(h < families.CURVATURE_FLOOR)
        got = dual_sacrifice(BINOMIAL, sd, model)
        want = masked_sacrifice(BINOMIAL, sd, model)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestCoefficientModel:
    def test_off_set_nan_refused_and_negative_zero_accepted(self):
        with pytest.raises(ValueError, match="^beta must vanish off the active set$"):
            CoefficientModel(np.array([0.0, 1.5, np.nan]), 0.0, (1,))
        model = CoefficientModel(np.array([-0.0, 1.5, -0.0]), 0.0, (1,))
        assert model.active_set == (1,)

    def test_rejects_beta_off_the_active_set(self):
        beta = np.array([0.0, 1.5, 0.0, 0.25])
        CoefficientModel(beta, 0.0, (1, 3))
        with pytest.raises(ValueError, match="beta must vanish off the active set"):
            CoefficientModel(beta, 0.0, (1,))
        with pytest.raises(ValueError, match="beta must vanish off the active set"):
            CoefficientModel(beta, 0.0, ())

    def test_rejects_active_index_out_of_range(self):
        beta = np.zeros(4)
        for active in ((-1,), (0, 4), (7,)):
            with pytest.raises(ValueError, match=r"^indices must be distinct integers in \[0, 4\), got "):
                CoefficientModel(beta, 0.0, active)

    @pytest.mark.parametrize("active", [(1.7,), (True,), (1, 1)])
    def test_rejects_non_integer_or_repeated_indices(self, active):
        # each used to be kept as the set (1,) or (1, 1)
        with pytest.raises(ValueError, match=r"^indices must be distinct integers in \[0, 4\), got "):
            CoefficientModel(np.zeros(4), 0.0, active)

    def test_numpy_integer_indices_kept_sorted(self):
        beta = np.array([0.0, 1.5, 0.0, 0.25])
        for active in (np.array([3, 1]), (np.int64(1), np.int32(3))):
            assert CoefficientModel(beta, 0.0, active).active_set == (1, 3)


class TestFitActive:
    def test_gaussian_empty_set(self):
        sd = random_standardized("gaussian", 20, 4, seed=19)
        model = fit_active(GAUSSIAN, sd, ())
        np.testing.assert_array_equal(model.beta, 0.0)
        y = sd.dataset.response.y
        assert loss(GAUSSIAN, sd, model) == pytest.approx(y @ y / 40.0)

    def test_gaussian_univariate_closed_form(self, rng):
        # orthonormal columns scaled to sqrt(n) norm
        n = 16
        Q, _ = np.linalg.qr(rng.standard_normal((n, 4)))
        X = Q * math.sqrt(n)
        y = rng.standard_normal(n)
        y -= y.mean()
        X -= X.mean(axis=0)
        X *= math.sqrt(n) / np.linalg.norm(X, axis=0)
        sd = standardize(Dataset(X, Continuous(y)))
        for j in range(4):
            model = fit_active(GAUSSIAN, sd, (j,))
            expected = sd.dataset.X[:, j] @ sd.dataset.response.y / n
            assert model.beta[j] == pytest.approx(expected, rel=1e-8)

    def test_binomial_against_generic_minimizer(self):
        # independent oracle: derivative-free/numeric-gradient minimizer on
        # the 4-parameter restricted likelihood
        sd = random_standardized("binomial", 50, 6, seed=23)
        active = (1, 3, 4)
        model = fit_active(BINOMIAL, sd, active)
        X = sd.dataset.X[:, list(active)]
        y = sd.dataset.response.y

        def nll(params):
            eta = params[0] + X @ params[1:]
            return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

        ref = minimize(nll, np.zeros(4), method="BFGS", options={"gtol": 1e-12})
        fitted = np.concatenate([[model.intercept], model.beta[list(active)]])
        np.testing.assert_allclose(fitted, ref.x, atol=1e-6)

    def test_cox_against_generic_minimizer(self):
        sd = random_standardized("cox", 60, 5, seed=29, censor_rate=0.2)
        active = (0, 2)
        model = fit_active(COX, sd, active)
        X = sd.dataset.X[:, list(active)]
        t = sd.dataset.response.time
        delta = sd.dataset.response.status

        def npl(params):
            eta = X @ params
            total = 0.0
            for i in range(len(t)):
                if delta[i] == 1.0:
                    total -= eta[i] - math.log(np.exp(eta[t >= t[i]]).sum())
            return total

        ref = minimize(npl, np.zeros(2), method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
        np.testing.assert_allclose(model.beta[list(active)], ref.x, atol=1e-5)

    def test_gaussian_k_exceeding_n_rejected(self, rng):
        X = rng.standard_normal((4, 6))
        sd = standardize(Dataset(X, Continuous(rng.standard_normal(4))))
        with pytest.raises(ValueError, match=r"^active set size must be in \[0, 4\], got 5$"):
            fit_active(GAUSSIAN, sd, (0, 1, 2, 3, 4))

    def test_max_size_caps_only_gaussian_at_n(self):
        for n, p in ((10, 30), (30, 10)):
            assert GAUSSIAN.max_size(n, p) == min(n, p)
            assert BINOMIAL.max_size(n, p) == COX.max_size(n, p) == p

    def test_duplicate_indices_rejected(self):
        sd = random_standardized("gaussian", 10, 3, seed=31)
        with pytest.raises(
            ValueError, match=r"^indices must be distinct integers in \[0, 3\), got \(1, 1\)$"
        ):
            fit_active(GAUSSIAN, sd, (1, 1))

    @pytest.mark.parametrize("active", [(0, 1.7), (np.float64(1.0),), (True, 2)])
    def test_non_integer_indices_rejected(self, active):
        # int() would truncate 1.7 to 1 and read True as 1
        sd = random_standardized("gaussian", 10, 3, seed=31)
        with pytest.raises(ValueError, match=r"^indices must be distinct integers in \[0, 3\), got "):
            fit_active(GAUSSIAN, sd, active)

    def test_numpy_integer_indices_accepted(self):
        sd = random_standardized("gaussian", 10, 3, seed=31)
        model = fit_active(GAUSSIAN, sd, np.array([2, 0], dtype=np.int64))
        assert model.active_set == (0, 2)
        assert model.loss == fit_active(GAUSSIAN, sd, (0, 2)).loss

    def test_singular_gram_warns_not_raises(self, rng):
        X = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        d = Dataset(np.column_stack([X[:, 0], X[:, 1], X[:, 1]]), Continuous(y))
        sd = standardize(d)
        with pytest.warns(RuntimeWarning, match="ridge"):
            model = fit_active(GAUSSIAN, sd, (1, 2))
        assert np.all(np.isfinite(model.beta))

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_stationarity_on_active_set(self, family):
        sd = random_standardized(family, 80, 6, seed=37, censor_rate=0.1)
        fam = FAMILY[family]
        active = (0, 2, 5)
        model = fit_active(fam, sd, active)
        assert model.solver_converged
        g, _ = grad_hess(fam, sd, model)
        for j in active:
            assert abs(g[j]) < 10 * families.SOLVER_TOL
        if family == "binomial":
            prob = predict(fam, model, np.asarray(sd.dataset.X), _identity_meta(sd))
            score = float(np.sum(prob - sd.dataset.response.y))
            assert abs(score) < 10 * families.SOLVER_TOL

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_fit_improves_on_zero_model(self, family):
        sd = random_standardized(family, 50, 5, seed=41, censor_rate=0.1)
        fam = FAMILY[family]
        active = (1, 3)
        fitted = loss(fam, sd, fit_active(fam, sd, active))
        zero = loss(fam, sd, CoefficientModel(np.zeros(5), 0.0, active))
        assert fitted <= zero + 1e-12


def _identity_meta(sd):
    """Meta whose de-standardization is the identity (X already standardized)."""
    from bestsubset.data import StandardizedDataset

    p = sd.dataset.p
    return StandardizedDataset(sd.dataset, np.zeros(p), np.ones(p), 0.0)


class TestPredict:
    def test_zero_coefficients(self, rng):
        n, p = 12, 3
        Xnew = rng.standard_normal((6, p))
        for family, expected in (("gaussian", None), ("binomial", 0.5), ("cox", 1.0)):
            sd = random_standardized(family, n, p, seed=47)
            model = CoefficientModel(np.zeros(p), 0.0, ())
            got = predict(FAMILY[family], model, Xnew, sd)
            if family == "gaussian":
                np.testing.assert_allclose(got, sd.response_center)
            else:
                np.testing.assert_allclose(got, expected)

    def test_column_mismatch(self):
        sd = random_standardized("gaussian", 10, 3, seed=53)
        model = CoefficientModel(np.zeros(3), 0.0, ())
        with pytest.raises(ValueError, match="columns"):
            predict(GAUSSIAN, model, np.zeros((4, 2)), sd)

    def test_binomial_probabilities_in_unit_interval(self, rng):
        sd = random_standardized("binomial", 30, 4, seed=59)
        model = fit_active(BINOMIAL, sd, (0, 1))
        prob = predict(BINOMIAL, model, rng.standard_normal((20, 4)) * 50, sd)
        assert np.all(prob > 0) and np.all(prob < 1)

    @pytest.mark.parametrize("family", ["gaussian", "cox"])
    def test_family_must_match_the_data(self, rng, family):
        # a binomial model's intercept would be dropped, or the gaussian
        # response center added, without a word
        sd = random_standardized("binomial", 30, 4, seed=59)
        model = fit_active(BINOMIAL, sd, (0, 1))
        want = f"family {family!r} does not match response type Binary"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            predict(FAMILY[family], model, rng.standard_normal((5, 4)), sd)


class TestLogLikelihood:
    def test_gaussian_profile_form(self):
        sd = random_standardized("gaussian", 30, 4, seed=61)
        model = fit_active(GAUSSIAN, sd, (0, 1))
        rss = 2 * 30 * loss(GAUSSIAN, sd, model)
        assert log_likelihood(GAUSSIAN, sd, model) == pytest.approx(
            -15 * math.log(rss / 30)
        )

    def test_binomial_is_negated_loss(self):
        sd = random_standardized("binomial", 30, 4, seed=67)
        model = fit_active(BINOMIAL, sd, (0,))
        assert log_likelihood(BINOMIAL, sd, model) == -loss(BINOMIAL, sd, model)


def tied_censored_cox(n=60, p=4, seed=71):
    """Cox data with many tied times (one decimal) and about 30% censoring."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    times = np.round(rng.exponential(1.0, n), 1) + 0.1
    status = (rng.uniform(size=n) > 0.3).astype(float)
    status[0] = 1.0
    sd = standardize(Dataset(X, Survival(times, status)))
    assert len(np.unique(sd.dataset.response.time)) < n
    return sd


def tensor_cox_derivatives(X, time, status, beta):
    """Reference: Breslow score and Hessian through an n x k x k tensor.

    Rows are sorted by descending time, so each risk set is a prefix and
    every risk-set sum is a cumulative sum; the Hessian cumulates the
    per-row outer products.  Returns the score, the full Hessian and its
    diagonal computed from the squared columns.
    """
    order = np.argsort(-time, kind="stable")
    t_sorted = time[order]
    events = status[order] == 1.0
    risk_end = np.searchsorted(-t_sorted, -t_sorted, side="right")
    Xs = X[order]
    eta = Xs @ beta
    w = np.exp(eta - eta.max())
    cw = np.cumsum(w)
    idx = risk_end[events] - 1
    denom = cw[idx]
    xbar = np.cumsum(w[:, None] * Xs, axis=0)[idx] / denom[:, None]
    score = -(Xs[events] - xbar).sum(axis=0)
    outer = np.cumsum(w[:, None, None] * Xs[:, :, None] * Xs[:, None, :], axis=0)
    H = (outer[idx] / denom[:, None, None]).sum(axis=0)
    H -= np.einsum("ij,il->jl", xbar, xbar)
    cwx2 = np.cumsum(w[:, None] * Xs**2, axis=0)
    hdiag = (cwx2[idx] / denom[:, None] - xbar**2).sum(axis=0)
    return score, H, hdiag


class TestCoxDerivatives:
    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_weighted_gram_hessian_matches_tensor_formula(self, seed):
        sd = tied_censored_cox(seed=seed)
        resp = sd.dataset.response
        beta = np.random.default_rng(seed).standard_normal(4) * 0.5
        ref_score, ref_H, _ = tensor_cox_derivatives(
            sd.dataset.X, resp.time, resp.status, beta
        )
        context = families.problem(sd)
        Xs = sd.dataset.X[context.order]
        score, u, xbar = _cox_derivatives(Xs, Xs @ beta, context)
        H = Xs.T @ (Xs * u[:, None]) - xbar.T @ xbar
        np.testing.assert_allclose(score, ref_score, rtol=1e-10, atol=1e-10 * np.abs(ref_score).max())
        np.testing.assert_allclose(H, ref_H, rtol=1e-10, atol=1e-10 * np.abs(ref_H).max())

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_grad_hess_matches_tensor_formula(self, seed):
        sd = tied_censored_cox(seed=seed)
        resp = sd.dataset.response
        beta = np.random.default_rng(seed).standard_normal(4) * 0.5
        ref_score, ref_H, ref_hdiag = tensor_cox_derivatives(
            sd.dataset.X, resp.time, resp.status, beta
        )
        g, h = grad_hess(COX, sd, dense_model(beta))
        np.testing.assert_allclose(g, ref_score, rtol=1e-10, atol=1e-10 * np.abs(g).max())
        np.testing.assert_allclose(h, ref_hdiag, rtol=1e-10)
        np.testing.assert_allclose(h, np.diag(ref_H), rtol=1e-10)

    def test_risk_set_layout(self):
        sd = tied_censored_cox()
        resp = sd.dataset.response
        context = families.problem(sd)
        t_sorted = resp.time[context.order]
        assert np.all(np.diff(t_sorted) <= 0)
        np.testing.assert_array_equal(
            context.events, np.flatnonzero(resp.status[context.order] == 1.0)
        )
        assert len(context.event_ends) == len(context.events)
        for e, end in zip(context.events, context.event_ends):
            assert end + 1 == np.sum(resp.time >= t_sorted[e])
        assert context.tied
        np.testing.assert_array_equal(context.risk_design, sd.dataset.X[context.order])


class TestFitLoss:
    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    @pytest.mark.parametrize("active", [(), (1,), (0, 2, 3)])
    def test_fit_reports_its_loss(self, family, active):
        sd = random_standardized(family, 50, 4, seed=79, censor_rate=0.2)
        model = fit_active(FAMILY[family], sd, active)
        assert model.loss == pytest.approx(loss(FAMILY[family], sd, model), rel=1e-12)

    @pytest.mark.parametrize("active", [(), (2,), (0, 1, 3)])
    def test_cox_fit_reports_its_loss_with_ties(self, active):
        sd = tied_censored_cox()
        model = fit_active(COX, sd, active)
        assert model.loss == pytest.approx(loss(COX, sd, model), rel=1e-12)

    def test_log_likelihood_from_fit_loss(self):
        for family in ("gaussian", "binomial", "cox"):
            sd = random_standardized(family, 40, 3, seed=83, censor_rate=0.1)
            fam = FAMILY[family]
            model = fit_active(fam, sd, (0, 2))
            assert loglik_from_loss(fam, 40, model.loss) == pytest.approx(
                log_likelihood(fam, sd, model), rel=1e-12
            )


def full_design_grad_hess(family, sd, m):
    """Coordinate derivatives with the linear predictor formed as ``X @ beta``."""
    X = sd.dataset.X
    resp = sd.dataset.response
    eta = X @ m.beta
    if family.tag == "gaussian":
        return -(X.T @ (resp.y - eta)) / sd.dataset.n, np.ones(sd.dataset.p)
    if family.tag == "binomial":
        prob = _sigmoid(m.intercept + eta)
        return X.T @ (prob - resp.y), (X**2).T @ (prob * (1.0 - prob))
    context = families.problem(sd)
    Xs = X[context.order]
    g, u, xbar = _cox_derivatives(Xs, eta[context.order], context)
    return g, np.maximum(u @ Xs**2 - (xbar**2).sum(axis=0), 0.0)


class TestGradHessActiveColumns:
    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    @pytest.mark.parametrize("active", [(0,), (1, 4, 6), (0, 2, 3, 5, 7)])
    def test_matches_full_design_formula(self, family, active):
        beta = np.array([1.0, 0.0, -0.8, 0.5, 0.0, 0.3, 0.0, -0.4])
        sd = random_standardized(family, 80, 8, seed=89, beta=beta, censor_rate=0.2)
        model = fit_active(FAMILY[family], sd, active)
        g, h = grad_hess(FAMILY[family], sd, model)
        g_ref, h_ref = full_design_grad_hess(FAMILY[family], sd, model)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12, atol=1e-12 * np.abs(g_ref).max())
        np.testing.assert_allclose(h, h_ref, rtol=1e-12)


def random_spd(k, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((2 * k, k))
    return M.T @ M + np.eye(k), rng.standard_normal(k)


class TestSolveSpd:
    @pytest.mark.parametrize("k", [1, 2, 10, 80])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_cholesky_solve(self, k, seed):
        from scipy.linalg import cho_factor, cho_solve

        A, b = random_spd(k, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _solve_spd(A, b, "test")
        ref = cho_solve(cho_factor(A), b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_indefinite_takes_the_ridge_path(self):
        A = np.array([[2.0, 0.5], [0.5, -1.0]])
        b = np.array([1.0, 2.0])
        with pytest.warns(RuntimeWarning, match="singular test system; adding ridge"):
            x = _solve_spd(A, b, "test")
        ridge = RIDGE_JITTER * 1.0 / 2
        assert np.array_equal(x, np.linalg.solve(A + ridge * np.eye(2), b))

    @pytest.mark.parametrize("ratio", [0.99e-7, 1e-7, 0.5e-7])
    def test_pivot_ratio_below_threshold_takes_the_ridge_path(self, ratio):
        # the Cholesky pivots of diag(1, r^2) are exactly 1 and r
        A = np.diag([1.0, ratio**2])
        b = np.array([1.0, 1.0])
        assert np.diagonal(np.linalg.cholesky(A))[1] <= 1e-7
        with pytest.warns(RuntimeWarning, match="ridge"):
            x = _solve_spd(A, b, "test")
        ridge = RIDGE_JITTER * max(np.trace(A), 1.0) / 2
        assert np.array_equal(x, np.linalg.solve(A + ridge * np.eye(2), b))

    @pytest.mark.parametrize("ratio", [1.01e-7, 2e-7])
    def test_pivot_ratio_above_threshold_solves_exactly(self, ratio):
        A = np.diag([1.0, ratio**2])
        b = np.array([1.0, 1.0])
        assert np.diagonal(np.linalg.cholesky(A))[1] > 1e-7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _solve_spd(A, b, "test")
        assert np.array_equal(x, np.linalg.solve(A, b))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_non_finite_input_raises(self, bad, where):
        A, b = random_spd(3, 5)
        if where == "matrix":
            A[1, 2] = bad
        else:
            b[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _solve_spd(A, b, "test")


def oracle_p_cap(p_cap):
    sd = random_standardized("gaussian", 20, 8, seed=1)
    return exhaustive_best_subset(GAUSSIAN, sd, 2, p_cap=p_cap)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ModelFamily("poisson"), "unknown family 'poisson'"),
        (lambda: fit_active(GAUSSIAN, random_standardized("binomial", 20, 3, seed=1), (0,)),
         "family 'gaussian' does not match response type Binary"),
        # the size rules of tuning's criteria and default cap: n = 1 used to
        # divide by log(1) = 0, and 2.5, 1.5, True or k > p to give numbers
        (lambda: default_k_max(ModelFamily("binomial"), 1, 5), "n must be in [2, inf], got 1"),
        (lambda: default_k_max(ModelFamily("binomial"), 2.5, 5), "n must be in [2, inf], got 2.5"),
        (lambda: default_k_max(GAUSSIAN, 10, 0), "p must be in [1, inf], got 0"),
        (lambda: criteria(0.0, 1.5, 10, 5), "k must be in [0, 5], got 1.5"),
        (lambda: criteria(0.0, True, 10, 5), "k must be in [0, 5], got True"),
        (lambda: criteria(0.0, 6, 10, 5), "k must be in [0, 5], got 6"),
        (lambda: criteria(0.0, -1, 10, 2), "k must be in [0, 2], got -1"),
        (lambda: criteria(0.0, 1, 1, 5), "n must be in [2, inf], got 1"),
        (lambda: criteria(0.0, 0, 10, 0), "p must be in [1, inf], got 0"),
        # the oracle's p_cap is a size: 25.5 used to pass, True to act as 1,
        # "25" to raise TypeError and 0 to read as a refusal of p
        (lambda: oracle_p_cap(25.5), "p_cap must be in [1, inf], got 25.5"),
        (lambda: oracle_p_cap(True), "p_cap must be in [1, inf], got True"),
        (lambda: oracle_p_cap("25"), "p_cap must be in [1, inf], got '25'"),
        (lambda: oracle_p_cap(0), "p_cap must be in [1, inf], got 0"),
    ],
    ids=["unknown-family", "family-mismatch", "k-max-n-one", "k-max-n-float", "k-max-p-zero",
         "criteria-k-float", "criteria-k-bool", "criteria-k-above-p", "criteria-k-negative",
         "criteria-n-one", "criteria-p-zero", "p-cap-float", "p-cap-bool", "p-cap-str",
         "p-cap-zero"],
)
def test_input_check_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestQuietFit:
    def test_raise_gives_none(self):
        def raising():
            raise ValueError("non-finite entries in Newton system")

        assert quiet_fit(raising) is None

    @pytest.mark.parametrize("category", [RuntimeWarning, UserWarning])
    @pytest.mark.parametrize("outer", ["always", "ignore", "error"])
    def test_warning_gives_none_and_none_escapes(self, category, outer):
        def warning(x):
            warnings.warn("singular Newton system; adding ridge", category)
            return x

        filters = list(warnings.filters)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(outer)
            assert quiet_fit(warning, 1.0) is None
        assert caught == []
        assert warnings.filters == filters

    def test_clean_call_returns_the_same_object(self):
        sd = random_standardized("cox", 40, 4, seed=3)
        filters = list(warnings.filters)
        model = fit_active(COX, sd, (0, 1))
        assert quiet_fit(lambda *args: model, COX, sd, (0, 1)) is model
        assert_same_model(quiet_fit(fit_active, COX, sd, (0, 1)), model)
        assert warnings.filters == filters

    def test_other_errors_propagate(self):
        with pytest.raises(KeyError):
            quiet_fit({}.__getitem__, "missing")


class TestProblem:
    def test_one_problem_per_dataset(self, monkeypatch):
        # a refused wrong-family call must not leave a second context behind
        made = []

        class Counted(families.Problem):
            def __init__(self, d):
                made.append(d)
                super().__init__(d)

        monkeypatch.setattr(families, "Problem", Counted)
        cfg = GenConfig(n=40, p=6, q=2, family="cox", censor_rate=0.2, seed=3)
        sd = standardize(gen_dataset(cfg)[0])
        with pytest.raises(ValueError, match="family 'gaussian' does not match response type Survival"):
            pdas(GAUSSIAN, sd, 1)
        spdas(COX, sd)
        assert made == [sd]

    @pytest.mark.parametrize(
        "search",
        [null_fit, lambda family, sd: pdas(family, sd, 1),
         lambda family, sd: exhaustive_best_subset(family, sd, 2)],
        ids=["null_fit", "pdas", "oracle"],
    )
    def test_wrong_family_refused_on_a_filled_memo(self, search):
        # every set these visit is in the memo already, delta included
        cfg = GenConfig(n=40, p=6, q=2, family="cox", censor_rate=0.2, seed=3)
        sd = standardize(gen_dataset(cfg)[0])
        spdas(COX, sd)
        with pytest.raises(ValueError, match="family 'gaussian' does not match response type Survival"):
            search(GAUSSIAN, sd)

    @pytest.mark.parametrize("read", ["fit", "evaluate"])
    def test_memo_reads_check_the_family_themselves(self, read):
        # the held sets are read directly, with no pdas call to check first
        cfg = GenConfig(n=40, p=6, q=2, family="cox", censor_rate=0.2, seed=3)
        sd = standardize(gen_dataset(cfg)[0])
        spdas(COX, sd)
        context = families.problem(sd)

        def models(fits):
            return [(active, model) for active, (model, _) in fits.items()]

        held = models(context.fits)
        assert len(held) > 1
        for active, model in held:
            with pytest.raises(ValueError, match="family 'gaussian' does not match response type Survival"):
                getattr(context, read)(GAUSSIAN, sd, active)
            got = getattr(context, read)(COX, sd, active)
            assert (got if read == "fit" else got[0]) is model
        assert models(context.fits) == held  # same sets, order and models

    def test_fit_leaves_a_set_it_fits_out_of_the_memo(self):
        sd = random_standardized("gaussian", 40, 6, seed=1)
        context = families.problem(sd)
        model = context.fit(GAUSSIAN, sd, (0, 2))
        assert model.active_set == (0, 2) and context.fits == {}

    def test_a_delta_replaces_the_held_pair_in_its_place(self, monkeypatch):
        sd = random_standardized("cox", 40, 6, seed=1)
        context = families.problem(sd)
        models = [fit_active(COX, sd, (j,)) for j in range(3)]
        for model in models:
            context.add(model)
        context.add(fit_active(COX, sd, (1,)))  # a held set keeps its model
        first = context.fits[(1,)]
        assert first == (models[1], None)
        model, delta = context.evaluate(COX, sd, (1,))
        assert model is models[1] and first == (models[1], None)
        assert list(context.fits) == [(0,), (1,), (2,)]
        assert context.fits[(1,)][1] is delta and not delta.flags.writeable
        monkeypatch.setattr(families, "dual_sacrifice", None)  # a second call must not run it
        assert context.evaluate(COX, sd, (1,))[1] is delta

    @pytest.mark.parametrize("tag", ["gaussian", "binomial", "cox"])
    def test_dataset_is_freed_without_the_cycle_collector(self, tag):
        censor_rate = 0.2 if tag == "cox" else 0.0
        cfg = GenConfig(n=60, p=8, q=2, family=tag, censor_rate=censor_rate, seed=3)
        sd = standardize(gen_dataset(cfg)[0])
        enabled = gc.isenabled()
        gc.disable()
        try:
            spdas(FAMILY[tag], sd)
            gpdas(FAMILY[tag], sd)
            assert families.problem(sd).fits
            ref = weakref.ref(sd)
            del sd
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_concurrent_adds_neither_raise_nor_overfill(self):
        sd = random_standardized("gaussian", 8, 40, seed=0)
        context = families.Problem(sd)
        assert context.capacity == 4
        models = [fit_active(GAUSSIAN, sd, (j,)) for j in range(40)]
        errors = []

        def adder(offset):
            try:
                for i in range(20_000):
                    context.add(models[(i + offset) % 40])
            except Exception as exc:  # any error fails the test
                errors.append(exc)

        threads = [threading.Thread(target=adder, args=(10 * t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(context.fits) <= context.capacity


def masked_sigmoid(eta):
    """The two-mask formula ``_sigmoid`` replaced, kept as its reference."""
    eta = np.clip(eta, -LINEAR_PREDICTOR_CLIP, LINEAR_PREDICTOR_CLIP)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expe = np.exp(eta[~pos])
    out[~pos] = expe / (1.0 + expe)
    return out


SIGMOID_EDGES = [0.0, -0.0, 30.0, -30.0, 30.5, -30.5, 1e300, -1e300, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(SIGMOID_EDGES),
            st.floats(-40.0, 40.0),
            st.floats(allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_sigmoid_bit_equal_to_the_masked_formula(values):
    eta = np.array(values, dtype=float)
    assert np.array_equal(
        _sigmoid(eta).view(np.uint64), masked_sigmoid(eta).view(np.uint64)
    )


def recomputing_newton(objective, derivatives, coef):
    """The damped Newton loop with the predictor recomputed from ``coef``."""
    current, _ = objective(coef)
    converged = False
    iterations = 0
    for iterations in range(1, families.MAX_ITER + 1):
        score, hessian = derivatives(objective(coef)[1])
        if np.max(np.abs(score)) < families.SOLVER_TOL:
            converged = True
            break
        step = _solve_spd(hessian, score, "Newton")
        scale = 1.0
        for _ in range(40):
            trial = coef - scale * step
            value, _ = objective(trial)
            if value <= current + 1e-12:
                break
            scale *= 0.5
        coef, current = trial, value
        if np.max(np.abs(scale * step)) < families.SOLVER_TOL:
            converged = True
            break
    return coef, current, converged, iterations


def reuse_case(name):
    beta = np.array([2.0, -1.5, 1.0, 0.0, 0.8, 0.0, -0.6, 0.0])
    if name == "binomial-separated":
        # n = 30 with eight columns and a strong signal: separated fits
        return "binomial", random_standardized("binomial", 30, 8, seed=97, beta=4 * beta)
    if name == "cox-ties":
        return "cox", tied_censored_cox(n=60, p=8, seed=97)
    return name, random_standardized(name, 60, 8, seed=97, beta=beta, censor_rate=0.2)


class TestPredictorReuse:
    @pytest.mark.parametrize("case", ["binomial", "binomial-separated", "cox", "cox-ties"])
    @pytest.mark.parametrize("active", [(3,), (0, 2, 5), (0, 1, 2, 3, 4, 5, 6, 7)])
    def test_bit_equal_to_recomputed_predictor(self, case, active, monkeypatch):
        family, sd = reuse_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reused = fit_active(FAMILY[family], sd, active)
            monkeypatch.setattr(families, "_damped_newton", recomputing_newton)
            recomputed = fit_active(FAMILY[family], sd, active)
        assert np.array_equal(reused.beta, recomputed.beta)
        assert reused.intercept == recomputed.intercept
        assert reused.loss == recomputed.loss
        assert reused.solver_iterations == recomputed.solver_iterations
        assert reused.solver_converged == recomputed.solver_converged
        assert reused.solver_iterations > 1


def risk_context(times, status):
    """The cox context of a dataset whose rows are given in risk order."""
    X = np.arange(len(times), dtype=float)[:, None]
    sd = standardize(Dataset(X, Survival(np.array(times, float), np.array(status, float))))
    context = families.problem(sd)
    assert np.array_equal(context.order, np.arange(len(times)))
    return context


def fit_and_warnings(family, sd, active, start=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_active(family, sd, active, start)
    return model, [(w.category, str(w.message)) for w in caught]


def assert_same_model(a, b):
    assert (a.loss, a.solver_iterations, a.solver_converged) == (
        b.loss, b.solver_iterations, b.solver_converged
    )
    np.testing.assert_array_equal(a.beta, b.beta)


def newton_starts(monkeypatch):
    """The start of every damped Newton run from here on."""
    starts = []
    newton = families._damped_newton

    def recording(objective, derivatives, coef):
        starts.append(np.array(coef))
        return newton(objective, derivatives, coef)

    monkeypatch.setattr(families, "_damped_newton", recording)
    return starts


class TestWarmStartGuard:
    @pytest.mark.parametrize(
        "times, status, eta, certified",
        [
            ((4, 3, 2, 1), (1, 1, 1, 1), (0.0, 1.0, 2.0, 3.0), True),  # strict order
            ((4, 3, 2, 1), (1, 1, 1, 1), (0.0, 2.0, 1.0, 3.0), False),  # one inversion
            ((4, 3, 2, 1), (1, 0, 1, 1), (0.0, 5.0, 6.0, 7.0), True),
            ((4, 3, 2, 1), (1, 0, 1, 1), (0.0, 5.0, 4.0, 7.0), False),  # a censored row above
            ((4, 3, 2, 1), (0, 1, 0, 1), (9.0, 1.0, -5.0, 10.0), False),  # the first row above
            ((4, 3, 3, 1), (1, 1, 1, 1), (0.0, 1.0, 2.0, 3.0), False),  # tied events
            # an event tied with a censored row; ties among censored rows only
            ((4, 3, 3, 1), (1, 1, 0, 1), (0.0, 1.0, -9.0, 3.0), False),
            ((4, 3, 3, 1), (1, 0, 0, 1), (0.0, 1.0, 2.0, 3.0), True),
            ((2, 1), (0, 1), (0.0, 0.0), False),  # equal eta is not strictly above
            # an event tied with the censored row before it
            ((4, 3, 3, 1), (1, 0, 1, 1), (0.0, 1.0, 2.0, 3.0), False),
        ],
    )
    def test_monotone_hand_cases(self, times, status, eta, certified):
        assert families._monotone(np.array(eta), risk_context(times, status)) is certified

    def test_separated_set_keeps_the_cold_fit(self, monkeypatch):
        # oracle corpus case cox-censored-seed1: on (0, 2, 6) the loss has no
        # minimizer (cold loss 1.1e-7, |beta| up to 365), and an unguarded
        # warm run from the (0, 6) fit ends elsewhere, at loss 1.4e-7
        sd = standardize(gen_dataset(GenConfig(
            n=30, p=8, q=2, family="cox", rho=0.5, censor_rate=0.7, seed=1
        ))[0])
        context = families.problem(sd)
        active = (0, 2, 6)
        cold, cold_warnings = fit_and_warnings(COX, sd, active)
        assert cold.loss < 1e-6
        assert families._monotone((sd.dataset.X @ cold.beta)[context.order], context)
        # the warm run from the (0, 6) fit ends certified with no warning,
        # the one from the (0, 2) fit warns, and the nearby start certifies
        subsets = [fit_active(COX, sd, subset) for subset in ((0, 6), (0, 2))]
        for start in subsets:
            assert not families._monotone((sd.dataset.X @ start.beta)[context.order], context)
        nearby = CoefficientModel(0.9 * cold.beta, 0.0, active)
        starts = newton_starts(monkeypatch)
        for start in (*subsets, nearby):
            got, got_warnings = fit_and_warnings(COX, sd, active, start)
            assert_same_model(got, cold)
            assert got_warnings == cold_warnings
        # the two warm runs and three cold fits: the nearby start never runs
        assert [bool(np.any(c)) for c in starts] == [True, False, True, False, False]

    @pytest.mark.parametrize("trouble", ["warns", "raises"])
    def test_troubled_warm_run_gives_the_fit_and_warnings(self, monkeypatch, trouble):
        # column 5 copies column 2, so each Newton step of a cold fit of a
        # set holding both warns of its ridge
        ds = gen_dataset(GenConfig(n=60, p=6, q=2, family="cox", censor_rate=0.2, seed=4))[0]
        X = np.array(ds.X)
        X[:, 5] = X[:, 2]
        sd = standardize(Dataset(X, ds.response))
        active = (1, 2, 5)
        cold, cold_warnings = fit_and_warnings(COX, sd, active)
        assert cold_warnings and all("ridge" in message for _, message in cold_warnings)
        start = fit_active(COX, sd, (1, 2))
        newton = families._damped_newton

        def troubled(objective, derivatives, coef):
            if np.any(coef):  # the warm run
                if trouble == "raises":
                    raise ValueError("non-finite entries in Newton system")
                warnings.warn("overflow encountered", RuntimeWarning)
            return newton(objective, derivatives, coef)

        monkeypatch.setattr(families, "_damped_newton", troubled)
        got, got_warnings = fit_and_warnings(COX, sd, active, start)
        assert_same_model(got, cold)
        assert got_warnings == cold_warnings

    @pytest.mark.parametrize("refusal", ["not converged", "above the zero loss", "zero on the set"])
    def test_refused_start_is_never_run(self, monkeypatch, refusal):
        sd = random_standardized("cox", 60, 6, seed=5, beta=np.array([1.0, -1.0, 0.5, 0, 0, 0]))
        active = (0, 1, 2)
        cold = fit_active(COX, sd, active)
        beta = fit_active(COX, sd, (0, 1)).beta
        start = {
            "not converged": CoefficientModel(beta, 0.0, (0, 1), False),
            "above the zero loss": CoefficientModel(-5.0 * beta, 0.0, (0, 1)),
            "zero on the set": fit_active(COX, sd, (4,)),
        }[refusal]
        starts = newton_starts(monkeypatch)
        assert_same_model(fit_active(COX, sd, active, start), cold)
        assert len(starts) == 1 and not np.any(starts[0])

    def test_kept_warm_fit_takes_fewer_iterations(self, monkeypatch):
        sd = random_standardized("cox", 60, 6, seed=5, beta=np.array([1.0, -1.0, 0.5, 0, 0, 0]))
        active = (0, 1, 2)
        cold = fit_active(COX, sd, active)
        starts = newton_starts(monkeypatch)
        warm = fit_active(COX, sd, active, fit_active(COX, sd, (0, 1)))
        assert len(starts) == 2 and np.any(starts[1])  # the (0, 1) fit, then the warm run
        assert warm.solver_converged and warm.solver_iterations < cold.solver_iterations
        assert warm.loss == pytest.approx(cold.loss, rel=1e-12, abs=0)
        np.testing.assert_allclose(warm.beta, cold.beta, rtol=1e-6)

    @pytest.mark.parametrize("tag", ["gaussian", "binomial"])
    def test_other_families_ignore_the_start(self, tag):
        sd = random_standardized(tag, 60, 6, seed=5, beta=np.array([1.0, -1.0, 0.5, 0, 0, 0]))
        family = FAMILY[tag]
        start = fit_active(family, sd, (0, 1))
        cold = fit_active(family, sd, (0, 1, 2))
        assert_same_model(fit_active(family, sd, (0, 1, 2), start), cold)


# the logit_reps benchmark scenario (the acceptance-05 binomial one)
LOGIT_REPS = BenchScenario(
    family="binomial", n=500, p=100, q=5, holdout=1000, seed=200,
    methods=("spdas", "gpdas"), criterion="ebic", reps=3,
)


def separated_by_first_column():
    """n 20, p 2 and y = x1 > 0: the first column separates the classes."""
    X = np.random.default_rng(0).standard_normal((20, 2))
    return standardize(Dataset(X, Binary((X[:, 0] > 0).astype(float))))


def strictly_separates(sd, model):
    """Whether ``(2y - 1) * eta > 0`` holds on every row at ``model``."""
    eta = model.intercept + sd.dataset.X @ model.beta
    return bool(np.all((2.0 * sd.dataset.response.y - 1.0) * eta > 0.0))


def uncertified_binomial_fit(sd, active):
    """The binomial Newton run without the separation stop, as
    ``(coef, loss, converged, iterations)`` with the intercept first."""
    y = sd.dataset.response.y
    Z = np.column_stack([np.ones(sd.dataset.n), sd.dataset.X[:, list(active)]])

    def objective(c):
        eta = Z @ c
        return families._binomial_loss(eta, y), eta

    def derivatives(eta):
        prob = _sigmoid(eta)
        w = np.maximum(prob * (1.0 - prob), families.IRLS_WEIGHT_FLOOR)
        return Z.T @ (prob - y), Z.T @ (Z * w[:, None])

    return families._damped_newton(objective, derivatives, np.zeros(Z.shape[1]))


def replication_fits(reps):
    """``(dataset, model)`` of every fit ``run_replication`` makes on LOGIT_REPS."""
    fits = []
    fit = families.fit_active

    def recording(family, sd, active, start=None):
        model = fit(family, sd, active, start)
        fits.append((sd, model))
        return model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "fit_active", recording)
        for rep in reps:
            run_replication(LOGIT_REPS, rep)
    return fits


# Unflagged binomial fits, pinned before the separation stop existed: the
# spdas k = 5 entries of LOGIT_REPS replications 0-2, then corpus sets, as
# (sha256 of beta in float32, first 16 hex digits; intercept; loss).  The
# pins hold at float32 precision, since the BLAS kernel moves the last bits
# of a Newton fit between CPUs; test_unflagged_fits_take_the_uncertified_path
# checks the bits on the CPU at hand.
UNFLAGGED_BITS = {
    ("rep", 0): ((7, 28, 52, 56, 74), "e985db27c81cf120", "-7.609169711e-01",
                 "5.985046459e+01"),
    ("rep", 1): ((5, 10, 60, 86, 98), "ef3bd277bd3993c2", "-4.579191943e-01",
                 "5.817516205e+01"),
    ("rep", 2): ((6, 13, 57, 86, 92), "129365369ba360ae", "-1.893905634e-01",
                 "6.131241217e+01"),
    ("corpus", 0, (6, 11, 27, 28, 32)): ("8e552daf720f9047", "1.278541175e+00",
                                          "1.278674363e+01"),
    ("corpus", 0, tuple(range(20))): ("c6a007028e854cfe", "1.483572462e-01",
                                       "1.108487895e+02"),
    ("corpus", 3, (3, 8, 20)): ("7af318691278f684", "1.271382777e-02", "7.093533399e+01"),
    ("corpus", 3, tuple(range(10))): ("3e3d1ef06a20a0b7", "4.955003244e-02",
                                       "1.066055809e+02"),
}


def bits(model):
    digest = hashlib.sha256(np.asarray(model.beta, dtype=np.float32).tobytes()).hexdigest()
    return digest[:16], format(model.intercept, ".9e"), format(model.loss, ".9e")


class TestSeparationCertificate:
    def test_hand_case(self):
        sd = separated_by_first_column()
        model = fit_active(BINOMIAL, sd, (0,))
        assert model.separated and model.solver_converged
        assert model.solver_iterations == 2
        assert strictly_separates(sd, model)
        # the loss at the returned coefficients, not the infimum 0
        assert loss(BINOMIAL, sd, model) == model.loss > 0.0
        other = fit_active(BINOMIAL, sd, (1,))
        assert not other.separated and other.solver_converged
        assert not strictly_separates(sd, other)

    def test_flagged_replication_fits_separate_and_refit_alike(self):
        flagged = [(sd, m) for sd, m in replication_fits((0, 1)) if m.separated]
        assert len(flagged) > 10
        for sd, model in flagged:
            assert model.solver_converged and strictly_separates(sd, model)
            # perfbench's op check: a cold refit reports the same loss
            refit = fit_active(BINOMIAL, sd, model.active_set)
            assert refit.separated and refit.loss == model.loss
            np.testing.assert_array_equal(refit.beta, model.beta)
            assert loss(BINOMIAL, sd, model) == pytest.approx(model.loss, rel=1e-12)

    def test_unflagged_fits_take_the_uncertified_path(self):
        unflagged = [(sd, m) for sd, m in replication_fits((0,)) if not m.separated]
        assert len(unflagged) > 10
        for sd, model in unflagged:
            coef, value, converged, iterations = uncertified_binomial_fit(sd, model.active_set)
            assert (value, converged, iterations) == (
                model.loss, model.solver_converged, model.solver_iterations
            )
            assert coef[0] == model.intercept
            np.testing.assert_array_equal(coef[1:], model.beta[list(model.active_set)])

    @pytest.mark.parametrize("rep", [0, 1, 2])
    def test_replication_bits_are_pinned(self, rep):
        sd = standardize(replication_draw(LOGIT_REPS, rep))
        path, _ = spdas(BINOMIAL, sd, criterion="ebic")
        entry = path.entry_for(5)
        active, *pinned = UNFLAGGED_BITS["rep", rep]
        assert entry.active_set == active and bits(entry) == tuple(pinned)

    @pytest.mark.parametrize(
        "key", [key for key in UNFLAGGED_BITS if key[0] == "corpus"], ids=str
    )
    def test_corpus_bits_are_pinned(self, key):
        _, seed, active = key
        config = GenConfig(n=200, p=40, q=5, family="binomial", rho=0.5, seed=seed)
        model = fit_active(BINOMIAL, standardize(gen_dataset(config)[0]), active)
        assert bits(model) == UNFLAGGED_BITS[key]

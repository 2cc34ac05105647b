import dataclasses
import importlib
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestsubset import bench
from bestsubset.bench import BenchScenario, run_replication
from bestsubset.data import Continuous, Dataset, standardize
from bestsubset.datagen import GenConfig, gen_beta, gen_dataset, gen_design, gen_response
from bestsubset.families import (
    CoefficientModel,
    ModelFamily,
    fit_active,
    loglik_from_loss,
    problem,
)
from bestsubset.pdas import null_fit, pdas
from bestsubset.tuning import (
    CRITERIA,
    LOSS_FLOOR,
    SelectionReport,
    criteria,
    default_k_max,
    golden_section_search,
    gpdas,
    loglik_ceiling,
    resolve_criterion,
    spdas,
    split_point,
    warm_start_set,
)

GAUSSIAN = ModelFamily("gaussian")
# ``bestsubset.pdas`` is the function; the module is reached by import
PDAS_MODULE = importlib.import_module("bestsubset.pdas")
TUNING_MODULE = importlib.import_module("bestsubset.tuning")
LONG_SEARCHES = [
    GenConfig(n=500, p=100, q=10, rho=0.2, seed=3),  # 66 iterations, 143 calls
    GenConfig(n=500, p=100, q=5, family="binomial", seed=3),
]
# iterations of each LONG_SEARCHES search whose split passed the drop test
LONG_SEARCH_DROPS = {"gaussian": 9, "binomial": 0}
# the behaviour-corpus scenarios and the acceptance gate-02 instance, with k_max
GATE_02_BETA = (4.0, -3.5, 3.0, -2.5, 2.0, -1.5) + (0.0,) * 19
HELD_END_SEARCHES = [
    (GenConfig(n=100, p=20, q=3, seed=1), 10),
    (GenConfig(n=500, p=20, q=3, family="binomial", seed=2), 8),
    (GenConfig(n=150, p=15, q=3, family="cox", censor_rate=0.2, seed=3), 8),
    (
        GenConfig(n=2000, p=25, q=6, rho=0.2, sigma=0.5, beta=GATE_02_BETA, seed=0),
        25,
    ),
] + [(cfg, None) for cfg in LONG_SEARCHES]


def memo_free_gpdas(family, sd, k_max, eta=0.01, m_max=100):
    """gpdas's search over plain pdas runs, each fitting on its own."""

    def run(k, prev):
        init = None if prev is None else warm_start_set(prev, k)
        problem(sd).fits.clear()
        return pdas(family, sd, k, init=init)

    return golden_section_search(run, k_max, eta, m_max)


def full_sweep(family, sd, k_max):
    """spdas's path with no stop: pdas from ``warm_start_set`` at every k to k_max."""
    prev = null_fit(family, sd)
    outs = [prev]
    for k in range(1, k_max + 1):
        prev = pdas(family, sd, k, init=warm_start_set(prev, k))
        outs.append(prev)
    return outs


def epsilon_stop_k(outs, epsilon):
    """The size after which the epsilon rule ends the full sweep, or None."""
    for prev, out in zip(outs[:-2], outs[1:-1]):
        if (prev.loss - out.loss) / max(abs(prev.loss), 1e-10) < epsilon:
            return out.k
    return None


def five_call_search(run, k_max, eta, m_max):
    """The former search loop, which solved both interval ends every iteration.

    It solves k_M + 1 whatever the drop test says; the last value returned
    is the number of iterations whose split passed that test.
    """
    k_left, k_right = 1, k_max
    prev_left = prev_right = prev_mid = None
    rows = []
    reason = "max-iter"
    drops = 0
    for m in range(1, m_max + 1):
        out_left = run(k_left, prev_left)
        out_right = run(k_right, prev_right)
        k_mid = split_point(k_left, k_right)
        out_mid = run(k_mid, prev_mid)
        rows.append((m, k_left, k_mid, k_right))

        loss_mid = out_mid.loss
        tol = eta * max(abs(loss_mid), LOSS_FLOOR)
        drop_in = abs(loss_mid - run(k_mid - 1, out_mid).loss) > tol
        flat_out = abs(loss_mid - run(k_mid + 1, out_mid).loss) < tol / 2.0
        drops += drop_in
        if drop_in and flat_out:
            reason = "elbow"
            break

        gap_left = abs(loss_mid - out_left.loss)
        gap_right = abs(out_right.loss - loss_mid)
        if gap_left > tol > gap_right:
            k_right, prev_right = k_mid, out_mid
        elif min(gap_left, gap_right) > tol:
            k_left, prev_left = k_mid, out_mid
        else:
            k_right, prev_right = k_mid, out_mid
            k_left, prev_left = 1, None
        prev_mid = out_mid
        if k_left == k_right - 1:
            reason = "interval-collapse"
            break
    return out_mid, tuple(rows), reason, drops


class TestCriteria:
    def test_reference_values(self):
        c = criteria(16.23951, k=4, n=200, p=20)
        assert c["deviance"] == pytest.approx(-32.47901, abs=1e-4)
        assert c["aic"] == pytest.approx(-24.47901, abs=1e-4)
        assert c["bic"] == pytest.approx(-11.28574, abs=1e-4)
        assert c["ebic"] == pytest.approx(12.68012, abs=1e-4)

    def test_values_by_name(self):
        assert list(criteria(1.0, k=1, n=10, p=3)) == ["deviance", "aic", "bic", "ebic"]

    def test_zero_size_model_has_no_penalty(self):
        c = criteria(-7.25, k=0, n=50, p=9)
        assert c["aic"] == c["deviance"] == c["bic"] == c["ebic"]

    def test_doubling_n_shifts_bic_only(self):
        small = criteria(3.0, k=5, n=100, p=30)
        large = criteria(3.0, k=5, n=200, p=30)
        assert large["aic"] == small["aic"]
        assert large["bic"] - small["bic"] == pytest.approx(5 * math.log(2))
        assert large["ebic"] - small["ebic"] == pytest.approx(5 * math.log(2))

    @given(
        st.floats(-1e6, 1e6),
        st.integers(0, 1000),
        st.integers(2, 10**6),
        st.integers(1, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_identities_exact(self, loglik, k, n, p):
        c = criteria(loglik, k, n, p)
        assert c["deviance"] == -2.0 * loglik
        assert c["aic"] == c["deviance"] + 2.0 * k
        assert c["bic"] == c["deviance"] + k * math.log(n)
        assert c["ebic"] == c["bic"] + 2.0 * k * math.log(p)

    def test_validation(self):
        with pytest.raises(ValueError):
            criteria(0.0, k=-1, n=10, p=2)

    def test_resolve_auto(self):
        assert resolve_criterion("auto", 100, 50) == "aic"
        assert resolve_criterion("auto", 50, 100) == "ebic"
        assert resolve_criterion("bic", 5, 5) == "bic"
        with pytest.raises(ValueError):
            resolve_criterion("dic", 10, 10)

    def test_default_k_max(self):
        assert default_k_max(GAUSSIAN, 200, 20) == 20
        assert default_k_max(GAUSSIAN, 30, 100) == 15
        assert default_k_max(ModelFamily("binomial"), 500, 100) == 80
        assert default_k_max(ModelFamily("cox"), 500, 50) == 50


class TestWarmStart:
    def _out(self, seed=0):
        cfg = GenConfig(n=60, p=8, q=2, family="gaussian", seed=seed, b=1.0, B=2.0)
        ds, _, _ = gen_dataset(cfg)
        return standardize(ds)

    def test_appends_top_sacrifice(self):
        sd = self._out()
        out = pdas(GAUSSIAN, sd, 2)
        grown = warm_start_set(out, 3)
        assert set(out.model.active_set) <= set(grown)
        added = set(grown) - set(out.model.active_set)
        assert len(added) == 1
        inactive = [j for j in range(8) if j not in out.model.active_set]
        best = max(inactive, key=lambda j: (out.delta[j], -j))
        assert added == {best}

    def test_same_size_is_identity(self):
        sd = self._out(1)
        out = pdas(GAUSSIAN, sd, 3)
        assert warm_start_set(out, 3) == out.model.active_set

    def test_tie_rule_prefers_low_index(self):
        out = SimpleNamespace(
            model=SimpleNamespace(active_set=(1,), beta=np.array([0.0, 1.0, 0.0, 0.0])),
            delta=np.array([0.5, 9.0, 0.5, 0.5]),
        )
        assert warm_start_set(out, 3) == (0, 1, 2)

    def test_smaller_size_trims_to_the_largest_abs_beta(self):
        sd = self._out(2)
        out = pdas(GAUSSIAN, sd, 3)
        active = out.model.active_set
        by_size = sorted(active, key=lambda j: -abs(out.model.beta[j]))
        assert warm_start_set(out, 2) == tuple(sorted(by_size[:2]))
        # pdas starts from the trimmed set as given
        trimmed = pdas(GAUSSIAN, sd, 2, init=warm_start_set(out, 2))
        assert trimmed.history[0] == warm_start_set(out, 2)

    def test_trim_ties_go_to_the_lower_index(self):
        beta = np.array([0.0, -2.0, 0.0, 1.0, 2.0, 1.0, -1.0])
        model = SimpleNamespace(active_set=(1, 3, 4, 5, 6), beta=beta)
        out = SimpleNamespace(model=model)
        assert warm_start_set(out, 1) == (1,)
        assert warm_start_set(out, 2) == (1, 4)
        assert warm_start_set(out, 3) == (1, 3, 4)
        assert warm_start_set(out, 4) == (1, 3, 4, 5)
        assert warm_start_set(out, 5) == (1, 3, 4, 5, 6)

    def test_no_previous_output_is_a_cold_start(self):
        # pdas without init starts where the warm start from null_fit does
        sd = self._out(4)
        start = warm_start_set(null_fit(GAUSSIAN, sd), 3)
        cold = pdas(GAUSSIAN, sd, 3)
        assert cold.history[0] == start
        assert cold.history == pdas(GAUSSIAN, sd, 3, init=start).history

    def test_one_definition_in_pdas(self):
        assert warm_start_set is PDAS_MODULE.warm_start_set
        assert not hasattr(importlib.import_module("bestsubset.tuning"), "grow_set")

    def test_from_null_fit(self):
        sd = self._out(3)
        base = null_fit(GAUSSIAN, sd)
        assert len(warm_start_set(base, 1)) == 1

    @pytest.mark.parametrize("k", [-1, True, 2.0, 9])
    def test_size_outside_zero_to_p_raises(self, k):
        # -1 used to drop the smallest |beta| member, True to run as 1, 2.0
        # to fail inside numpy; p + 1 read "between 0 and the number of coordinates"
        out = pdas(GAUSSIAN, self._out(), 2)
        want = f"k must be in [0, 8], got {k!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            warm_start_set(out, k)

    def test_numpy_integer_size_accepted(self):
        out = pdas(GAUSSIAN, self._out(), 2)
        for k in (1, 2, 3):
            assert warm_start_set(out, np.int64(k)) == warm_start_set(out, k)


def replication_data(scn, rep):
    """The standardized training data of ``run_replication(scn, rep)``."""
    rng = np.random.default_rng([scn.seed, rep])
    cfg = scn.gen_config()
    b, B = cfg.magnitude_range()
    X = gen_design(scn.n, scn.p, scn.rho, rng)
    beta_star = gen_beta(scn.p, scn.q, b, B, "random", rng)
    return standardize(Dataset(X, gen_response(scn.family, X, beta_star, cfg, rng)))


# the perfbench ``cox_reps`` smoke scenario
COX_REPS_SMOKE = BenchScenario(
    family="cox", n=100, p=15, q=3, censor_rate=0.2, holdout=200, seed=300,
    methods=("spdas", "gpdas"), criterion="ebic", reps=1,
)
# (family, dataset maker, k_max): cox_reps smoke reps 0-1, then the
# behaviour corpus's datasets
WARM_START_CASES = [
    pytest.param("cox", lambda: replication_data(COX_REPS_SMOKE, 0), None, id="cox-smoke-rep0"),
    pytest.param("cox", lambda: replication_data(COX_REPS_SMOKE, 1), None, id="cox-smoke-rep1"),
    *[
        pytest.param(
            family, lambda cfg=cfg: standardize(gen_dataset(cfg)[0]), 8, id=f"{family}-corpus"
        )
        for family, cfg in (
            ("cox", GenConfig(n=150, p=15, q=3, family="cox", censor_rate=0.2, seed=3)),
            ("binomial", GenConfig(n=500, p=20, q=3, family="binomial", seed=2)),
            ("gaussian", GenConfig(n=100, p=20, q=3, seed=1)),
        )
    ],
]


class TestWarmStartedFits:
    @staticmethod
    def searched(monkeypatch, family, sd, k_max, warm):
        """spdas (EBIC) then gpdas on ``sd``, and the Newton iterations of
        their fits; with ``warm`` False every fit drops its start."""
        iterations = []
        fit = PDAS_MODULE.fit_active

        def fitting(family, d, active, start=None):
            model = fit(family, d, active, start if warm else None)
            iterations.append(model.solver_iterations)
            return model

        with monkeypatch.context() as patch:
            patch.setattr(PDAS_MODULE, "fit_active", fitting)
            path, report = spdas(family, sd, k_max=k_max, criterion="ebic")
            gold, trace = gpdas(family, sd, k_max=k_max)
        return path, report, gold, trace, sum(iterations)

    @pytest.mark.parametrize("tag, make, k_max", WARM_START_CASES)
    def test_same_selections_as_cold_fits(self, monkeypatch, tag, make, k_max):
        family = ModelFamily(tag)
        path, report, gold, trace, iters = self.searched(monkeypatch, family, make(), k_max, True)
        cold_path, cold_report, cold_gold, cold_trace, cold_iters = self.searched(
            monkeypatch, family, make(), k_max, False
        )
        assert [e.active_set for e in path.entries] == [e.active_set for e in cold_path.entries]
        assert (report.k, report.active_set, path.stop) == (
            cold_report.k, cold_report.active_set, cold_path.stop
        )
        assert (gold.k, gold.active_set) == (cold_gold.k, cold_gold.active_set)
        assert (trace.rows, trace.reason, trace.pdas_calls) == (
            cold_trace.rows, cold_trace.reason, cold_trace.pdas_calls
        )
        pairs = list(zip(path.entries, cold_path.entries)) + [(gold, cold_gold)]
        if tag == "cox":
            for a, b in pairs:
                assert a.loss == pytest.approx(b.loss, rel=1e-12, abs=0)
            assert iters < cold_iters
        else:  # binomial and gaussian fits ignore the start
            for a, b in pairs:
                assert (a.loss, a.intercept) == (b.loss, b.intercept)
                np.testing.assert_array_equal(a.beta, b.beta)
            assert iters == cold_iters


class TestSpdas:
    def planted(self, seed=123):
        beta = [0.0] * 20
        beta[0], beta[1], beta[4], beta[8] = 3.0, 1.5, -2.0, -1.0
        cfg = GenConfig(
            n=200, p=20, q=4, family="gaussian", rho=0.2, sigma=1.0,
            beta=tuple(beta), seed=seed,
        )
        ds, _, _ = gen_dataset(cfg)
        return standardize(ds)

    def test_selects_true_support_on_planted_model(self):
        sd = self.planted()
        path, report = spdas(GAUSSIAN, sd, criterion="bic")
        assert {0, 1, 4, 8} <= set(report.active_set)
        aic_k = path.best_by["aic"]
        aic_active = path.entry_for(aic_k).active_set
        assert {0, 1, 4, 8} <= set(aic_active)

    def test_path_contains_null_entry(self):
        sd = self.planted(7)
        path, _ = spdas(GAUSSIAN, sd, k_max=3)
        assert path.entries[0].k == 0
        assert path.entries[0].active_set == ()
        assert [e.k for e in path.entries] == [0, 1, 2, 3]

    def test_k_max_one(self):
        sd = self.planted(8)
        path, report = spdas(GAUSSIAN, sd, k_max=1)
        assert [e.k for e in path.entries] == [0, 1]
        assert report.k in (0, 1)

    def test_best_by_is_argmin_over_path(self):
        sd = self.planted(9)
        path, _ = spdas(GAUSSIAN, sd, k_max=10)
        for name in ("aic", "bic", "ebic"):
            values = {e.k: e.criteria[name] for e in path.entries}
            best = min(values, key=lambda k: (values[k], k))
            assert path.best_by[name] == best

    def test_determinism(self):
        sd = self.planted(10)
        p1, r1 = spdas(GAUSSIAN, sd, k_max=8)
        p2, r2 = spdas(GAUSSIAN, sd, k_max=8)
        assert r1.active_set == r2.active_set
        assert [e.active_set for e in p1.entries] == [e.active_set for e in p2.entries]
        for e1, e2 in zip(p1.entries, p2.entries):
            np.testing.assert_array_equal(e1.beta, e2.beta)

    def test_early_stop_truncates_path(self):
        sd = self.planted(11)
        path, _ = spdas(GAUSSIAN, sd, k_max=20, epsilon=0.05)
        assert path.entries[-1].k < 20
        assert path.stop == "epsilon"

    def test_null_model_selected_on_pure_noise(self):
        # EBIC under the null: selected size is 0 or 1 nearly always
        hits = 0
        total = 50
        for seed in range(total):
            cfg = GenConfig(n=200, p=500, q=0, family="gaussian", seed=seed)
            ds, _, _ = gen_dataset(cfg)
            sd = standardize(ds)
            _, report = spdas(GAUSSIAN, sd, k_max=8, criterion="ebic")
            if report.k <= 1:
                hits += 1
        assert hits >= 0.9 * total

    def test_k_max_validation(self):
        sd = self.planted(12)
        with pytest.raises(ValueError):
            spdas(GAUSSIAN, sd, k_max=0)
        with pytest.raises(ValueError):
            spdas(GAUSSIAN, sd, k_max=21)

    def test_report_is_the_chosen_path_entry(self):
        sd = self.planted(14)
        for criterion in ("aic", "bic", "ebic"):
            path, report = spdas(GAUSSIAN, sd, k_max=8, criterion=criterion)
            assert report is path.entry_for(report.k)
            assert report.k == path.best_by[criterion]

    def test_entries_are_reports_with_one_loglik(self):
        for tag in ("gaussian", "binomial", "cox"):
            family = ModelFamily(tag)
            cfg = GenConfig(n=120, p=15, q=3, family=tag, seed=15)
            sd = standardize(gen_dataset(cfg)[0])
            path, _ = spdas(family, sd, k_max=5, criterion="bic")
            for e in path.entries:
                assert (e.family, e.method, e.criterion) == (tag, "sequential", "bic")
                assert e.loglik == loglik_from_loss(family, 120, e.loss)
                assert e.criteria["deviance"] == -2.0 * e.loglik

    def test_loss_monotone_on_strong_signal_path(self):
        sd = self.planted(13)
        path, _ = spdas(GAUSSIAN, sd, k_max=10)
        losses = [e.loss for e in path.entries]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# (config, k_max): k_max = p bounds by the fit on all p columns; below p,
# binomial and cox bound by 0 and gaussian has no bound.  The last two
# full fits are separated: "converged" at loss ~5e-8, above the loss some
# path sizes reach, so their bound is not exact.
STOP_CORPUS = [
    (GenConfig(n=100, p=12, q=3, rho=0.2, seed=41), None),
    (GenConfig(n=100, p=30, q=3, rho=0.2, seed=42), 20),
    (GenConfig(n=150, p=12, q=3, family="binomial", seed=43), None),
    (GenConfig(n=150, p=40, q=3, family="binomial", seed=44), 20),
    (GenConfig(n=150, p=12, q=3, family="cox", censor_rate=0.2, seed=45), None),
    (GenConfig(n=150, p=40, q=3, family="cox", seed=46), 20),
    (GenConfig(n=30, p=8, q=2, family="binomial", rho=0.5, seed=15), 8),
    (GenConfig(n=25, p=8, q=2, family="cox", rho=0.5, censor_rate=0.7, seed=24), 8),
]


def stop_instance(cfg, k_max, seed_offset):
    cfg = dataclasses.replace(cfg, seed=cfg.seed + 1000 * seed_offset)
    family = ModelFamily(cfg.family)
    sd = standardize(gen_dataset(cfg)[0])
    k_max = default_k_max(family, cfg.n, cfg.p) if k_max is None else k_max
    return family, sd, k_max


def duplicated_column_instance():
    """Gaussian n100/p10 whose last column copies column 3: a singular full Gram."""
    rng = np.random.default_rng(17)
    X = rng.standard_normal((100, 10))
    X[:, 9] = X[:, 3]
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + rng.standard_normal(100)
    return standardize(Dataset(X, Continuous(y)))


class TestCertifiedStop:
    @pytest.mark.parametrize("seed_offset", [0, 1])
    @pytest.mark.parametrize("cfg, k_max", STOP_CORPUS)
    def test_stopped_path_is_a_prefix_with_the_same_choice(self, cfg, k_max, seed_offset):
        family, sd, k_max = stop_instance(cfg, k_max, seed_offset)
        n, p = sd.dataset.n, sd.dataset.p
        outs = full_sweep(family, sd, k_max)
        for criterion in CRITERIA:
            path, report = spdas(family, sd, k_max=k_max, criterion=criterion)
            assert len(path.entries) <= len(outs)
            for entry, out in zip(path.entries, outs):
                assert entry.k == out.k
                assert entry.active_set == out.model.active_set
                assert entry.loss == out.loss
                np.testing.assert_array_equal(entry.beta, out.model.beta)

            def value(out, criterion=criterion):
                loglik = loglik_from_loss(family, n, out.loss)
                return criteria(loglik, out.k, n, p)[criterion]

            best = min(outs, key=lambda out: (value(out), out.k))
            assert (report.k, report.active_set, report.loss) == (
                best.k, best.model.active_set, best.loss
            )
            last = path.entries[-1].k
            assert path.stop == ("k_max" if last == k_max else "certified")

    def test_corpus_stops_early_in_every_family(self):
        stopped = set()
        for cfg, k_max in STOP_CORPUS:
            family, sd, k_max = stop_instance(cfg, k_max, 0)
            path, _ = spdas(family, sd, k_max=k_max, criterion="ebic")
            if path.stop == "certified":
                assert path.entries[-1].k < k_max
                stopped.add((family.tag, k_max == sd.dataset.p))
        # each family by the full fit, and binomial by the zero bound; a cox
        # partial likelihood is too far above 0 for that bound to end a sweep
        assert stopped == {
            ("gaussian", True), ("binomial", True), ("binomial", False), ("cox", True)
        }

    @pytest.mark.parametrize("epsilon", [0.5, 0.05, 0.005, 1e-4])
    @pytest.mark.parametrize("cfg, k_max", STOP_CORPUS)
    def test_epsilon_wins_where_it_ends_first(self, cfg, k_max, epsilon):
        family, sd, k_max = stop_instance(cfg, k_max, 0)
        outs = full_sweep(family, sd, k_max)
        certified, _ = spdas(family, sd, k_max=k_max, criterion="bic")
        k_cert = certified.entries[-1].k
        k_eps = epsilon_stop_k(outs, epsilon)
        path, _ = spdas(family, sd, k_max=k_max, criterion="bic", epsilon=epsilon)
        if k_eps is not None and k_eps <= k_cert:
            expected = (k_eps, "epsilon")
        else:
            expected = (k_cert, certified.stop)
        assert (path.entries[-1].k, path.stop) == expected

    def test_ridge_full_fit_gives_no_bound(self):
        sd = duplicated_column_instance()
        assert loglik_ceiling(GAUSSIAN, sd, 10) is None
        with pytest.warns(RuntimeWarning, match="singular"):
            path, report = spdas(GAUSSIAN, sd, criterion="ebic")
        # the sweep ends at k_max = p as it always did, and picks columns 0 and 1
        assert (path.stop, len(path.entries)) == ("k_max", 11)
        assert report.active_set == (0, 1)

    def test_ridge_full_fit_stays_out_of_the_shared_memo(self):
        # gpdas fits all p columns first, taking the ridge fallback; the
        # sweep after it on the same dataset still refuses that fit's bound
        sd = duplicated_column_instance()
        with pytest.warns(RuntimeWarning, match="singular"):
            gpdas(GAUSSIAN, sd, k_max=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            path, report = spdas(GAUSSIAN, sd, criterion="ebic")
            fresh_path, fresh_report = spdas(
                GAUSSIAN, duplicated_column_instance(), criterion="ebic"
            )
        assert path.stop == fresh_path.stop == "k_max"
        assert [(e.active_set, e.loss) for e in path.entries] == [
            (e.active_set, e.loss) for e in fresh_path.entries
        ]
        assert (report.k, report.active_set, report.loss) == (
            fresh_report.k, fresh_report.active_set, fresh_report.loss
        )

    def test_spdas_then_gpdas_fit_the_full_set_once(self, monkeypatch):
        family = ModelFamily("cox")
        cfg = GenConfig(n=120, p=8, q=2, family="cox", censor_rate=0.2, seed=3)
        sd = standardize(gen_dataset(cfg)[0])
        fitted = []
        for module in (TUNING_MODULE, PDAS_MODULE):
            def counting(family, d, active, start=None, fit=module.fit_active):
                fitted.append(tuple(active))
                return fit(family, d, active, start)

            monkeypatch.setattr(module, "fit_active", counting)
        spdas(family, sd, k_max=8)
        gpdas(family, sd, k_max=8)
        # the sweep's bound fit, which gpdas's k_max = p run finds in the memo
        assert fitted.count(tuple(range(8))) == 1
        assert len(fitted) == len(set(fitted))

    def test_ceiling_by_family_and_k_max(self):
        for tag in ("binomial", "cox"):
            family = ModelFamily(tag)
            sd = standardize(gen_dataset(GenConfig(n=80, p=6, q=2, family=tag, seed=5))[0])
            assert loglik_ceiling(family, sd, 5) == 0.0
            full = fit_active(family, sd, range(6))
            assert full.solver_converged
            assert loglik_ceiling(family, sd, 6) == -full.loss
        sd = standardize(gen_dataset(GenConfig(n=80, p=6, q=2, seed=5))[0])
        assert loglik_ceiling(GAUSSIAN, sd, 5) is None
        full = fit_active(GAUSSIAN, sd, range(6))
        assert loglik_ceiling(GAUSSIAN, sd, 6) == loglik_from_loss(GAUSSIAN, 80, full.loss)

    def test_non_converged_full_fit_gives_the_zero_bound(self, monkeypatch):
        family = ModelFamily("binomial")
        sd = standardize(gen_dataset(GenConfig(n=80, p=6, q=2, family="binomial", seed=5))[0])
        full = fit_active(family, sd, range(6))
        stalled = CoefficientModel(full.beta, full.intercept, full.active_set, False, 100, full.loss)
        tuning_module = importlib.import_module("bestsubset.tuning")
        monkeypatch.setattr(tuning_module, "fit_active", lambda *args: stalled)
        assert loglik_ceiling(family, sd, 6) == 0.0

    @pytest.mark.parametrize("tag, bound", [("gaussian", None), ("binomial", 0.0), ("cox", 0.0)])
    def test_raising_full_fit_gives_the_fallback_bound(self, monkeypatch, tag, bound):
        family = ModelFamily(tag)
        sd = standardize(gen_dataset(GenConfig(n=80, p=6, q=2, family=tag, seed=5))[0])
        fit = TUNING_MODULE.fit_active

        def raising(family, d, active, start=None):
            if len(active) == 6:
                raise ValueError("non-finite entries in Newton system")
            return fit(family, d, active, start)

        monkeypatch.setattr(TUNING_MODULE, "fit_active", raising)
        assert loglik_ceiling(family, sd, 6) == bound
        assert tuple(range(6)) not in problem(sd).fits

    @pytest.mark.parametrize("tag", ["gaussian", "cox"])
    def test_full_fit_that_raises_unpatched(self, tag):
        # gaussian with n < p: the fit on all p columns is over the size cap;
        # this cox design warns five times on its full fit, then meets a
        # non-finite Newton system
        cfg = {
            "gaussian": GenConfig(n=6, p=8, q=2, seed=1),
            "cox": GenConfig(n=30, p=8, q=3, family="cox", rho=0.5, censor_rate=0.2, seed=5),
        }[tag]
        family = ModelFamily(tag)
        sd = standardize(gen_dataset(cfg)[0])
        with warnings.catch_warnings(), pytest.raises(ValueError):
            warnings.simplefilter("ignore", RuntimeWarning)
            fit_active(family, sd, range(8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bound = loglik_ceiling(family, sd, 8)
        assert (bound, caught) == ({"gaussian": None, "cox": 0.0}[tag], [])
        assert tuple(range(8)) not in problem(sd).fits

    def test_logit_reps_scenario_is_certified_by_k_14(self, monkeypatch):
        scn = BenchScenario(
            family="binomial", n=500, p=100, q=5, reps=1, methods=("spdas",),
            criterion="ebic", holdout=1000, seed=200,
        )
        paths = []

        def recording(*args, **kwargs):
            paths.append(spdas(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(bench, "spdas", recording)
        record = run_replication(scn, 0)
        (path, report), = paths
        assert path.stop == "certified"
        assert path.entries[-1].k <= 14 < default_k_max(ModelFamily("binomial"), 500, 100)
        assert record["methods"]["spdas"]["k"] == report.k


def elbow_curve(elbow, flat_slope=1e-4, drop=2.0, base=1.0):
    def f(k):
        if k <= elbow:
            return base + drop * (elbow - k)
        return base - flat_slope * (k - elbow)

    return f


class TestGoldenSectionSearch:
    def test_split_point_rounding(self):
        assert split_point(1, 25) == 16
        assert split_point(1, 16) == 10
        assert split_point(1, 10) == 7
        assert split_point(1, 7) == 5
        assert split_point(5, 7) == 6

    def test_reference_split_sequence(self):
        curve = elbow_curve(6)
        run = lambda k, prev: SimpleNamespace(loss=curve(k))
        out, rows, reason, calls = golden_section_search(run, 25, eta=0.01, m_max=50)
        assert [(kl, km, kr) for _, kl, km, kr in rows] == [
            (1, 16, 25),
            (1, 10, 16),
            (1, 7, 10),
            (1, 5, 7),
            (5, 6, 7),
        ]
        assert reason == "elbow"
        assert out.loss == curve(6)
        # the splits 16, 10 and 7 lie on the flat part: only 5 and 6 probe k_M + 1
        assert calls == 2 + 2 * len(rows) + 2

    def test_interval_shrinks_each_iteration(self):
        curve = elbow_curve(6)
        run = lambda k, prev: SimpleNamespace(loss=curve(k))
        _, rows, _, _ = golden_section_search(run, 25, eta=0.01, m_max=50)
        widths = [kr - kl for _, kl, _, kr in rows]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_no_flat_out_probe_without_a_drop(self):
        # a slow slope: no split's loss drops by more than eta into it
        run_log = []

        def run(k, prev):
            run_log.append(k)
            return SimpleNamespace(k=k, loss=1.0 - 1e-4 * k)

        _, rows, reason, calls = golden_section_search(run, 50, eta=0.01, m_max=50)
        assert reason == "interval-collapse" and len(rows) >= 5
        # the ends, then each split and k_M - 1: k_M + 1 is never solved
        splits = [km for _, _, km, _ in rows]
        assert run_log == [1, 50] + [k for km in splits for k in (km, km - 1)]
        assert calls == len(run_log) == 2 + 2 * len(rows)

    def test_flat_loss_collapses_quickly(self):
        run = lambda k, prev: SimpleNamespace(loss=1.0)
        _, rows, reason, _ = golden_section_search(run, 3, eta=0.01, m_max=50)
        assert reason == "interval-collapse"
        assert len(rows) <= 2

    @given(
        st.integers(3, 400),
        st.lists(st.floats(0.0, 10.0), min_size=400, max_size=400),
        st.sampled_from([1e-3, 0.01, 0.2]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_probes_stay_in_range_and_count_every_call(
        self, k_max, steps, eta, decreasing
    ):
        # a random monotone loss curve: cumulative sums of nonnegative steps
        levels = np.cumsum(steps)
        curve = levels[::-1] if decreasing else levels
        probed = []

        def solve(k, prev):
            return SimpleNamespace(k=k, loss=float(curve[k - 1]))

        def run(k, prev):
            # never re-solved: no run gets an output at its own size
            assert prev is None or prev.k != k
            probed.append(k)
            return solve(k, prev)

        out, rows, reason, calls = golden_section_search(run, k_max, eta, m_max=100)
        assert all(1 <= k <= k_max for k in probed)
        old_out, old_rows, old_reason, drops = five_call_search(solve, k_max, eta, 100)
        assert calls == len(probed) == 2 + 2 * len(rows) + drops
        assert (out.k, rows, reason) == (old_out.k, old_rows, old_reason)
        assert all(kl < km < kr for _, kl, km, kr in rows)
        assert out.k == rows[-1][2]
        assert reason in ("elbow", "interval-collapse", "max-iter")

    def test_validation(self):
        run = lambda k, prev: SimpleNamespace(loss=1.0)
        with pytest.raises(ValueError):
            golden_section_search(run, 2, eta=0.01, m_max=5)
        with pytest.raises(ValueError):
            golden_section_search(run, 10, eta=1.5, m_max=5)


class TestGpdas:
    def test_trace_line_format(self):
        cfg = GenConfig(n=150, p=20, q=4, family="gaussian", seed=5, b=1.0, B=3.0)
        ds, _, _ = gen_dataset(cfg)
        sd = standardize(ds)
        report, trace = gpdas(GAUSSIAN, sd, k_max=15)
        lines = trace.lines()
        assert lines
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"{i}-th iteration s.left:")
            assert " s.split:" in line and " s.right:" in line
        for i, kl, km, kr in trace.rows:
            assert kl < km < kr
            assert km == split_point(kl, kr)
        assert report.k == trace.terminal_k
        assert trace.reason in ("elbow", "interval-collapse", "max-iter")

    def test_pdas_call_budget(self, monkeypatch):
        cfg = GenConfig(n=150, p=20, q=4, family="gaussian", seed=6, b=1.0, B=3.0)
        ds, _, _ = gen_dataset(cfg)
        sd = standardize(ds)
        sizes = []

        def counting_pdas(family, d, k, *args, **kwargs):
            sizes.append(k)
            return pdas(family, d, k, *args, **kwargs)

        monkeypatch.setattr(TUNING_MODULE, "pdas", counting_pdas)
        _, trace = gpdas(GAUSSIAN, sd, k_max=15)
        # 6 iterations, 3 of whose splits pass the drop test
        assert trace.pdas_calls == len(sizes) == 2 + 2 * len(trace.rows) + 3

    def test_pdas_call_bound_on_long_search(self):
        # this search runs 66 iterations and ends by interval-collapse at k=12
        cfg = GenConfig(n=500, p=100, q=10, family="gaussian", rho=0.2, seed=3)
        sd = standardize(gen_dataset(cfg)[0])
        _, trace = gpdas(GAUSSIAN, sd)
        drops = LONG_SEARCH_DROPS["gaussian"]
        assert trace.pdas_calls == 2 + 2 * len(trace.rows) + drops
        assert len(trace.rows) <= 100

    def test_finds_true_size_on_strong_signal(self):
        hits = 0
        supported = 0
        total = 50
        for seed in range(total):
            cfg = GenConfig(
                n=400, p=20, q=4, family="gaussian", rho=0.2, sigma=0.5,
                b=1.5, B=4.0, seed=20_000 + seed,
            )
            ds, _, support = gen_dataset(cfg)
            sd = standardize(ds)
            report, _ = gpdas(GAUSSIAN, sd, k_max=20)
            if 4 <= report.k <= 8:
                hits += 1
            if set(support) <= set(report.active_set):
                supported += 1
        assert hits >= 0.9 * total
        assert supported >= 0.9 * total

    def test_rejects_k_max_beyond_cap_by_name(self):
        sd = standardize(gen_dataset(GenConfig(n=100, p=20, q=3, seed=1))[0])
        with pytest.raises(ValueError, match=r"k_max must be in \[1, 20\], got 500"):
            gpdas(GAUSSIAN, sd, k_max=500)
        # n < p: the gaussian cap is n
        wide = standardize(gen_dataset(GenConfig(n=10, p=20, q=2, seed=1))[0])
        for search in (gpdas, spdas):
            with pytest.raises(ValueError, match=r"k_max must be in \[1, 10\], got 11"):
                search(GAUSSIAN, wide, k_max=11)

    @pytest.mark.parametrize("search", [spdas, gpdas])
    @pytest.mark.parametrize("k_max", [5.0, np.float64(5), True])
    def test_non_integer_k_max_raises(self, search, k_max):
        sd = standardize(gen_dataset(GenConfig(n=100, p=20, q=3, seed=1))[0])
        want = f"k_max must be in [1, 20], got {k_max!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            search(GAUSSIAN, sd, k_max=k_max)

    @pytest.mark.parametrize("cfg", LONG_SEARCHES, ids=lambda c: c.family)
    def test_each_set_fitted_once_per_call(self, monkeypatch, cfg):
        sd = standardize(gen_dataset(cfg)[0])
        fitted = []

        def counting_fit(family, d, active, start=None):
            fitted.append(tuple(active))
            return fit_active(family, d, active, start)

        monkeypatch.setattr(PDAS_MODULE, "fit_active", counting_fit)
        gpdas(ModelFamily(cfg.family), sd)
        assert fitted and len(fitted) == len(set(fitted))

    def test_one_null_fit_per_call(self, monkeypatch):
        sd = standardize(gen_dataset(GenConfig(n=150, p=20, q=4, seed=6))[0])
        calls = []

        def counting_null_fit(*args, **kwargs):
            calls.append(args)
            return null_fit(*args, **kwargs)

        for module in (TUNING_MODULE, PDAS_MODULE):
            monkeypatch.setattr(module, "null_fit", counting_null_fit)
        _, trace = gpdas(GAUSSIAN, sd, k_max=15)
        assert trace.pdas_calls >= 5 and len(calls) == 1

    @pytest.mark.parametrize("cfg", LONG_SEARCHES, ids=lambda c: c.family)
    def test_same_result_as_memo_free_search(self, cfg):
        family = ModelFamily(cfg.family)
        sd = standardize(gen_dataset(cfg)[0])
        report, trace = gpdas(family, sd)
        k_max = default_k_max(family, cfg.n, cfg.p)
        out, rows, reason, calls = memo_free_gpdas(family, sd, k_max)
        assert (report.k, report.active_set) == (out.k, out.model.active_set)
        assert report.loss == out.loss
        np.testing.assert_array_equal(report.beta, out.model.beta)
        assert report.pdas_iterations == out.iterations
        assert report.pdas_converged == out.converged
        assert (trace.rows, trace.reason, trace.pdas_calls) == (rows, reason, calls)
        assert trace.pdas_calls == 2 + 2 * len(trace.rows) + LONG_SEARCH_DROPS[cfg.family]

    @pytest.mark.parametrize(
        "cfg, k_max", HELD_END_SEARCHES,
        ids=["gaussian", "binomial", "cox", "gate-02", "long-gaussian", "long-binomial"],
    )
    def test_same_result_as_five_call_search(self, cfg, k_max):
        # holding the interval-end outputs changes no result of the search
        # that re-solved both ends every iteration; its runs share the memo
        # of a fresh standardization, none of whose fits gpdas made
        family = ModelFamily(cfg.family)
        sd = standardize(gen_dataset(cfg)[0])
        report, trace = gpdas(family, sd, k_max=k_max)
        fresh = standardize(gen_dataset(cfg)[0])

        def run(k, prev):
            init = None if prev is None else warm_start_set(prev, k)
            return pdas(family, fresh, k, init=init)

        k_max = k_max or default_k_max(family, cfg.n, cfg.p)
        out, rows, reason, drops = five_call_search(run, k_max, 0.01, 100)
        assert (report.k, report.active_set) == (out.k, out.model.active_set)
        assert report.loss == out.loss
        np.testing.assert_array_equal(report.beta, out.model.beta)
        assert report.intercept == out.model.intercept
        assert report.pdas_iterations == out.iterations
        assert report.pdas_converged == out.converged
        assert (trace.rows, trace.reason) == (rows, reason)
        assert trace.pdas_calls == 2 + 2 * len(rows) + drops


@pytest.mark.parametrize("k", [-1, 3])
def test_entry_for_a_size_off_the_path(k):
    path, _ = spdas(GAUSSIAN, standardize(gen_dataset(GenConfig(n=40, p=6, q=2, seed=1))[0]), k_max=2)
    with pytest.raises(KeyError, match=f"^'no path entry for k={k}'$"):
        path.entry_for(k)


# An open defect (ROADMAP item 11): with k_max = p = 8 both searches on this
# design meet a non-finite Newton system and the error escapes (k_max = 7
# passes).  Strict: once that is fixed, these fail until their mark is removed.
OPEN_COX_CRASH = GenConfig(n=30, p=8, q=3, family="cox", rho=0.5, censor_rate=0.2, seed=5)


@pytest.mark.xfail(strict=True, raises=ValueError, reason="non-finite cox Newton system")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("search", ["spdas", "gpdas"])
def test_open_cox_crash_returns_a_report(search):
    sd = standardize(gen_dataset(OPEN_COX_CRASH)[0])
    if search == "spdas":
        report = spdas(ModelFamily("cox"), sd)[1]  # default k_max = p
    else:
        report = gpdas(ModelFamily("cox"), sd, k_max=8)[0]
    assert isinstance(report, SelectionReport)

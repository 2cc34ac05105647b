import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestsubset.data import Continuous, Dataset, standardize
from bestsubset.datagen import GenConfig, gen_dataset
from bestsubset.families import ModelFamily, dual_sacrifice, fit_active, loss, problem
from bestsubset.oracle import exhaustive_best_subset
from bestsubset.pdas import null_fit, pdas, select_top_k, warm_start_set
from bestsubset.tuning import gpdas, spdas
from conftest import model_value, random_standardized, random_subset

GAUSSIAN = ModelFamily("gaussian")


def orthonormal_instance(seed=0, n=32, p=6, signal_col=3, scale=5.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q - Q.mean(axis=0)
    X *= math.sqrt(n) / np.linalg.norm(X, axis=0)
    y = scale * X[:, signal_col] + 1e-3 * rng.standard_normal(n)
    return standardize(Dataset(X, Continuous(y)))


def stable_argsort_top_k(delta, k):
    """The earlier full-sort selection, kept as the reference."""
    if k == 0:
        return ()
    order = np.argsort(-np.asarray(delta), kind="stable")
    return tuple(sorted(int(j) for j in order[:k]))


class TestSelectTopK:
    def test_simple(self):
        assert select_top_k(np.array([3.0, 1.0, 2.0]), 2) == (0, 2)

    def test_ties_prefer_low_indices(self):
        assert select_top_k(np.array([1.0, 1.0, 1.0, 1.0]), 2) == (0, 1)

    def test_k_zero(self):
        assert select_top_k(np.array([1.0, 2.0]), 0) == ()

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_top_k(np.array([1.0]), 2)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            select_top_k(np.array([1.0, 2.0]), -1)

    @pytest.mark.parametrize("k", [True, 2.0])
    def test_non_integer_k_rejected(self, k):
        # True used to pick one index and 2.0 to fail inside numpy
        want = f"k must be in [0, 3], got {k!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            select_top_k(np.array([3.0, 1.0, 2.0]), k)

    def test_numpy_integer_k_accepted(self):
        assert select_top_k(np.array([3.0, 1.0, 2.0]), np.int32(2)) == (0, 2)

    def test_inf_first_nan_last(self):
        delta = np.array([1.0, np.nan, 3.0, np.inf, 3.0, -np.inf, np.nan])
        picks = [select_top_k(delta, k) for k in range(8)]
        assert picks[1] == (3,)
        assert picks[3] == (2, 3, 4)
        assert picks[5] == (0, 2, 3, 4, 5)
        assert picks[6] == (0, 1, 2, 3, 4, 5)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]),
                st.floats(-3.0, 3.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort_for_every_k(self, values):
        delta = np.array(values)
        for k in range(len(values) + 1):
            assert select_top_k(delta, k) == stable_argsort_top_k(delta, k)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort_on_integer_ties(self, values):
        delta = np.array(values)
        for k in range(len(values) + 1):
            assert select_top_k(delta, k) == stable_argsort_top_k(delta, k)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort(self, values, data):
        delta = np.array(values)
        k = data.draw(st.integers(0, len(values)))
        chosen = select_top_k(delta, k)
        assert len(chosen) == k
        assert chosen == tuple(sorted(chosen))
        if k and k < len(values):
            kth = sorted(values, reverse=True)[k - 1]
            assert all(delta[j] >= kth for j in chosen)
            # when the boundary value is unique the set matches a plain sort
            if values.count(kth) == 1:
                ref = sorted(range(len(values)), key=lambda j: -delta[j])[:k]
                assert chosen == tuple(sorted(ref))


class TestPdas:
    def test_orthonormal_recovers_signal_column_fast(self):
        sd = orthonormal_instance()
        for init in [(0,), (1,), (5,)]:
            out = pdas(GAUSSIAN, sd, 1, init=init)
            assert out.model.active_set == (3,)
            assert out.converged
            assert out.iterations <= 2

    def test_matches_exhaustive_oracle_on_planted_instance(self):
        cfg = GenConfig(
            n=200, p=12, q=4, family="gaussian", rho=0.2, sigma=1.0,
            b=1.0, B=3.0, seed=314,
        )
        ds, _, support = gen_dataset(cfg)
        sd = standardize(ds)
        out = pdas(GAUSSIAN, sd, 4)
        oracle = exhaustive_best_subset(GAUSSIAN, sd, 4)
        assert out.model.active_set == oracle.active_set
        assert out.loss == pytest.approx(oracle.loss, rel=1e-10)
        assert set(support) == set(oracle.active_set)

    def test_k_equals_p_is_unrestricted_fit(self):
        sd = orthonormal_instance(seed=3, p=5)
        out = pdas(GAUSSIAN, sd, 5)
        assert out.model.active_set == tuple(range(5))
        assert out.iterations == 1
        full = fit_active(GAUSSIAN, sd, tuple(range(5)))
        np.testing.assert_allclose(out.model.beta, full.beta)

    def test_determinism(self):
        cfg = GenConfig(n=100, p=15, q=3, family="gaussian", seed=9, b=0.5, B=2.0)
        ds, _, _ = gen_dataset(cfg)
        sd = standardize(ds)
        a = pdas(GAUSSIAN, sd, 3, init=(0, 1, 2))
        b = pdas(GAUSSIAN, sd, 3, init=(0, 1, 2))
        assert a.model.active_set == b.model.active_set
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.beta, b.model.beta)

    def test_fixed_point_certification(self):
        for seed in range(4):
            cfg = GenConfig(
                n=120, p=10, q=3, family="gaussian", seed=seed, b=0.8, B=2.0
            )
            ds, _, _ = gen_dataset(cfg)
            sd = standardize(ds)
            out = pdas(GAUSSIAN, sd, 3)
            if not out.converged:
                continue
            again = pdas(GAUSSIAN, sd, 3, init=out.model.active_set, m_max=1)
            assert again.model.active_set == out.model.active_set
            assert again.converged

    def test_replay_history_shows_complementary_supports(self):
        cfg = GenConfig(n=80, p=10, q=2, family="gaussian", seed=21, b=0.3, B=1.0)
        ds, _, _ = gen_dataset(cfg)
        sd = standardize(ds)
        out = pdas(GAUSSIAN, sd, 3)
        # replay every visited active set and check the invariants held there
        prev = None
        for active in out.history:
            model = fit_active(GAUSSIAN, sd, active)
            gamma, delta = dual_sacrifice(GAUSSIAN, sd, model)
            inactive = [j for j in range(10) if j not in active]
            assert all(model.beta[j] == 0.0 for j in inactive)
            assert all(gamma[j] == 0.0 for j in active)
            if prev is not None:
                assert select_top_k(prev, 3) == active
            prev = delta

    def test_converged_state_orders_sacrifices(self):
        cfg = GenConfig(n=150, p=12, q=3, family="gaussian", seed=33, b=1.0, B=2.0)
        ds, _, _ = gen_dataset(cfg)
        sd = standardize(ds)
        out = pdas(GAUSSIAN, sd, 3)
        assert out.converged
        on = np.zeros(12, dtype=bool)
        on[list(out.model.active_set)] = True
        assert out.delta[on].min() >= out.delta[~on].max()

    def test_init_padding_and_truncation(self):
        # warm_start_set pads and truncates; pdas runs from the sized set
        sd = orthonormal_instance(seed=5, p=6)
        one = pdas(GAUSSIAN, sd, 1, init=(1,), m_max=1)
        small = pdas(GAUSSIAN, sd, 3, init=warm_start_set(one, 3))
        assert len(small.model.active_set) == 3 and 1 in small.history[0]
        four = pdas(GAUSSIAN, sd, 4, init=(0, 1, 2, 3), m_max=1)
        big = pdas(GAUSSIAN, sd, 2, init=warm_start_set(four, 2))
        assert len(big.model.active_set) == 2
        assert set(big.history[0]) <= {0, 1, 2, 3}

    def test_init_padding_keeps_init_then_top_null_sacrifices(self):
        cfg = GenConfig(n=80, p=10, q=3, family="gaussian", seed=41)
        sd = standardize(gen_dataset(cfg)[0])
        _, delta0 = dual_sacrifice(GAUSSIAN, sd, fit_active(GAUSSIAN, sd, ()))
        for init in ((1,), (2, 7), (0, 5, 9)):
            chosen = set(init)
            for j in np.argsort(-delta0, kind="stable"):
                if len(chosen) == 5:
                    break
                chosen.add(int(j))
            model = SimpleNamespace(active_set=init, beta=np.zeros(10))
            prev = SimpleNamespace(model=model, delta=delta0)
            start = warm_start_set(prev, 5)
            assert start == tuple(sorted(chosen))
            out = pdas(GAUSSIAN, sd, 5, init=start, m_max=1)
            assert out.history[0] == start

    @pytest.mark.parametrize("init", [(1,), (0, 1, 2, 3), (1, 1, 2), (2, 1, 2)])
    def test_wrong_size_init_raises(self, init):
        sd = orthonormal_instance(seed=5, p=6)
        if len(set(init)) < len(init):  # the set rule is read before the size
            want = r"^indices must be distinct integers in \[0, 6\), got "
        else:
            want = rf"^init size must be in \[3, 3\], got {len(init)}$"
        with pytest.raises(ValueError, match=want):
            pdas(GAUSSIAN, sd, 3, init=init)

    @pytest.mark.parametrize("init", [(-1, 2, 3), (0, 1, 6), (0, 1, 60)])
    def test_out_of_range_init_raises(self, init):
        sd = orthonormal_instance(seed=5, p=6)
        with pytest.raises(ValueError, match=r"^indices must be distinct integers in \[0, 6\), got "):
            pdas(GAUSSIAN, sd, 3, init=init)

    @pytest.mark.parametrize(
        "init", [(1.7, 3.2), (1.0, 3), (np.float64(1), 3), (True, 3), (np.True_, 3)]
    )
    def test_non_integer_init_raises(self, init):
        # int() would run (1.7, 3.2) from (1, 3) and read True as 1
        sd = orthonormal_instance(seed=5, p=6)
        with pytest.raises(ValueError, match=r"^indices must be distinct integers in \[0, 6\), got "):
            pdas(GAUSSIAN, sd, 2, init=init, m_max=1)

    def test_numpy_integer_init_accepted(self):
        sd = orthonormal_instance(seed=5, p=6)
        for init in ((np.int64(1), np.int32(3)), np.array([3, 1])):
            out = pdas(GAUSSIAN, sd, 2, init=init, m_max=1)
            assert out.history[0] == (1, 3)

    def test_k_validation(self):
        sd = orthonormal_instance(seed=7, p=4)
        with pytest.raises(ValueError):
            pdas(GAUSSIAN, sd, 0)
        with pytest.raises(ValueError):
            pdas(GAUSSIAN, sd, 5)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(k=2.0), "k"),
            (dict(k=True), "k"),
            (dict(k=2, m_max=3.0), "m_max"),
            (dict(k=2, m_max=np.True_), "m_max"),
        ],
    )
    def test_non_integer_size_raises(self, kwargs, name):
        # k=True and m_max=True used to run as 1; the floats failed inside numpy
        sd = orthonormal_instance(seed=5, p=6)
        high = {"k": 6, "m_max": math.inf}[name]
        want = f"{name} must be in [1, {high}], got {kwargs[name]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            pdas(GAUSSIAN, sd, **kwargs)

    def test_numpy_integer_sizes_accepted(self):
        sd = orthonormal_instance(seed=5, p=6)
        out = pdas(GAUSSIAN, sd, np.int64(2), m_max=np.int32(3))
        assert out.model.active_set == pdas(GAUSSIAN, sd, 2, m_max=3).model.active_set

    def test_k_exceeding_n_rejected_for_gaussian(self, rng):
        X = rng.standard_normal((4, 8))
        sd = standardize(Dataset(X, Continuous(rng.standard_normal(4))))
        with pytest.raises(ValueError, match=r"^k must be in \[1, 4\], got 6$"):
            pdas(GAUSSIAN, sd, 6)

    def test_iterations_bounded_by_m_max(self):
        cfg = GenConfig(n=60, p=20, q=0, family="gaussian", seed=50)
        ds, _, _ = gen_dataset(cfg)  # pure noise: weak signal, may cycle
        sd = standardize(ds)
        for seed in range(5):
            init = random_subset(20, 4, np.random.default_rng(seed))
            out = pdas(GAUSSIAN, sd, 4, init=init, m_max=7)
            assert out.iterations <= 7
            assert len(out.model.active_set) == 4

    def test_cycle_returns_best_visited_loss(self):
        cfg = GenConfig(n=60, p=25, q=0, family="gaussian", seed=77)
        ds, _, _ = gen_dataset(cfg)
        sd = standardize(ds)
        found_cycle = False
        for seed in range(30):
            init = random_subset(25, 5, np.random.default_rng(seed))
            out = pdas(GAUSSIAN, sd, 5, init=init, m_max=50)
            if out.converged:
                continue
            found_cycle = True
            losses = [
                loss(GAUSSIAN, sd, fit_active(GAUSSIAN, sd, a)) for a in out.history
            ]
            assert out.loss == pytest.approx(min(losses), rel=1e-12)
        assert found_cycle, "expected at least one non-converged run on pure noise"

    def test_statistical_oracle_agreement_from_random_inits(self):
        # strong-signal instances: the fixed point nearly always equals the
        # exhaustive optimum; when it does not, the loss gap stays small
        n, p, q = 200, 12, 4
        matches = 0
        total = 50
        for seed in range(total):
            cfg = GenConfig(
                n=n, p=p, q=q, family="gaussian", rho=0.2, sigma=0.5,
                b=1.0, B=3.0, seed=10_000 + seed,
            )
            ds, _, _ = gen_dataset(cfg)
            sd = standardize(ds)
            init = random_subset(p, q, np.random.default_rng(seed))
            out = pdas(GAUSSIAN, sd, q, init=init)
            oracle = exhaustive_best_subset(GAUSSIAN, sd, q)
            if out.model.active_set == oracle.active_set:
                matches += 1
            else:
                assert out.loss <= 1.1 * oracle.loss
        assert matches >= 0.9 * total


def record_cases():
    """Converged, cycling and m_max-capped pdas runs, keyed by how they ended."""
    cfg = GenConfig(n=150, p=12, q=3, family="gaussian", seed=33, b=1.0, B=2.0)
    sd = standardize(gen_dataset(cfg)[0])
    cases = {"converged": (sd, pdas(GAUSSIAN, sd, 5))}
    noise = standardize(gen_dataset(GenConfig(n=60, p=25, q=0, seed=77))[0])
    for seed in range(30):
        init = random_subset(25, 5, np.random.default_rng(seed))
        out = pdas(GAUSSIAN, noise, 5, init=init, m_max=50)
        if not out.converged:
            cases.setdefault("cycle", (noise, out))
        if out.iterations > 2:  # so two sweeps end neither converged nor cycling
            capped = pdas(GAUSSIAN, noise, 5, init=init, m_max=2)
            cases.setdefault("capped", (noise, capped))
    assert set(cases) == {"converged", "cycle", "capped"}
    return cases


class TestPdasOutput:
    def test_history_is_distinct_sets_in_visiting_order(self):
        for how, (sd, out) in record_cases().items():
            assert len(set(out.history)) == len(out.history)
            # each visited set is the top-k proposal at the one before it
            proposals = []
            for active in out.history:
                model = fit_active(GAUSSIAN, sd, active)
                _, delta = dual_sacrifice(GAUSSIAN, sd, model)
                proposals.append(select_top_k(delta, out.k))
            assert out.history[1:] == tuple(proposals[:-1])
            if how == "converged":
                assert proposals[-1] == out.history[-1] == out.model.active_set
            elif how == "cycle":
                assert proposals[-1] in out.history[:-1]
            else:
                assert proposals[-1] not in out.history

    def test_iterations_count_the_visited_sets(self):
        for sd, out in record_cases().values():
            assert out.iterations == len(out.history)

    def test_model_duals_and_sacrifices_belong_to_the_returned_set(self):
        for sd, out in record_cases().values():
            assert out.model.active_set in out.history
            assert out.k == len(out.model.active_set)
            model = fit_active(GAUSSIAN, sd, out.model.active_set)
            _, delta = dual_sacrifice(GAUSSIAN, sd, model)
            np.testing.assert_array_equal(out.model.beta, model.beta)
            np.testing.assert_array_equal(out.delta, delta)
            assert out.loss == model.loss


class TestNullFit:
    def test_null_state(self):
        sd = orthonormal_instance(seed=11)
        out = null_fit(GAUSSIAN, sd)
        assert out.model.active_set == ()
        assert out.k == 0
        np.testing.assert_array_equal(out.model.beta, 0.0)
        y = sd.dataset.response.y
        assert out.loss == pytest.approx(y @ y / (2 * len(y)))


def assert_same_output(a, b):
    assert a.model.active_set == b.model.active_set
    assert a.loss == b.loss and a.model.intercept == b.model.intercept
    np.testing.assert_array_equal(a.model.beta, b.model.beta)
    np.testing.assert_array_equal(a.delta, b.delta)
    assert (a.iterations, a.converged, a.history) == (b.iterations, b.converged, b.history)


class TestSharedEvaluations:
    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_shared_dict_changes_no_output(self, family):
        # every run on sd shares its memo; a fresh standardization of the
        # same data starts with an empty one
        p = 12
        beta = np.zeros(p)
        beta[[1, 4, 9]] = [1.0, -0.8, 0.6]

        def instance():
            return random_standardized(family, 90, p, seed=8, beta=beta, censor_rate=0.2)

        sd, fam = instance(), ModelFamily(family)
        shared = problem(sd).fits
        rng = np.random.default_rng(1)
        returned = []
        for k in (5, 3, 1):
            inits = [None, warm_start_set(null_fit(fam, sd), k), random_subset(p, k, rng),
                     tuple(range(k))] + [warm_start_set(prev, k) for prev in returned]
            for init in inits:
                out = pdas(fam, sd, k, init=init)
                assert_same_output(out, pdas(fam, instance(), k, init=init))
                assert out.model.active_set in shared
                held = problem(sd).fit(fam, sd, out.model.active_set)
                assert model_value(held) == model_value(out.model)
            returned.append(out)  # a larger output, trimmed by the next k
        assert () in shared
        for active in shared:
            assert problem(sd).fit(fam, sd, active).active_set == active

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_memo_holds_at_most_n_over_2_sets(self, family):
        # n = 16: room for 8 sets, so both searches drop sets and fit some again
        def instance():
            return random_standardized(family, 16, 12, seed=3, censor_rate=0.2)

        sd, fam = instance(), ModelFamily(family)
        gold, trace = gpdas(fam, sd, k_max=8)
        path, report = spdas(fam, sd, k_max=8)
        fits = problem(sd).fits
        assert len(fits) == 8
        used = {e.active_set for e in path.entries} | {gold.active_set}
        assert not used <= set(fits)  # some were dropped
        fresh_gold, fresh_trace = gpdas(fam, instance(), k_max=8)
        fresh_path, fresh_report = spdas(fam, instance(), k_max=8)

        def same_loss(a, b):
            # spdas reuses sets gpdas fitted from its warm starts, so a cox
            # loss can differ from a fresh run's in its last digits
            return a == (pytest.approx(b, rel=1e-12, abs=0) if family == "cox" else b)

        assert (gold.active_set, trace.rows) == (fresh_gold.active_set, fresh_trace.rows)
        assert same_loss(gold.loss, fresh_gold.loss)
        assert [e.active_set for e in path.entries] == [
            e.active_set for e in fresh_path.entries
        ]
        assert all(same_loss(a.loss, b.loss) for a, b in zip(path.entries, fresh_path.entries))
        assert (report.k, path.stop) == (fresh_report.k, fresh_path.stop)
        # a memo hit returns the fit of its own set
        for active in fits:
            model = problem(sd).fit(fam, sd, active)
            assert model.active_set == active
            assert same_loss(model.loss, fit_active(fam, sd, active).loss)

    def test_delta_is_read_only(self):
        sd = orthonormal_instance(seed=2)
        for out in (pdas(GAUSSIAN, sd, 2), null_fit(GAUSSIAN, sd)):
            with pytest.raises(ValueError):
                out.delta[0] = 1.0

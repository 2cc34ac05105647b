import concurrent.futures
import re

import pytest

from bestsubset import bench
from bestsubset.bench import BenchScenario, run_bench, run_replication
from bestsubset.families import fit_active


def small_scenario(**kw):
    base = dict(
        family="gaussian",
        n=80,
        p=10,
        q=2,
        reps=3,
        methods=("spdas", "gpdas", "oracle"),
        criterion="bic",
        k_max=6,
        holdout=60,
        seed=42,
        b=1.0,
        B=3.0,
    )
    base.update(kw)
    return BenchScenario(**base)


def strip_times(records):
    cleaned = []
    for record in records:
        methods = {
            name: {k: v for k, v in stats.items() if k != "time"}
            for name, stats in record["methods"].items()
        }
        cleaned.append({**record, "methods": methods})
    return cleaned


class TestReplication:
    def test_record_shape(self):
        record = run_replication(small_scenario(), 0)
        assert set(record["methods"]) == {"spdas", "gpdas", "oracle"}
        for stats in record["methods"].values():
            assert {"k", "active", "loss", "time", "tp", "fp", "metric"} <= set(stats)
            assert stats["tp"] + stats["fp"] == len(stats["active"])

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_oracle_dominates_methods_at_same_k(self, family):
        scn = small_scenario(
            family=family, reps=5, censor_rate=0.2 if family == "cox" else 0.0
        )
        for rep in range(scn.reps):
            record = run_replication(scn, rep)
            oracle_losses = {int(k): v for k, v in record["oracle_losses"].items()}
            for name in ("spdas", "gpdas"):
                stats = record["methods"][name]
                assert oracle_losses[stats["k"]] <= stats["loss"]

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_metric_equals_refit_metric(self, family, monkeypatch):
        scn = small_scenario(
            family=family, methods=("spdas", "gpdas"), censor_rate=0.2 if family == "cox" else 0.0
        )
        original = bench._holdout_metric
        refit_metrics = []

        def holdout_metric(scn, fam, meta, model, beta_star, X_test, resp_test):
            refit = fit_active(fam, meta, model.active_set)
            refit_metrics.append(original(scn, fam, meta, refit, beta_star, X_test, resp_test))
            return original(scn, fam, meta, model, beta_star, X_test, resp_test)

        monkeypatch.setattr(bench, "_holdout_metric", holdout_metric)
        record = run_replication(scn, 0)
        metrics = [record["methods"][name]["metric"] for name in scn.methods]
        assert metrics == refit_metrics

    def test_deterministic_given_seed_and_rep(self):
        scn = small_scenario()
        a = strip_times([run_replication(scn, 1)])
        b = strip_times([run_replication(scn, 1)])
        assert a == b


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(b=2.0, B=1.0), "b <= B"),
            (dict(b=-1.0, B=1.0), "0 < b <= B"),
            (dict(holdout=0), "holdout must be >= 2, got 0"),
            (dict(holdout=1), "holdout must be >= 2, got 1"),
            (dict(family="binomial", holdout=0), "holdout must be >= 2"),
            (dict(methods=()), "need at least one method"),
            (dict(q=0), "gaussian scenario needs q >= 1"),
            (dict(sigma=float("nan")), "sigma must be positive and finite, got nan"),
            (dict(rho=float("inf")), "rho must be finite, got inf"),
        ],
    )
    def test_rejected_at_construction(self, kw, message):
        with pytest.raises(ValueError, match=message):
            small_scenario(**kw)

    def test_cox_holdout_without_comparable_pair_fails_before_fitting(
        self, search_calls
    ):
        calls = search_calls
        scn = BenchScenario(
            family="cox", n=60, p=8, q=2, censor_rate=0.7, holdout=2, reps=12,
            methods=("spdas", "gpdas"),
        )
        # replication 0's two held-out rows form no comparable pair
        with pytest.raises(ValueError, match=r"^replication 0: .*raise --holdout$"):
            run_replication(scn, 0)
        assert calls == []
        with pytest.raises(ValueError, match="^replication 0: "):
            run_bench(scn)
        assert calls == []
        # replication 2's do, and it fits as before
        run_replication(scn, 2)
        assert calls == ["spdas", "gpdas"]

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(epsilon=float("nan")), "epsilon must be nonnegative and finite, got nan"),
            (dict(epsilon=float("inf")), "epsilon must be nonnegative and finite, got inf"),
            (dict(epsilon=-0.5), "epsilon must be nonnegative and finite, got -0.5"),
            (dict(eta=1.5), r"eta must be in \(0, 1\)"),
            (dict(eta=float("nan")), r"eta must be in \(0, 1\)"),
        ],
    )
    def test_search_options_rejected_before_fitting(self, search_calls, kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_bench(small_scenario(methods=("spdas", "gpdas"), **kw))
        assert search_calls == []

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(k_max=2), "golden-section search needs k_max >= 3; got 2"),
            (dict(p=2, q=1, k_max=None),
             "golden-section search needs k_max >= 3; the default for n=80, p=2 is 2"),
        ],
    )
    def test_gpdas_k_max_below_three_rejected_before_fitting(
        self, search_calls, kw, message
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_bench(small_scenario(methods=("spdas", "gpdas"), **kw))
        assert search_calls == []

    def test_search_options_checked_only_for_the_method_using_them(self):
        # as in ``fit``: epsilon belongs to spdas, eta to gpdas
        small_scenario(methods=("gpdas",), epsilon=float("nan"))
        small_scenario(methods=("spdas",), eta=1.5)

    def test_null_signal_runs_outside_gaussian(self):
        scn = small_scenario(family="binomial", q=0, reps=1, methods=("spdas",))
        stats = run_replication(scn, 0)["methods"]["spdas"]
        assert stats["tp"] == 0 and 0.0 <= stats["metric"] <= 1.0


class TestRunBench:
    def test_summary_rows(self):
        _, summary = run_bench(small_scenario())
        assert [row["method"] for row in summary] == [
            "spdas",
            "gpdas",
            "oracle",
        ]
        for row in summary:
            assert row["metric"] == "mse"
            assert row["mse_mean"] >= 0.0
            assert row["tp_mean"] <= 2.0

    def test_single_rep_sd_is_zero(self):
        _, summary = run_bench(small_scenario(reps=1, methods=("spdas",)))
        row = summary[0]
        assert row["mse_sd"] == 0.0
        assert row["tp_sd"] == 0.0
        assert row["time_sd"] == 0.0

    def test_parallel_matches_serial(self):
        scn = small_scenario(reps=4, methods=("spdas",))
        serial, _ = run_bench(scn, jobs=1)
        parallel, _ = run_bench(scn, jobs=2)
        assert strip_times(list(serial)) == strip_times(list(parallel))

    @pytest.mark.parametrize("jobs", [2, 64])
    def test_pool_never_exceeds_reps(self, monkeypatch, jobs):
        asked = []

        class SerialPool:
            """Records its size and maps in this process: no worker starts."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        scn = small_scenario(reps=3, methods=("spdas",))
        pooled, _ = run_bench(scn, jobs=jobs)
        assert asked == [min(jobs, scn.reps)]
        serial, _ = run_bench(scn, jobs=1)
        assert strip_times(list(pooled)) == strip_times(list(serial))

    def test_oracle_requires_small_p(self):
        with pytest.raises(ValueError, match="infeasible"):
            small_scenario(p=30, methods=("oracle",))

    def test_binomial_metric_is_accuracy(self):
        scn = BenchScenario(
            family="binomial", n=120, p=8, q=2, reps=2, methods=("spdas",),
            criterion="bic", k_max=5, holdout=80, seed=3, b=1.5, B=3.0,
        )
        _, summary = run_bench(scn)
        assert summary[0]["metric"] == "accuracy"
        assert 0.0 <= summary[0]["accuracy_mean"] <= 1.0

    def test_cox_metric_is_concordance(self):
        scn = BenchScenario(
            family="cox", n=120, p=8, q=2, reps=2, methods=("spdas",),
            criterion="bic", k_max=5, holdout=80, seed=4, censor_rate=0.2,
            b=1.0, B=2.0,
        )
        _, summary = run_bench(scn)
        assert summary[0]["metric"] == "cindex"
        assert 0.0 <= summary[0]["cindex_mean"] <= 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            small_scenario(methods=("lasso",))

    def test_generator_fields_checked_on_construction(self):
        with pytest.raises(ValueError, match="unknown family"):
            small_scenario(family="poisson")
        with pytest.raises(ValueError, match="q must be in"):
            small_scenario(q=11)
        with pytest.raises(ValueError, match="only to the cox family"):
            small_scenario(censor_rate=0.2)

    def test_gen_config_takes_the_shared_fields(self):
        scn = small_scenario(family="cox", rho=0.3, sigma=2.0, censor_rate=0.2)
        cfg = scn.gen_config()
        for name in ("family", "n", "p", "q", "rho", "sigma", "b", "B",
                     "censor_rate", "seed"):
            assert getattr(cfg, name) == getattr(scn, name)
        assert cfg.signs == "random" and cfg.beta is None

    def test_reference_scale_recovery(self):
        # n=200, p=20, q=4 with default signal magnitudes: nearly full recovery
        scn = BenchScenario(
            family="gaussian", n=200, p=20, q=4, reps=10, methods=("spdas",),
            criterion="ebic", rho=0.2, holdout=200, seed=8,
        )
        _, summary = run_bench(scn)
        row = summary[0]
        assert row["tp_mean"] >= 3.5
        assert row["mse_mean"] < 0.1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: small_scenario(reps=0), "need at least one replication"),
        (lambda: run_bench(small_scenario(), jobs=0), "jobs must be >= 1"),
    ],
    ids=["reps", "jobs"],
)
def test_input_check_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# An open defect (ROADMAP item 11): at 70 % censoring a cox fit on this
# replication meets a non-finite Newton system and the error escapes.
# Strict: once that is fixed, this fails until its mark is removed.
@pytest.mark.xfail(strict=True, raises=ValueError, reason="non-finite cox Newton system")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_heavily_censored_cox_replication_returns_a_record():
    scn = BenchScenario(
        family="cox", n=60, p=8, q=2, censor_rate=0.7, holdout=50, reps=1, seed=2
    )
    record = run_replication(scn, 0)
    assert set(record["methods"]) == {"spdas"}

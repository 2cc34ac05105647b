import importlib
import math
import re
import warnings
from math import comb

import numpy as np
import pytest

from bestsubset import families, oracle
from bestsubset.data import Continuous, Dataset, standardize
from bestsubset.datagen import GenConfig, gen_dataset
from bestsubset.families import CoefficientModel, ModelFamily, fit_active, loss
from bestsubset.oracle import exhaustive_best_subset
from bestsubset.pdas import pdas
from conftest import enumerate_best_subset, random_standardized, random_subset

GAUSSIAN = ModelFamily("gaussian")
PDAS_MODULE = importlib.import_module("bestsubset.pdas")


def instance(seed, n=80, p=8, q=2, **kw):
    cfg = GenConfig(n=n, p=p, q=q, family="gaussian", seed=seed, b=0.8, B=2.0, **kw)
    ds, _, support = gen_dataset(cfg)
    return standardize(ds), support


class TestExhaustive:
    def test_k_equals_p_is_full_model(self):
        sd, _ = instance(1)
        best = exhaustive_best_subset(GAUSSIAN, sd, 8)
        assert best.active_set == tuple(range(8))
        full = loss(GAUSSIAN, sd, fit_active(GAUSSIAN, sd, tuple(range(8))))
        assert best.loss == pytest.approx(full)

    def test_k_zero_is_null_model(self):
        sd, _ = instance(2)
        best = exhaustive_best_subset(GAUSSIAN, sd, 0)
        assert best.active_set == ()
        y = sd.dataset.response.y
        assert best.loss == pytest.approx(y @ y / (2 * len(y)))

    def test_p_cap_refused(self, rng):
        X = rng.standard_normal((30, 26))
        sd = standardize(Dataset(X, Continuous(rng.standard_normal(30))))
        with pytest.raises(ValueError, match="p_cap"):
            exhaustive_best_subset(GAUSSIAN, sd, 2)
        # explicit larger cap allows it
        best = exhaustive_best_subset(GAUSSIAN, sd, 1, p_cap=30)
        assert len(best.active_set) == 1

    def test_dominates_pdas_loss(self):
        for seed in range(8):
            sd, _ = instance(100 + seed, n=60, p=9, q=3)
            k = 3
            init = random_subset(9, k, np.random.default_rng(seed))
            heuristic = pdas(GAUSSIAN, sd, k, init=init)
            best = exhaustive_best_subset(GAUSSIAN, sd, k)
            assert best.loss <= heuristic.loss + 1e-12

    def test_column_permutation_equivariance(self):
        sd, _ = instance(7, n=50, p=7, q=2)
        X = np.asarray(sd.dataset.X)
        y = np.asarray(sd.dataset.response.y)
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        sd_perm = standardize(Dataset(X[:, perm], Continuous(y)))
        base = exhaustive_best_subset(GAUSSIAN, sd, 2)
        moved = exhaustive_best_subset(GAUSSIAN, sd_perm, 2)
        relabeled = tuple(
            sorted(int(np.where(perm == j)[0][0]) for j in base.active_set)
        )
        assert moved.active_set == relabeled
        assert moved.loss == pytest.approx(base.loss, rel=1e-12)

    def test_recovers_strong_support(self):
        hits = 0
        total = 50
        for seed in range(total):
            cfg = GenConfig(
                n=200, p=10, q=3, family="gaussian", sigma=0.5, b=1.0, B=3.0,
                seed=40_000 + seed,
            )
            ds, _, support = gen_dataset(cfg)
            sd = standardize(ds)
            best = exhaustive_best_subset(GAUSSIAN, sd, 3)
            if set(support) <= set(best.active_set):
                hits += 1
        assert hits >= 0.95 * total

    @pytest.mark.parametrize("seed", [0, 2])
    def test_returns_the_fit_it_ranked(self, seed):
        # the oracle's loss is the fixed-k fit's, bit for bit, not a second formula's
        ds, _, _ = gen_dataset(GenConfig(n=200, p=20, q=4, rho=0.2, seed=seed))
        sd = standardize(ds)
        best = exhaustive_best_subset(GAUSSIAN, sd, 4)
        out = pdas(GAUSSIAN, sd, 4)
        assert isinstance(best, CoefficientModel)
        assert best.active_set == out.model.active_set
        assert best.loss == out.loss
        np.testing.assert_array_equal(best.beta, out.model.beta)


def generated(**kw):
    return standardize(gen_dataset(GenConfig(**kw))[0])


def with_copied_column(source, target, **kw):
    """The gaussian ``GenConfig(**kw)`` dataset with column ``target``
    replaced by column ``source``: the Gram of any set holding both is
    singular, so fitting it takes the ridge path."""
    ds, _, _ = gen_dataset(GenConfig(**kw))
    X = np.array(ds.X)
    X[:, target] = X[:, source]
    return standardize(Dataset(X, ds.response))


def duplicated_column():
    return with_copied_column(2, 5, n=60, p=8, q=2, seed=4)


# Separated binomial fits report convergence at a loss near 0, which bounds
# nothing; the seed-0 n20 case and the cox seed-5 case return another set
# when that check is dropped (TestBranchAndBound).
SEPARATED_BINOMIAL = [
    pytest.param(
        "binomial", dict(n=n, p=8, q=2, family="binomial", rho=0.5, seed=seed), 3,
        id=f"binomial-separated-n{n}-seed{seed}",
    )
    for n in (20, 30, 40)
    for seed in range(3)
]
CENSORED_COX = [
    pytest.param(
        "cox", dict(n=30, p=8, q=2, family="cox", rho=0.5, censor_rate=0.7, seed=seed), 3,
        id=f"cox-censored-seed{seed}",
    )
    for seed in (0, 1, 4)  # at seeds 2 and 3 a size-3 fit raises: enumeration has no answer
]
CORPUS = [
    *[
        pytest.param("gaussian", dict(n=60, p=10, q=3, seed=seed), k, id=f"gaussian-seed{seed}-k{k}")
        for seed in (0, 1)
        for k in (1, 3, 5)
    ],
    pytest.param("gaussian", dict(n=80, p=12, q=4, rho=0.8, seed=3), 4, id="gaussian-rho0.8"),
    pytest.param("gaussian", dict(n=8, p=11, q=2, seed=6), 3, id="gaussian-p-above-n-k3"),
    pytest.param("gaussian", dict(n=8, p=11, q=2, seed=6), 8, id="gaussian-p-above-n-k-is-n"),
    pytest.param("gaussian", duplicated_column, 3, id="gaussian-duplicated-column"),
    *[
        pytest.param("binomial", dict(n=80, p=10, q=3, family="binomial", seed=seed), 3,
                     id=f"binomial-seed{seed}")
        for seed in (0, 1)
    ],
    *SEPARATED_BINOMIAL,
    *[
        pytest.param("cox", dict(n=60, p=10, q=3, family="cox", seed=seed), 3, id=f"cox-seed{seed}")
        for seed in (0, 1)
    ],
    *CENSORED_COX,
    pytest.param(
        "cox", dict(n=25, p=8, q=2, family="cox", rho=0.5, censor_rate=0.7, seed=5), 4,
        id="cox-censored-n25-seed5-k4",
    ),
    pytest.param(
        "cox", dict(n=40, p=12, q=3, family="cox", rho=0.5, censor_rate=0.7, seed=2), 3,
        id="cox-superset-fit-raises",
    ),
    *[
        pytest.param(family, dict(n=40, p=6, q=2, family=family, seed=7), k,
                     id=f"{family}-k{k}")
        for family in ("gaussian", "binomial", "cox")
        for k in (0, 1, 6)
    ],
]


def corpus_instance(family, spec):
    return ModelFamily(family), spec() if callable(spec) else generated(**spec)


def fitted_sets(monkeypatch):
    """Every set fitted through ``oracle`` or ``pdas``, in call order."""
    fitted = []

    def recording(fit):
        def wrapped(family, d, active, start=None):
            fitted.append(tuple(sorted(active)))
            return fit(family, d, active, start)

        return wrapped

    monkeypatch.setattr(oracle, "fit_active", recording(oracle.fit_active))
    monkeypatch.setattr(PDAS_MODULE, "fit_active", recording(PDAS_MODULE.fit_active))
    return fitted


def incumbent_from(monkeypatch, init):
    """Start the oracle's search from ``pdas`` run from ``init``; returns the
    list its outputs are appended to."""
    starts = []

    def started(family, d, k, **kwargs):
        starts.append(pdas(family, d, k, init=init, **kwargs))
        return starts[-1]

    monkeypatch.setattr(oracle, "pdas", started)
    return starts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBranchAndBound:
    @pytest.mark.parametrize("family, spec, k", CORPUS)
    def test_same_model_as_enumeration(self, family, spec, k):
        family, sd = corpus_instance(family, spec)
        got = exhaustive_best_subset(family, sd, k)
        want = enumerate_best_subset(family, sd, k)
        assert got.active_set == want.active_set
        assert got.loss == want.loss
        assert got.intercept == want.intercept
        np.testing.assert_array_equal(got.beta, want.beta)

    @pytest.mark.parametrize("family, spec, k", CORPUS)
    def test_no_set_fitted_twice(self, monkeypatch, family, spec, k):
        family, sd = corpus_instance(family, spec)
        fitted = fitted_sets(monkeypatch)
        exhaustive_best_subset(family, sd, k)
        assert len(fitted) == len(set(fitted))
        # and no fit is tried past the size cap, where it could only raise
        assert max(map(len, fitted)) <= family.max_size(sd.dataset.n, sd.dataset.p)

    @pytest.mark.parametrize("family, seed", [("gaussian", 1), ("binomial", 0), ("cox", 4)])
    def test_no_set_fitted_twice_past_the_memo_size(self, monkeypatch, family, seed):
        # n = 8: the dataset's memo keeps 4 sets, far fewer than the bound
        # fits the search makes between pdas's fits and the leaves reusing them
        family = ModelFamily(family)
        sd = random_standardized(family.tag, 8, 10, seed=seed, censor_rate=0.2)
        fitted = fitted_sets(monkeypatch)
        got = exhaustive_best_subset(family, sd, 3)
        assert len(fitted) == len(set(fitted)) > 60
        want = enumerate_best_subset(family, sd, 3)
        assert (got.active_set, got.loss) == (want.active_set, want.loss)

    def test_non_converged_superset_fit_does_not_prune(self, monkeypatch):
        # one Newton step leaves each fit above its minimum: a bound taken from
        # such a fit drops the subtree of enumeration's answer here
        monkeypatch.setattr(families, "MAX_ITER", 1)
        family = ModelFamily("cox")
        sd = generated(n=100, p=9, q=3, family="cox", b=1.0, B=2.0, seed=3)
        want = enumerate_best_subset(family, sd, 4)
        assert exhaustive_best_subset(family, sd, 4).active_set == want.active_set

    def test_ridge_superset_fit_does_not_prune(self, monkeypatch):
        # column 2 repeats column 1 of the support (1, 3, 7); a larger jitter
        # puts the ridge fit of a set holding both visibly above its minimum
        monkeypatch.setattr(families, "RIDGE_JITTER", 1e-3)
        sd = with_copied_column(1, 2, n=60, p=8, q=3, seed=0)
        want = enumerate_best_subset(GAUSSIAN, sd, 4)
        assert exhaustive_best_subset(GAUSSIAN, sd, 4).active_set == want.active_set

    def test_raising_superset_fit_does_not_prune(self, monkeypatch):
        family, sd = ModelFamily("cox"), generated(
            n=40, p=12, q=3, family="cox", rho=0.5, censor_rate=0.7, seed=2
        )
        raised = []
        fit = oracle.fit_active

        def recording(family, d, active):
            try:
                return fit(family, d, active)
            except ValueError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(oracle, "fit_active", recording)
        got = exhaustive_best_subset(family, sd, 3)
        assert "non-finite entries in Newton system" in raised
        assert got.active_set == enumerate_best_subset(family, sd, 3).active_set

    @pytest.mark.parametrize(
        "family, spec, k",
        [
            ("binomial", dict(n=20, p=8, q=2, family="binomial", rho=0.5, seed=0), 3),
            ("cox", dict(n=25, p=8, q=2, family="cox", rho=0.5, censor_rate=0.7, seed=5), 4),
        ],
        ids=["binomial", "cox"],
    )
    def test_separated_superset_fit_does_not_prune(self, monkeypatch, family, spec, k):
        family, sd = corpus_instance(family, spec)
        want = enumerate_best_subset(family, sd, k).active_set
        assert exhaustive_best_subset(family, sd, k).active_set == want
        # trusting the converged flag of a separated fit loses the optimum
        monkeypatch.setattr(oracle, "LINEAR_PREDICTOR_CLIP", math.inf)
        assert exhaustive_best_subset(family, sd, k).active_set != want

    def test_bound_fit_warnings_do_not_escape(self, monkeypatch):
        # every fit of a set holding both copies of column 2 warns once; of
        # those, only the bound fits keep their warning
        sd = duplicated_column()
        bounds = []
        lower_bound = oracle._lower_bound

        def recording(family, d, superset):
            bounds.append(tuple(sorted(superset)))
            return lower_bound(family, d, superset)

        monkeypatch.setattr(oracle, "_lower_bound", recording)
        fitted = fitted_sets(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exhaustive_best_subset(GAUSSIAN, sd, 2)

        def ridged(sets):
            return sum({2, 5} <= set(s) for s in sets)

        assert ridged(bounds) > 0
        assert len(caught) == ridged(fitted) - ridged(bounds)
        assert all("ridge" in str(w.message) for w in caught)

    @pytest.mark.parametrize(
        "family, spec, k", [case for case in CORPUS if case.values[2] == 1]
    )
    def test_k1_fits_at_most_p_sets(self, monkeypatch, family, spec, k):
        family, sd = corpus_instance(family, spec)
        fitted = fitted_sets(monkeypatch)
        got = exhaustive_best_subset(family, sd, k)
        assert len(fitted) <= sd.dataset.p
        want = enumerate_best_subset(family, sd, k)
        assert (got.active_set, got.loss) == (want.active_set, want.loss)
        np.testing.assert_array_equal(got.beta, want.beta)

    def test_tie_goes_to_the_first_set_whatever_the_incumbent(self, monkeypatch):
        # column 2 repeats its neighbour 1, so (1, 3, 7) and (2, 3, 7) fit
        # alike to the bit; the search starts from the later one
        sd = with_copied_column(1, 2, n=60, p=8, q=3, seed=0)
        twin = (2, 3, 7)
        assert fit_active(GAUSSIAN, sd, twin).loss == fit_active(GAUSSIAN, sd, (1, 3, 7)).loss
        starts = incumbent_from(monkeypatch, twin)
        best = exhaustive_best_subset(GAUSSIAN, sd, 3)
        assert starts[0].model.active_set == twin
        assert best.active_set == enumerate_best_subset(GAUSSIAN, sd, 3).active_set == (1, 3, 7)

    def test_bound_rounded_above_a_tie_does_not_prune(self, monkeypatch):
        # column 0 is orthogonal to the residual of (1, 3), so (0, 1, 3) has
        # the same minimum, computed a few ulps above it; column 2 repeats
        # column 1 and the search starts from the tie (2, 3)
        rng = np.random.default_rng(3)
        a, b, z = rng.standard_normal((3, 30))
        y = Continuous(2 * a + b + 0.5 * rng.standard_normal(30))
        sd = standardize(Dataset(np.column_stack([z, a, a, b]), y))
        r = sd.dataset.response.y - sd.dataset.X @ fit_active(GAUSSIAN, sd, (1, 3)).beta
        sd = standardize(Dataset(np.column_stack([z - (z @ r) / (r @ r) * r, a, a, b]), y))
        assert fit_active(GAUSSIAN, sd, (0, 1, 3)).loss > fit_active(GAUSSIAN, sd, (1, 3)).loss
        starts = incumbent_from(monkeypatch, (2, 3))
        best = exhaustive_best_subset(GAUSSIAN, sd, 2)
        assert starts[0].model.active_set == (2, 3)
        assert best.active_set == enumerate_best_subset(GAUSSIAN, sd, 2).active_set == (1, 3)

    def test_cli_small_oracle_set_takes_at_most_100_fits(self, monkeypatch):
        # the benchmark's oracle input at seed 0, where enumeration fits 4845 sets
        sd = generated(n=200, p=20, q=4, rho=0.2, seed=2)
        fitted = fitted_sets(monkeypatch)
        best = exhaustive_best_subset(GAUSSIAN, sd, 4)
        assert len(fitted) <= 100 < comb(20, 4)
        assert best.active_set == enumerate_best_subset(GAUSSIAN, sd, 4).active_set

    def test_finds_the_optimum_pdas_misses_at_p40(self, monkeypatch):
        ds, _, support = gen_dataset(GenConfig(n=200, p=40, q=5, rho=0.5, seed=1))
        sd = standardize(ds)
        fitted = fitted_sets(monkeypatch)
        best = exhaustive_best_subset(GAUSSIAN, sd, 5, p_cap=40)
        assert best.active_set == tuple(sorted(support))
        assert best.loss < 1.0 < 300.0 < pdas(GAUSSIAN, sd, 5).loss
        assert len(fitted) < comb(40, 5) // 100


class TestSizeArgument:
    @pytest.mark.parametrize("k", [2.0, np.float64(2), True, np.True_])
    def test_non_integer_k_raises(self, k):
        sd, _ = instance(3)
        want = f"k must be in [0, 8], got {k!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            exhaustive_best_subset(GAUSSIAN, sd, k)

    def test_numpy_integer_k_accepted(self):
        sd, _ = instance(3)
        best = exhaustive_best_subset(GAUSSIAN, sd, np.int64(2))
        assert best.active_set == exhaustive_best_subset(GAUSSIAN, sd, 2).active_set

    def test_k_beyond_the_gaussian_cap_refused_before_any_fit(self, monkeypatch, rng):
        X = rng.standard_normal((4, 8))
        sd = standardize(Dataset(X, Continuous(rng.standard_normal(4))))
        fitted = fitted_sets(monkeypatch)
        with pytest.raises(ValueError, match=r"^k must be in \[0, 4\], got 5$"):
            exhaustive_best_subset(GAUSSIAN, sd, 5)
        assert fitted == []

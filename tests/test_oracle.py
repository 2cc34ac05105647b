import numpy as np
import pytest

from bestsubset.data import Continuous, Dataset, standardize
from bestsubset.datagen import GenConfig, gen_dataset
from bestsubset.families import CoefficientModel, ModelFamily, fit_active, loss
from bestsubset.oracle import exhaustive_best_subset
from bestsubset.pdas import pdas
from conftest import random_subset

GAUSSIAN = ModelFamily("gaussian")


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

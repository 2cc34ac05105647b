"""Selection quality on a fixed corpus, pinned as exact counts.

Each family's default generator at n 200, p 40, q 5 (cox with 20 %
censoring), at rho 0.5 and 0.2 with seeds 0-9, gives one dataset per seed.
A held-out block, seeds 104729-104738 at rho 0.5, is pinned the same way,
so a change tuned on the first block is also read on seeds it was not
tuned on.
``spdas`` with EBIC and then ``gpdas`` search it, both at their default
``k_max`` and on one standardization, as a benchmark replication does.
Per family, rho and method five counts are pinned: exact-support
recoveries, total false positives, selections whose ``pdas_converged`` or
``solver_converged`` is False, searches that raise ``ValueError``, and
selections whose report is flagged ``separated`` (a binomial fit stopped
at its separation certificate, which reports converged, so the third
count alone does not show a selection at a separated size).
Three named defect cases are pinned the same way: the ``logit_reps``
benchmark's replications 0-9, ``test_tuning.OPEN_COX_CRASH`` and
replication 0 of the 70 %-censored cox scenario of ``test_bench``.

The pins are what the code does, not what it should do: ``gpdas`` recovers
no gaussian or binomial support here (ROADMAP items 1 and 14).  A change
that moves a count says why, and one that improves a count tightens its
pin in the same change; no pin is loosened.
"""

import numpy as np
import pytest

from bestsubset import bench
from bestsubset.bench import BenchScenario
from bestsubset.data import standardize
from bestsubset.datagen import GenConfig, gen_beta, gen_dataset
from bestsubset.families import ModelFamily
from bestsubset.tuning import gpdas, spdas
from conftest import replication_draw
from test_tuning import OPEN_COX_CRASH

SEEDS = range(10)
HELD_OUT_SEEDS = range(104729, 104739)
SEARCHES = {
    "spdas": lambda family, sd: spdas(family, sd, criterion="ebic")[1],
    "gpdas": lambda family, sd: gpdas(family, sd)[0],
}

# (family, rho) -> method ->
#   (exact recoveries, false positives, not converged, raised, separated)
PINS = {
    ("gaussian", 0.5): {"spdas": (6, 72, 0, 0, 0), "gpdas": (0, 198, 0, 0, 0)},
    ("gaussian", 0.2): {"spdas": (10, 0, 0, 0, 0), "gpdas": (0, 75, 0, 0, 0)},
    ("binomial", 0.5): {"spdas": (4, 6, 0, 0, 1), "gpdas": (0, 71, 0, 0, 9)},
    ("binomial", 0.2): {"spdas": (8, 3, 0, 0, 1), "gpdas": (0, 55, 0, 0, 10)},
    ("cox", 0.5): {"spdas": (4, 15, 0, 0, 0), "gpdas": (5, 40, 0, 0, 0)},
    ("cox", 0.2): {"spdas": (10, 0, 0, 0, 0), "gpdas": (7, 4, 0, 0, 0)},
}
# family -> method -> counts, on the held-out seeds at rho 0.5
HELD_OUT_PINS = {
    "gaussian": {"spdas": (8, 52, 0, 0, 0), "gpdas": (0, 193, 0, 0, 0)},
    "binomial": {"spdas": (5, 4, 0, 0, 1), "gpdas": (1, 53, 0, 0, 10)},
    "cox": {"spdas": (9, 7, 0, 0, 0), "gpdas": (4, 37, 1, 0, 0)},
}


# the perfbench ``logit_reps`` scenario, and the cox replication of
# ``test_bench.test_heavily_censored_cox_replication_returns_a_record``
LOGIT_REPS = BenchScenario(
    family="binomial", n=500, p=100, q=5, holdout=1000, seed=200,
    methods=("spdas", "gpdas"), criterion="ebic", reps=1,
)
CENSORED_COX = BenchScenario(
    family="cox", n=60, p=8, q=2, censor_rate=0.7, holdout=50, reps=1, seed=2
)


def drawn(config):
    """``(dataset, support)`` of ``gen_dataset(config)``."""
    dataset, _, support = gen_dataset(config)
    return dataset, support


def replication(scn, rep):
    """``(dataset, support)``: the training data and truth of ``run_replication(scn, rep)``."""
    betas = []

    def recorded(config, rng):
        betas.append(gen_beta(config, rng))
        return betas[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "gen_beta", recorded)
        dataset = replication_draw(scn, rep)
    return dataset, tuple(int(j) for j in np.flatnonzero(betas[0]))


# case -> (family, draws, method -> counts).  spdas-EBIC stops certified
# below the sizes whose cox fits crash (ROADMAP items 15 and 11), so on the
# two cox cases only gpdas reads as raised.
NAMED_PINS = {
    "logit-reps-0-9": (
        "binomial",
        lambda: [replication(LOGIT_REPS, rep) for rep in range(10)],
        {"spdas": (10, 0, 0, 0, 0), "gpdas": (0, 248, 0, 0, 10)},
    ),
    "open-cox-crash": (
        "cox",
        lambda: [drawn(OPEN_COX_CRASH)],
        {"spdas": (0, 2, 0, 0, 0), "gpdas": (0, 0, 0, 1, 0)},
    ),
    "censored-cox-rep0": (
        "cox",
        lambda: [replication(CENSORED_COX, 0)],
        {"spdas": (1, 0, 0, 0, 0), "gpdas": (0, 0, 0, 1, 0)},
    ),
}


def corpus_draws(tag, rho, seeds):
    """``(dataset, support)`` of each corpus seed."""
    censor_rate = 0.2 if tag == "cox" else 0.0
    for seed in seeds:
        yield drawn(
            GenConfig(n=200, p=40, q=5, family=tag, rho=rho, censor_rate=censor_rate, seed=seed)
        )


def corpus_counts(tag, rho, seeds=SEEDS):
    return search_counts(tag, corpus_draws(tag, rho, seeds))


def search_counts(tag, draws):
    """Each search's five counts over the ``(dataset, support)`` pairs of ``draws``."""
    family = ModelFamily(tag)
    counts = {method: [0, 0, 0, 0, 0] for method in SEARCHES}
    for dataset, support in draws:
        sd = standardize(dataset)
        for method, search in SEARCHES.items():
            tally = counts[method]
            try:
                report = search(family, sd)
            except ValueError:
                tally[3] += 1
                continue
            tally[0] += report.active_set == support
            tally[1] += len(set(report.active_set) - set(support))
            tally[2] += not (report.pdas_converged and report.solver_converged)
            tally[4] += report.separated
    return {method: tuple(tally) for method, tally in counts.items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tag, rho", list(PINS), ids=[f"{t}-rho{r}" for t, r in PINS])
def test_counts_are_pinned(tag, rho):
    assert corpus_counts(tag, rho) == PINS[tag, rho]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tag", list(HELD_OUT_PINS))
def test_held_out_counts_are_pinned(tag):
    assert corpus_counts(tag, 0.5, HELD_OUT_SEEDS) == HELD_OUT_PINS[tag]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(NAMED_PINS))
def test_named_defect_counts_are_pinned(case):
    tag, draws, pins = NAMED_PINS[case]
    assert search_counts(tag, draws()) == pins

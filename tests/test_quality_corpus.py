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

The pins are what the code does, not what it should do: ``gpdas`` recovers
no gaussian or binomial support here (ROADMAP items 1 and 14).  A change
that moves a count says why, and one that improves a count tightens its
pin in the same change; no pin is loosened.
"""

import pytest

from bestsubset.data import standardize
from bestsubset.datagen import GenConfig, gen_dataset
from bestsubset.families import ModelFamily
from bestsubset.tuning import gpdas, spdas

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


def corpus_counts(tag, rho, seeds=SEEDS):
    family = ModelFamily(tag)
    counts = {method: [0, 0, 0, 0, 0] for method in SEARCHES}
    for seed in seeds:
        censor_rate = 0.2 if tag == "cox" else 0.0
        cfg = GenConfig(n=200, p=40, q=5, family=tag, rho=rho, censor_rate=censor_rate, seed=seed)
        dataset, _, support = gen_dataset(cfg)
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

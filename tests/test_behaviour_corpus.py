"""Fixed-seed behaviour corpus for the solver core.

Per family, one small dataset is solved by ``pdas`` at a fixed k, by
``spdas`` with EBIC and by ``gpdas``; the selected k, the active set, the
gpdas trace and stop reason, and the loss (to 1e-9 relative) are pinned.
So are ROADMAP item 1's regression cases (gpdas's size, stop reason,
iterations and solver calls).
The pins record what the code did when they were taken: they are
behaviour, not correctness, and exist so that a refactor of the solver
shows "same selections, same losses" mechanically.  Work on the
golden-section search itself (ROADMAP item 1) is expected to change the
gpdas entries; re-record them there and say why.
"""

import pytest

from bestsubset.bench import BenchScenario, run_replication
from bestsubset.data import standardize
from bestsubset.datagen import GenConfig, gen_dataset
from bestsubset.families import ModelFamily
from bestsubset.pdas import pdas
from bestsubset.tuning import gpdas, spdas

LOSS_RTOL = 1e-9

# family -> (config, fixed k, k_max for spdas and gpdas)
SCENARIOS = {
    "gaussian": (GenConfig(n=100, p=20, q=3, seed=1), 3, 10),
    "binomial": (GenConfig(n=500, p=20, q=3, family="binomial", seed=2), 3, 8),
    "cox": (GenConfig(n=150, p=15, q=3, family="cox", censor_rate=0.2, seed=3), 3, 8),
}

# (k, active set, loss) per solver, plus the gpdas (rows, reason)
PINS = {
    "gaussian": {
        "pdas": (3, (3, 11, 16), 0.43529869445542446),
        "spdas": (3, (3, 11, 16), 0.43529869445542446),
        "gpdas": (9, (2, 3, 6, 8, 10, 11, 13, 15, 16), 0.3994775556959534),
        "gpdas_trace": (((1, 1, 7, 10), (2, 7, 9, 10)), "interval-collapse"),
    },
    "binomial": {
        "pdas": (3, (1, 4, 8), 107.68665222854506),
        "spdas": (3, (1, 4, 8), 107.68665222854506),
        "gpdas": (4, (1, 4, 6, 8), 105.50862958237983),
        "gpdas_trace": (((1, 1, 5, 8), (2, 1, 3, 5), (3, 3, 4, 5)), "elbow"),
    },
    "cox": {
        "pdas": (3, (1, 4, 9), 220.62993493131836),
        "spdas": (3, (1, 4, 9), 220.62993493131836),
        "gpdas": (2, (4, 9), 436.96729665499885),
        "gpdas_trace": (
            ((1, 1, 5, 8), (2, 1, 3, 5), (3, 3, 4, 5), (4, 1, 3, 4), (5, 1, 2, 3)),
            "interval-collapse",
        ),
    },
}


# ROADMAP item 1's regression cases, where the loss elbow lands far past the
# planted size: the acceptance-05 scenario's gpdas picks per replication, and
# two standalone searches as (k, reason, iterations, solver calls).  The
# counted calls give the search a long run to match.  The binomial pins were
# taken once gpdas read a separated size's loss as its infimum 0: the search
# walks down to the separation boundary instead of collapsing at k = 79.
ITEM_1_SCENARIO = BenchScenario(
    family="binomial", n=500, p=100, q=5, reps=2, methods=("gpdas",),
    criterion="ebic", holdout=1000, seed=200,
)
ITEM_1_PICKS = {0: (30, 5, 25), 1: (32, 5, 27)}  # rep -> (k, tp, fp)
ITEM_1_SEARCHES = {
    "binomial": (GenConfig(n=500, p=100, q=5, family="binomial", seed=3),
                 (53, "interval-collapse", 7, 17)),
    "gaussian": (GenConfig(n=500, p=100, q=10, rho=0.2, seed=3),
                 (12, "interval-collapse", 66, 143)),
}


def _check(got, pinned):
    k, active, loss_value = pinned
    assert got[0] == k
    assert tuple(got[1]) == active
    assert got[2] == pytest.approx(loss_value, rel=LOSS_RTOL)


@pytest.mark.parametrize("family", sorted(SCENARIOS))
def test_corpus(family):
    config, k, k_max = SCENARIOS[family]
    d = standardize(gen_dataset(config)[0])
    fam = ModelFamily(family)
    pins = PINS[family]

    out = pdas(fam, d, k)
    _check((out.k, out.model.active_set, out.loss), pins["pdas"])

    _, seq = spdas(fam, d, k_max=k_max, criterion="ebic")
    _check((seq.k, seq.active_set, seq.loss), pins["spdas"])

    gold, trace = gpdas(fam, d, k_max=k_max)
    _check((gold.k, gold.active_set, gold.loss), pins["gpdas"])
    assert (trace.rows, trace.reason) == pins["gpdas_trace"]
    assert trace.terminal_k == gold.k


@pytest.mark.parametrize("rep", sorted(ITEM_1_PICKS))
def test_item_1_bench_picks(rep):
    row = run_replication(ITEM_1_SCENARIO, rep)["methods"]["gpdas"]
    assert (row["k"], row["tp"], row["fp"]) == ITEM_1_PICKS[rep]


@pytest.mark.parametrize("family", sorted(ITEM_1_SEARCHES))
def test_item_1_searches(family):
    config, pinned = ITEM_1_SEARCHES[family]
    report, trace = gpdas(ModelFamily(family), standardize(gen_dataset(config)[0]))
    assert (report.k, trace.reason, len(trace.rows), trace.pdas_calls) == pinned
    assert trace.terminal_k == report.k

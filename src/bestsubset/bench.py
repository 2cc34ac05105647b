"""Monte-Carlo benchmark harness: replicated scenarios, summary statistics.

Each replication draws a fresh training set and a held-out validation set
from the same planted truth, runs every requested method, and records wall
time (the fit only, no I/O), selected set quality (TP/FP), and a
family-specific predictive score: relative MSE (gaussian), classification
accuracy (binomial), or concordance (cox).  Replications use independent
RNG substreams derived from (seed, replication index), so serial and
parallel runs agree exactly.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, destandardize_coefficients, standardize
from .datagen import GenConfig, gen_beta, gen_design, gen_response
from .families import ModelFamily, predict
from .metrics import accuracy, concordance_index, relative_mse, tp_fp
from .oracle import DEFAULT_P_CAP, exhaustive_best_subset
from .tuning import check_epsilon, check_eta, gpdas, gsection_k_max, spdas

METRIC_NAME = {"gaussian": "mse", "binomial": "accuracy", "cox": "cindex"}
KNOWN_METHODS = ("spdas", "gpdas", "oracle")


@dataclass(frozen=True)
class BenchScenario:
    """A replicated synthetic experiment."""

    family: str
    n: int
    p: int
    q: int
    reps: int
    methods: tuple[str, ...] = ("spdas",)
    criterion: str = "auto"
    k_max: int | None = None
    eta: float = 0.01
    epsilon: float = 0.0
    rho: float = 0.5
    sigma: float = 1.0
    censor_rate: float = 0.0
    holdout: int = 1000
    seed: int = 0
    b: float | None = None
    B: float | None = None

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if not self.methods:
            raise ValueError("need at least one method")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if "oracle" in self.methods and self.p > DEFAULT_P_CAP:
            raise ValueError(
                f"infeasible scenario: oracle requires p <= {DEFAULT_P_CAP}, "
                f"got p={self.p}"
            )
        if "spdas" in self.methods:
            check_epsilon(self.epsilon)
        if self.holdout < 2:
            raise ValueError(f"holdout must be >= 2, got {self.holdout}")
        if self.family == "gaussian" and self.q == 0:
            raise ValueError("gaussian scenario needs q >= 1 for its relative MSE")
        self.gen_config()  # GenConfig validates the generator fields
        if "gpdas" in self.methods:
            check_eta(self.eta)
            gsection_k_max(ModelFamily(self.family), self.n, self.p, self.k_max)

    def gen_config(self) -> GenConfig:
        """The scenario's generator fields; the others keep GenConfig's defaults."""
        shared = {f.name for f in fields(GenConfig)} & {f.name for f in fields(self)}
        return GenConfig(**{name: getattr(self, name) for name in shared})


def _holdout_metric(scn, family, meta, model, beta_star, X_test, resp_test):
    if scn.family == "gaussian":
        _, beta_orig = destandardize_coefficients(model.beta, meta, model.intercept)
        return relative_mse(X_test, beta_orig, beta_star)
    scores = predict(family, model, X_test, meta)
    if scn.family == "binomial":
        return accuracy(scores, resp_test.y)
    return concordance_index(scores, resp_test.time, resp_test.status)


def run_replication(scn: BenchScenario, rep: int) -> dict:
    """One replication; deterministic given (scenario.seed, rep)."""
    rng = np.random.default_rng([scn.seed, rep])
    cfg = scn.gen_config()
    b, B = cfg.magnitude_range()
    X = gen_design(scn.n, scn.p, scn.rho, rng)
    beta_star = gen_beta(scn.p, scn.q, b, B, "random", rng)
    response = gen_response(scn.family, X, beta_star, cfg, rng)
    X_test = gen_design(scn.holdout, scn.p, scn.rho, rng)
    resp_test = gen_response(scn.family, X_test, beta_star, cfg, rng)
    if scn.family == "cox":  # a pair is comparable iff an event precedes the latest time
        if not np.any(resp_test.time[resp_test.status == 1.0] < resp_test.time.max()):
            raise ValueError(
                f"replication {rep}: held-out set has no comparable pair; raise --holdout"
            )
    truth = tuple(int(j) for j in np.flatnonzero(beta_star))

    family = ModelFamily(scn.family)
    d = standardize(Dataset(X, response))

    def method_row(model, elapsed):
        tp, fp = tp_fp(model.active_set, truth)
        return {
            "k": len(model.active_set),
            "active": list(model.active_set),
            "loss": model.loss,
            "time": elapsed,
            "tp": tp,
            "fp": fp,
            "metric": _holdout_metric(
                scn, family, d, model, beta_star, X_test, resp_test
            ),
        }

    record = {"rep": rep, "methods": {}}
    selected_ks = set()
    for name in scn.methods:
        if name == "oracle":
            continue
        start = time.perf_counter()
        if name == "spdas":
            _, report = spdas(
                family, d, k_max=scn.k_max, criterion=scn.criterion,
                epsilon=scn.epsilon,
            )
        else:
            report, _ = gpdas(family, d, k_max=scn.k_max, eta=scn.eta)
        elapsed = time.perf_counter() - start
        record["methods"][name] = method_row(report, elapsed)
        selected_ks.add(report.k)

    if "oracle" in scn.methods:
        start = time.perf_counter()
        model = exhaustive_best_subset(family, d, scn.q)
        elapsed = time.perf_counter() - start
        record["methods"]["oracle"] = method_row(model, elapsed)
        # losses at every size any other method selected, for dominance checks
        losses = {scn.q: model.loss}
        for k in sorted(selected_ks - {scn.q}):
            losses[k] = exhaustive_best_subset(family, d, k).loss
        record["oracle_losses"] = {str(k): v for k, v in losses.items()}
    return record


def _mean_sd(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def summarize(scn: BenchScenario, records) -> tuple[dict, ...]:
    metric = METRIC_NAME[scn.family]
    rows = []
    for name in scn.methods:
        per = [r["methods"][name] for r in records]
        row = {"method": name, "reps": scn.reps, "metric": metric}
        for field_name, key in (
            ("time", "time"),
            (metric, "metric"),
            ("tp", "tp"),
            ("fp", "fp"),
            ("k", "k"),
        ):
            mean, sd = _mean_sd([p[key] for p in per])
            row[f"{field_name}_mean"] = mean
            row[f"{field_name}_sd"] = sd
        rows.append(row)
    return tuple(rows)


def run_bench(scn: BenchScenario, jobs: int = 1):
    """Run all replications, optionally across processes; ``(records, summary)``.

    Results are keyed by replication index, so the executor cannot affect
    the output.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        records = [run_replication(scn, r) for r in range(scn.reps)]
    else:
        # imported here so serial runs and CLI starts skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, scn.reps)) as pool:
            records = list(pool.map(run_replication, [scn] * scn.reps, range(scn.reps)))
    return tuple(records), summarize(scn, records)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own output.
"""

import math
import time

import numpy as np

from bestsubset.bench import BenchScenario, run_bench
from bestsubset.cli import main as cli_main
from bestsubset.data import standardize
from bestsubset.datagen import GenConfig, gen_dataset, gen_design
from bestsubset.families import (
    CoefficientModel,
    ModelFamily,
    dual_sacrifice,
    fit_active,
    grad_hess,
    loss,
)
from bestsubset.oracle import exhaustive_best_subset
from bestsubset.pdas import pdas, select_top_k
from bestsubset.tuning import criteria, golden_section_search, gpdas
from conftest import random_standardized

GAUSSIAN = ModelFamily("gaussian")


def gate(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_01_criteria_golden_values():
    c = criteria(16.23951, k=4, n=200, p=20)
    ok = (
        abs(c["aic"] - (-24.47901)) < 1e-4
        and abs(c["bic"] - (-11.28574)) < 1e-4
        and abs(c["ebic"] - 12.68012) < 1e-4
    )
    gate(1, "criteria golden values", ok,
         f"aic={c['aic']:.5f} bic={c['bic']:.5f} ebic={c['ebic']:.5f}")


def test_02_golden_section_trace():
    target = [(1, 16, 25), (1, 10, 16), (1, 7, 10), (1, 5, 7), (5, 6, 7)]

    # splitter driven by a synthetic loss curve with an elbow at 6
    def curve(k):
        return 1.0 + 2.0 * (6 - k) if k <= 6 else 1.0 - 1e-4 * (k - 6)

    class Out:
        def __init__(self, loss):
            self.loss = loss

    out, rows, reason, _ = golden_section_search(
        lambda k, prev: Out(curve(k)), 25, eta=0.01, m_max=50
    )
    splits = [(kl, km, kr) for _, kl, km, kr in rows]
    synthetic_ok = splits == target and reason == "elbow" and out.loss == curve(6)

    # end to end on a planted elbow-at-6 instance
    beta = [0.0] * 25
    for i, v in zip(range(6), (4.0, 3.5, 3.0, 2.5, 2.0, 1.5)):
        beta[i] = v if i % 2 == 0 else -v
    cfg = GenConfig(
        n=2000, p=25, q=6, family="gaussian", rho=0.2, sigma=0.5,
        beta=tuple(beta), seed=0,
    )
    ds, _, _ = gen_dataset(cfg)
    sd = standardize(ds)
    start = time.perf_counter()
    report, trace = gpdas(GAUSSIAN, sd, k_max=25)
    elapsed = time.perf_counter() - start
    end_to_end = [(kl, km, kr) for _, kl, km, kr in trace.rows]
    e2e_ok = end_to_end == target and report.k == 6 and elapsed < 5.0
    gate(2, "golden-section split sequence 16,10,7,5,6",
         synthetic_ok and e2e_ok,
         f"splits={[s[1] for s in end_to_end]} k={report.k} {elapsed:.2f}s")


def test_03_oracle_equivalence():
    n, p, q, sigma = 200, 12, 4, 1.0
    b, _ = GenConfig(n=n, p=p, q=q, sigma=sigma).magnitude_range()  # 5 sigma sqrt(2 log p / n)
    total = 50
    matches = 0
    fallback_ok = True
    start = time.perf_counter()
    for seed in range(total):
        cfg = GenConfig(
            n=n, p=p, q=q, family="gaussian", sigma=sigma, rho=0.2, b=b, B=10 * b,
            seed=50_000 + seed,
        )
        ds, _, _ = gen_dataset(cfg)
        sd = standardize(ds)
        out = pdas(GAUSSIAN, sd, q)
        oracle = exhaustive_best_subset(GAUSSIAN, sd, q)
        if out.model.active_set == oracle.active_set:
            matches += 1
        elif out.loss > 1.1 * oracle.loss:
            fallback_ok = False
    elapsed = time.perf_counter() - start
    ok = matches >= 0.9 * total and fallback_ok and elapsed < 60.0
    gate(3, "pdas matches exhaustive oracle", ok,
         f"matches={matches}/{total} {elapsed:.1f}s")


def test_04_gaussian_benchmark_analogue():
    scn = BenchScenario(
        family="gaussian", n=500, p=100, q=10, reps=20, methods=("spdas",),
        criterion="ebic", rho=0.2, holdout=1000, seed=100,
    )
    start = time.perf_counter()
    _, summary = run_bench(scn)
    elapsed = time.perf_counter() - start
    row = summary[0]
    ok = (
        row["tp_mean"] >= 9.0
        and row["fp_mean"] <= 3.0
        and row["mse_mean"] <= 0.05
        and elapsed < 120.0
    )
    gate(4, "gaussian n=500 p=100 q=10 spdas+EBIC", ok,
         f"tp={row['tp_mean']:.2f} fp={row['fp_mean']:.2f} "
         f"mse={row['mse_mean']:.4f} {elapsed:.1f}s")


def test_05_logistic_benchmark_analogue():
    scn = BenchScenario(
        family="binomial", n=500, p=100, q=5, reps=20, methods=("spdas",),
        criterion="ebic", holdout=1000, seed=200,
    )
    start = time.perf_counter()
    _, summary = run_bench(scn)
    elapsed = time.perf_counter() - start
    row = summary[0]
    ok = (
        row["tp_mean"] >= 4.5
        and row["fp_mean"] <= 3.0
        and row["accuracy_mean"] >= 0.90
        and elapsed < 180.0
    )
    gate(5, "logistic n=500 p=100 q=5 spdas+EBIC", ok,
         f"tp={row['tp_mean']:.2f} fp={row['fp_mean']:.2f} "
         f"acc={row['accuracy_mean']:.3f} {elapsed:.1f}s")


def test_06_cox_benchmark_analogue():
    scn = BenchScenario(
        family="cox", n=500, p=50, q=5, reps=20, methods=("spdas",),
        criterion="ebic", censor_rate=0.2, holdout=1000, seed=300,
    )
    start = time.perf_counter()
    _, summary = run_bench(scn)
    elapsed = time.perf_counter() - start
    row = summary[0]
    ok = (
        row["tp_mean"] >= 4.5
        and row["fp_mean"] <= 3.0
        and row["cindex_mean"] >= 0.85
        and elapsed < 300.0
    )
    gate(6, "cox n=500 p=50 q=5 censor=0.2 spdas+EBIC", ok,
         f"tp={row['tp_mean']:.2f} fp={row['fp_mean']:.2f} "
         f"cindex={row['cindex_mean']:.3f} {elapsed:.1f}s")


def test_07_gradient_curvature_suite():
    start = time.perf_counter()
    worst_g, worst_h = 0.0, 0.0
    for family in ("gaussian", "binomial", "cox"):
        fam = ModelFamily(family)
        for trial in range(20):
            n, p = 40, 5
            sd = random_standardized(family, n, p, seed=7000 + trial, censor_rate=0.2)
            rng = np.random.default_rng(8000 + trial)
            beta = rng.standard_normal(p) * 0.5
            intercept = float(rng.standard_normal()) * 0.3 if family == "binomial" else 0.0
            model = CoefficientModel(beta, intercept, tuple(range(p)))
            g, h = grad_hess(fam, sd, model)

            def loss_at(j, t):
                b = beta.copy()
                b[j] = t
                return loss(fam, sd, CoefficientModel(b, intercept, tuple(range(p))))

            for j in range(p):
                step = 1e-5 * max(1.0, abs(beta[j]))
                fd_g = (loss_at(j, beta[j] + step) - loss_at(j, beta[j] - step)) / (
                    2 * step
                )
                worst_g = max(worst_g, abs(g[j] - fd_g) / max(1.0, abs(fd_g)))
                if family == "gaussian":
                    worst_h = max(worst_h, abs(h[j] - 1.0))
                    continue
                step = 5e-4 * max(1.0, abs(beta[j]))
                fd_h = (
                    loss_at(j, beta[j] + step)
                    - 2 * loss_at(j, beta[j])
                    + loss_at(j, beta[j] - step)
                ) / step**2
                worst_h = max(worst_h, abs(h[j] - fd_h) / max(1.0, abs(fd_h)))
    elapsed = time.perf_counter() - start
    ok = worst_g <= 1e-5 and worst_h <= 1e-4 and elapsed < 10.0
    gate(7, "gradients and curvatures match finite differences", ok,
         f"max_g_err={worst_g:.2e} max_h_err={worst_h:.2e} {elapsed:.1f}s")


def test_08_invariant_suite():
    start = time.perf_counter()
    problems = []

    # complementary supports, exact, all families
    for family in ("gaussian", "binomial", "cox"):
        fam = ModelFamily(family)
        sd = random_standardized(family, 60, 8, seed=901, censor_rate=0.1)
        model = fit_active(fam, sd, (0, 3, 5))
        gamma, _ = dual_sacrifice(fam, sd, model)
        inactive = [j for j in range(8) if j not in (0, 3, 5)]
        if any(model.beta[j] != 0.0 for j in inactive):
            problems.append(f"{family}: beta support leak")
        if any(gamma[j] != 0.0 for j in (0, 3, 5)):
            problems.append(f"{family}: gamma support leak")

    # select_top_k against a full sort
    rng = np.random.default_rng(902)
    for _ in range(200):
        delta = rng.standard_normal(rng.integers(1, 40))
        k = int(rng.integers(0, len(delta) + 1))
        chosen = select_top_k(delta, k)
        ref = tuple(sorted(sorted(range(len(delta)), key=lambda j: (-delta[j], j))[:k]))
        if chosen != ref:
            problems.append("select_top_k mismatch")
            break

    # sqrt(n) column norms after standardization and after generation
    sd = random_standardized("gaussian", 33, 6, seed=903)
    if np.max(np.abs(np.linalg.norm(sd.dataset.X, axis=0) - math.sqrt(33))) > 1e-10:
        problems.append("standardized norms")
    X = gen_design(41, 7, 0.5, np.random.default_rng(904))
    if np.max(np.abs(np.linalg.norm(X, axis=0) - math.sqrt(41))) > 1e-10:
        problems.append("generated norms")

    # fixed-point recheck of converged outputs
    for seed in range(5):
        cfg = GenConfig(n=120, p=10, q=3, family="gaussian", seed=905 + seed,
                        b=1.0, B=2.0)
        ds, _, _ = gen_dataset(cfg)
        sdd = standardize(ds)
        out = pdas(GAUSSIAN, sdd, 3)
        if out.converged:
            again = pdas(GAUSSIAN, sdd, 3, init=out.model.active_set, m_max=1)
            if again.model.active_set != out.model.active_set:
                problems.append("fixed point recheck")

    # cox risk-set weights: brute-force per-event weights sum to one and
    # reproduce the implementation's gradient
    sd = random_standardized("cox", 25, 4, seed=910, censor_rate=0.3)
    rng = np.random.default_rng(911)
    beta = rng.standard_normal(4) * 0.5
    model = CoefficientModel(beta, 0.0, tuple(range(4)))
    g_impl, _ = grad_hess(ModelFamily("cox"), sd, model)
    eta = sd.dataset.X @ beta
    t = sd.dataset.response.time
    g_brute = np.zeros(4)
    for i in range(25):
        if sd.dataset.response.status[i] == 1.0:
            risk = t >= t[i]
            w = np.exp(eta[risk]) / np.exp(eta[risk]).sum()
            if abs(w.sum() - 1.0) > 1e-10:
                problems.append("cox weights")
                break
            g_brute -= sd.dataset.X[i] - w @ sd.dataset.X[risk]
    if np.max(np.abs(g_impl - g_brute)) > 1e-10 * max(1.0, np.max(np.abs(g_brute))):
        problems.append("cox risk-set sums")

    # criteria arithmetic identities, exact
    rng = np.random.default_rng(912)
    for _ in range(100):
        ll = float(rng.uniform(-1e5, 1e5))
        k = int(rng.integers(0, 500))
        n = int(rng.integers(2, 10**6))
        p = int(rng.integers(1, 10**6))
        k = min(k, p)  # a size is at most p
        c = criteria(ll, k, n, p)
        if not (
            c["deviance"] == -2.0 * ll
            and c["aic"] == c["deviance"] + 2.0 * k
            and c["bic"] == c["deviance"] + k * math.log(n)
            and c["ebic"] == c["bic"] + 2.0 * k * math.log(p)
        ):
            problems.append("criteria identities")
            break

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 30.0
    gate(8, "invariant suite", ok, f"{problems if problems else 'all exact'} {elapsed:.1f}s")


def test_09_cli_determinism(tmp_path):
    def run(argv):
        assert cli_main([str(a) for a in argv]) == 0

    # gen twice
    files = []
    for tag in ("a", "b"):
        data = tmp_path / f"{tag}.csv"
        run(["gen", "--family", "gaussian", "--n", 120, "--p", 12, "--q", 3,
             "--seed", 17, "--output", data])
        files.append(data.read_bytes() + (tmp_path / f"{tag}.csv.truth.json").read_bytes())
    gen_ok = files[0] == files[1]

    # fit twice on the same input (sequential with path, then gsection)
    data = tmp_path / "a.csv"
    reports = []
    for tag in ("r1", "r2"):
        rp = tmp_path / f"{tag}.json"
        run(["fit", "--input", data, "--family", "gaussian", "--method",
             "sequential", "--k-max", 8, "--output", rp])
        reports.append(rp.read_bytes())
    fit_ok = reports[0] == reports[1]

    gs = []
    for tag in ("g1", "g2"):
        rp = tmp_path / f"{tag}.json"
        run(["fit", "--input", data, "--family", "gaussian", "--method",
             "gsection", "--k-max", 10, "--output", rp])
        gs.append(rp.read_bytes())
    gs_ok = gs[0] == gs[1]

    # oracle twice
    orc = []
    for tag in ("o1", "o2"):
        rp = tmp_path / f"{tag}.json"
        run(["oracle", "--input", data, "--family", "gaussian", "-k", 3,
             "--output", rp])
        orc.append(rp.read_bytes())
    oracle_ok = orc[0] == orc[1]

    # bench: twice serially, then parallel, all byte-identical without timing
    bench_outputs = []
    for tag, jobs in (("s1", 1), ("s2", 1), ("p1", 2)):
        summary = tmp_path / f"bench_{tag}.csv"
        details = tmp_path / f"bench_{tag}.json"
        run(["bench", "--family", "gaussian", "--n", 80, "--p", 10, "--q", 2,
             "--reps", 4, "--methods", "spdas,gpdas,oracle", "--k-max", 6,
             "--holdout", 50, "--seed", 23, "--b", "1.0", "--B", "2.0",
             "--jobs", jobs, "--no-timing", "--output", summary,
             "--details", details])
        bench_outputs.append(summary.read_bytes() + details.read_bytes())
    bench_ok = bench_outputs[0] == bench_outputs[1] == bench_outputs[2]

    ok = gen_ok and fit_ok and gs_ok and oracle_ok and bench_ok
    gate(9, "CLI determinism under fixed seed", ok,
         f"gen={gen_ok} fit={fit_ok} gsection={gs_ok} oracle={oracle_ok} "
         f"bench(serial/parallel)={bench_ok}")

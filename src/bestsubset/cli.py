"""Command line interface: fit, gen, bench, and oracle subcommands.

All randomness flows from --seed, so two invocations with identical flags
produce byte-identical files.  Errors exit with status 1 and a single
machine-parsable ``error: <reason>`` line on stderr.
"""

import argparse
import csv
import io
import json
import sys

from . import bench as bench_mod
from .data import (
    Dataset,
    destandardize_coefficients,
    load_csv,
    save_csv,
    standardize,
)
from .datagen import GenConfig, gen_dataset
from .families import ModelFamily, fit_active
from .oracle import exhaustive_best_subset
from .pdas import pdas
from .tuning import SelectionReport, fixed_k_report, gpdas, spdas


def _sparse_coefficients(names, beta, nonzero_only=True):
    rows = []
    for j, value in enumerate(beta):
        if nonzero_only and value == 0.0:
            continue
        rows.append({"index": j + 1, "name": names[j], "coefficient": float(value)})
    return rows


def _path_payload(path, names, meta):
    payload = []
    for entry in path.entries:
        _, beta_orig = destandardize_coefficients(entry.beta, meta, entry.intercept)
        payload.append(
            {
                "k": entry.k,
                "active": [names[j] for j in entry.active_set],
                "loss": entry.loss,
                "deviance": entry.criteria.deviance,
                "aic": entry.criteria.aic,
                "bic": entry.criteria.bic,
                "ebic": entry.criteria.ebic,
                "coefficients": _sparse_coefficients(names, beta_orig),
                "pdas_converged": entry.pdas_converged,
            }
        )
    return payload


def _report_payload(report: SelectionReport, meta, names, dense=False):
    intercept, beta_orig = destandardize_coefficients(
        report.beta, meta, report.intercept
    )
    payload = {
        "family": report.family,
        "method": report.method,
        "criterion": report.criterion,
        "k": report.k,
        "n": meta.dataset.n,
        "p": meta.dataset.p,
        "active": [names[j] for j in report.active_set],
        "active_indices": [j + 1 for j in report.active_set],
        "intercept": intercept,
        "coefficients": _sparse_coefficients(names, beta_orig),
        "loss": report.loss,
        "loglik": report.loglik,
        "deviance": report.criteria.deviance,
        "aic": report.criteria.aic,
        "bic": report.criteria.bic,
        "ebic": report.criteria.ebic,
        "pdas_iterations": report.pdas_iterations,
        "pdas_converged": report.pdas_converged,
        "solver_converged": report.solver_converged,
    }
    if dense:
        payload["coefficients_dense"] = [float(v) for v in beta_orig]
    return payload


def _write_text(text, output):
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _emit_json(payload, output):
    _write_text(json.dumps(payload, indent=2, sort_keys=True), output)


def _path_csv(path, names, meta):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "loss", "deviance", "aic", "bic", "ebic"] + list(names))
    for entry in path.entries:
        _, beta_orig = destandardize_coefficients(entry.beta, meta, entry.intercept)
        writer.writerow(
            [entry.k]
            + [repr(float(v)) for v in (
                entry.loss,
                entry.criteria.deviance,
                entry.criteria.aic,
                entry.criteria.bic,
                entry.criteria.ebic,
            )]
            + [repr(float(v)) for v in beta_orig]
        )
    return buf.getvalue()


def _coefficients_csv(payload):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "name", "coefficient"])
    writer.writerow([0, "(intercept)", repr(payload["intercept"])])
    for row in payload["coefficients"]:
        writer.writerow([row["index"], row["name"], repr(row["coefficient"])])
    return buf.getvalue()


def _load_input(args) -> Dataset:
    if args.input is None:
        raise ValueError("--input is required")
    return load_csv(
        args.input, args.family, response=args.response, header=not args.no_header
    )


def cmd_fit(args) -> int:
    if not 0.0 < args.eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    dataset = _load_input(args)
    meta = standardize(dataset)
    names = dataset.names()
    family = ModelFamily(args.family)

    trace_lines = []
    path = None
    if args.method == "one":
        if args.k is None:
            raise ValueError("method 'one' requires -k")
        out = pdas(family, meta, args.k)
        report = fixed_k_report(family, meta, out, "one", "fixed-k")
    elif args.method == "sequential":
        path, report = spdas(
            family,
            meta,
            k_max=args.k_max,
            criterion=args.criterion,
            epsilon=args.epsilon,
        )
    elif args.method == "gsection":
        report, trace = gpdas(family, meta, k_max=args.k_max, eta=args.eta)
        trace_lines = trace.lines()
        for line in trace_lines:
            print(line)
    else:
        raise ValueError(f"unknown method {args.method!r}")

    payload = _report_payload(report, meta, names, dense=args.dense)
    payload["seed"] = args.seed
    if path is not None:
        payload["path"] = _path_payload(path, names, meta)
        payload["best_by"] = dict(sorted(path.best_by.items()))
    if trace_lines:
        payload["gsection_trace"] = trace_lines

    if args.format == "json":
        _emit_json(payload, args.output)
    else:
        if path is not None:
            _write_text(_path_csv(path, names, meta), args.output)
        else:
            _write_text(_coefficients_csv(payload), args.output)
    return 0


def cmd_gen(args) -> int:
    if args.output is None:
        raise ValueError("--output is required for gen")
    beta = None
    if args.beta is not None:
        values = [float(v) for v in args.beta.split(",") if v.strip() != ""]
        if len(values) > args.p:
            raise ValueError("explicit beta is longer than p")
        beta = tuple(values + [0.0] * (args.p - len(values)))
    config = GenConfig(
        n=args.n,
        p=args.p,
        q=args.q,
        family=args.family,
        rho=args.rho,
        sigma=args.sigma,
        b=args.b,
        B=args.B,
        censor_rate=args.censor_rate,
        signs=args.signs,
        beta=beta,
        seed=args.seed,
    )
    dataset, beta_star, support = gen_dataset(config)
    save_csv(dataset, args.output)
    sidecar = {
        "config": {
            "family": config.family,
            "n": config.n,
            "p": config.p,
            "q": config.q,
            "rho": config.rho,
            "sigma": config.sigma,
            "b": config.b,
            "B": config.B,
            "censor_rate": config.censor_rate,
            "signs": config.signs,
            "seed": config.seed,
        },
        "support": [j + 1 for j in support],
        "beta": [float(v) for v in beta_star],
    }
    _emit_json(sidecar, _truth_path(args.output))
    return 0


def _truth_path(output):
    return str(output) + ".truth.json"


def cmd_oracle(args) -> int:
    if args.k is None:
        raise ValueError("oracle requires -k")
    dataset = _load_input(args)
    meta = standardize(dataset)
    names = dataset.names()
    family = ModelFamily(args.family)
    active, best_loss = exhaustive_best_subset(family, meta, args.k, p_cap=args.p_cap)
    model = fit_active(family, meta, active)
    intercept, beta_orig = destandardize_coefficients(
        model.beta, meta, model.intercept
    )
    payload = {
        "family": family.tag,
        "method": "oracle",
        "k": args.k,
        "active": [names[j] for j in active],
        "active_indices": [j + 1 for j in active],
        "intercept": intercept,
        "coefficients": _sparse_coefficients(names, beta_orig),
        "loss": best_loss,
    }
    _emit_json(payload, args.output)
    return 0


def _format_summary_csv(result, with_timing=True):
    scn = result.scenario
    metric = bench_mod.METRIC_NAME[scn.family]
    columns = ["method", "reps"]
    if with_timing:
        columns += ["time_mean", "time_sd"]
    columns += [
        f"{metric}_mean",
        f"{metric}_sd",
        "tp_mean",
        "tp_sd",
        "fp_mean",
        "fp_sd",
        "k_mean",
        "k_sd",
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in result.summary:
        record = [row["method"], row["reps"]]
        if with_timing:
            record += [f"{row['time_mean']:.2f}", f"{row['time_sd']:.2f}"]
        record += [
            f"{row[f'{metric}_mean']:.6f}",
            f"{row[f'{metric}_sd']:.6f}",
            f"{row['tp_mean']:.4f}",
            f"{row['tp_sd']:.4f}",
            f"{row['fp_mean']:.4f}",
            f"{row['fp_sd']:.4f}",
            f"{row['k_mean']:.4f}",
            f"{row['k_sd']:.4f}",
        ]
        writer.writerow(record)
    return buf.getvalue()


def cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    scenario = bench_mod.BenchScenario(
        family=args.family,
        n=args.n,
        p=args.p,
        q=args.q,
        reps=args.reps,
        methods=methods,
        criterion=args.criterion,
        k_max=args.k_max,
        eta=args.eta,
        epsilon=args.epsilon,
        rho=args.rho,
        sigma=args.sigma,
        censor_rate=args.censor_rate,
        holdout=args.holdout,
        seed=args.seed,
        b=args.b,
        B=args.B,
    )
    result = bench_mod.run_bench(scenario, jobs=args.jobs)
    _write_text(
        _format_summary_csv(result, with_timing=not args.no_timing), args.output
    )
    if args.details is not None:
        detail = {"records": list(result.records)}
        if args.no_timing:
            for record in detail["records"]:
                for stats in record["methods"].values():
                    stats.pop("time", None)
        with open(args.details, "w") as fh:
            json.dump(detail, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _add_io_arguments(sub):
    sub.add_argument("--input", help="input CSV path")
    sub.add_argument("--output", help="output path (default: stdout)")
    sub.add_argument("--response", help="response column(s), e.g. y or time,status")
    sub.add_argument(
        "--no-header", action="store_true", help="input CSV has no header row"
    )
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestsubset",
        description="Best subset selection for linear, logistic and Cox models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    _add_io_arguments(fit)
    fit.add_argument("--family", choices=("gaussian", "binomial", "cox"), required=True)
    fit.add_argument(
        "--method", choices=("one", "sequential", "gsection"), default="sequential"
    )
    fit.add_argument("-k", type=int, help="subset size for method 'one'")
    fit.add_argument("--k-max", type=int, help="largest candidate subset size")
    fit.add_argument(
        "--criterion", choices=("aic", "bic", "ebic", "auto"), default="auto"
    )
    fit.add_argument("--eta", type=float, default=0.01, help="elbow tolerance")
    fit.add_argument(
        "--epsilon", type=float, default=0.0, help="sequential early-stop threshold"
    )
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument(
        "--dense", action="store_true", help="also emit all p coefficients"
    )
    fit.set_defaults(func=cmd_fit)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--family", choices=("gaussian", "binomial", "cox"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--q", type=int, default=0, help="number of nonzero coefficients")
    gen.add_argument("--rho", type=float, default=0.5, help="neighbor mixing weight")
    gen.add_argument("--sigma", type=float, default=1.0, help="gaussian noise sd")
    gen.add_argument("--b", type=float, help="smallest nonzero magnitude")
    gen.add_argument("--B", type=float, help="largest nonzero magnitude")
    gen.add_argument("--censor-rate", type=float, default=0.0)
    gen.add_argument("--signs", choices=("random", "positive"), default="random")
    gen.add_argument("--beta", help="explicit comma-separated coefficients")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=False, help="output CSV path")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="run a replicated benchmark scenario")
    bench.add_argument(
        "--family", choices=("gaussian", "binomial", "cox"), required=True
    )
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--p", type=int, required=True)
    bench.add_argument("--q", type=int, required=True)
    bench.add_argument("--reps", type=int, default=10)
    bench.add_argument(
        "--methods", default="spdas", help="comma list from: spdas,gpdas,oracle"
    )
    bench.add_argument(
        "--criterion", choices=("aic", "bic", "ebic", "auto"), default="auto"
    )
    bench.add_argument("--k-max", type=int)
    bench.add_argument("--eta", type=float, default=0.01)
    bench.add_argument("--epsilon", type=float, default=0.0)
    bench.add_argument("--rho", type=float, default=0.5)
    bench.add_argument("--sigma", type=float, default=1.0)
    bench.add_argument("--censor-rate", type=float, default=0.0)
    bench.add_argument("--holdout", type=int, default=1000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--b", type=float)
    bench.add_argument("--B", type=float)
    bench.add_argument("--jobs", type=int, default=1, help="parallel replications")
    bench.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-clock columns (outputs become reproducible byte-for-byte)",
    )
    bench.add_argument("--output", help="summary CSV path (default: stdout)")
    bench.add_argument("--details", help="per-replication JSON path")
    bench.set_defaults(func=cmd_bench)

    oracle = sub.add_parser("oracle", help="exhaustive best subset at a fixed size")
    _add_io_arguments(oracle)
    oracle.add_argument(
        "--family", choices=("gaussian", "binomial", "cox"), required=True
    )
    oracle.add_argument("-k", type=int, required=True)
    oracle.add_argument("--p-cap", type=int, default=25)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

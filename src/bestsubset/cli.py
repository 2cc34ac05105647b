"""Command line interface: fit, gen, bench, and oracle subcommands.

All randomness flows from --seed, so two invocations with identical flags
produce byte-identical files.  Errors exit with status 1 and a single
machine-parsable ``error: <reason>`` line on stderr; a warning is one
``warning: <message>`` line there, with no source path or line number.
"""

import argparse
import csv
import functools
import io
import json
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import bench as bench_mod
from .data import (
    FAMILIES,
    destandardize_coefficients,
    load_csv,
    save_csv,
    standardize,
)
from .datagen import GenConfig, gen_dataset
from .families import ModelFamily
from .oracle import DEFAULT_P_CAP, exhaustive_best_subset
from .pdas import pdas
from .tuning import (
    CRITERIA,
    SelectionReport,
    check_epsilon,
    check_eta,
    fixed_k_report,
    gpdas,
    spdas,
)


_CRITERIA = ("deviance", *CRITERIA)
_PATH_KEYS = ("k", "active", "loss", *_CRITERIA, "coefficients", "pdas_converged")


def _given(args, *names):
    """The options among ``names`` that were given (an unset one is absent)."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _from_args(cls, args, **overrides):
    """Build dataclass ``cls`` from the parsed arguments named after its fields.

    A field the user left unset keeps its default.
    """
    return cls(**{**_given(args, *(f.name for f in fields(cls))), **overrides})


def _sparse_coefficients(names, beta):
    return [
        {"index": j + 1, "name": names[j], "coefficient": float(beta[j])}
        for j in np.flatnonzero(beta).tolist()
    ]


def _model_payload(model, meta, dense=False, **extra):
    """A model report: its size, set, loss, original-scale coefficients and ``extra``.

    ``model`` is a ``CoefficientModel`` on the standardized scale; a
    :class:`SelectionReport` is one.  ``dense`` adds all p coefficients.
    """
    names = meta.dataset.names()
    intercept, beta_orig = destandardize_coefficients(model.beta, meta, model.intercept)
    payload = {
        "k": len(model.active_set),
        "active": [names[j] for j in model.active_set],
        "active_indices": [j + 1 for j in model.active_set],
        "intercept": intercept,
        "coefficients": _sparse_coefficients(names, beta_orig),
        "loss": model.loss,
        **extra,
    }
    if dense:
        payload["coefficients_dense"] = [float(v) for v in beta_orig]
    return payload


def _report_payload(report: SelectionReport, meta, dense=False):
    return _model_payload(
        report, meta, dense, family=report.family, method=report.method,
        criterion=report.criterion, n=meta.dataset.n, p=meta.dataset.p,
        loglik=report.loglik, pdas_iterations=report.pdas_iterations,
        pdas_converged=report.pdas_converged,
        solver_converged=report.solver_converged, **report.criteria,
    )


def _write_text(text, output):
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _emit_json(payload, output):
    _write_text(json.dumps(payload, indent=2, sort_keys=True), output)


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _path_csv(path, meta):
    rows = [["k", "loss", *_CRITERIA, *meta.dataset.names()]]
    for entry in path.entries:
        _, beta_orig = destandardize_coefficients(entry.beta, meta, entry.intercept)
        values = [entry.loss, *(entry.criteria[key] for key in _CRITERIA), *beta_orig]
        rows.append([entry.k] + [repr(float(v)) for v in values])
    return _csv_text(rows)


def _coefficients_csv(payload):
    rows = [["index", "name", "coefficient"]]
    rows.append([0, "(intercept)", repr(payload["intercept"])])
    for row in payload["coefficients"]:
        rows.append([row["index"], row["name"], repr(row["coefficient"])])
    return _csv_text(rows)


def _load_input(args):
    """``(meta, family)``: the standardized input and its family."""
    if args.input is None:
        raise ValueError("--input is required")
    dataset = load_csv(args.input, args.family, args.response, not args.no_header)
    return standardize(dataset), ModelFamily(args.family)


def cmd_fit(args) -> int:
    if args.method == "gsection" and hasattr(args, "eta"):
        check_eta(args.eta)
    if args.method == "sequential" and hasattr(args, "epsilon"):
        check_epsilon(args.epsilon)
    if args.method == "one" and args.k is None:
        raise ValueError("method 'one' requires -k")
    meta, family = _load_input(args)

    trace_lines = []
    path = None
    if args.method == "one":
        out = pdas(family, meta, args.k)
        report = fixed_k_report(family, meta, out, "one", "fixed-k")
    elif args.method == "sequential":
        path, report = spdas(family, meta, **_given(args, "k_max", "criterion", "epsilon"))
    else:
        report, trace = gpdas(family, meta, **_given(args, "k_max", "eta"))
        trace_lines = trace.lines()

    payload = _report_payload(report, meta, dense=args.dense)
    if args.format == "json":
        if path is not None:
            entries = (_report_payload(entry, meta) for entry in path.entries)
            payload["path"] = [{key: row[key] for key in _PATH_KEYS} for row in entries]
            payload["best_by"] = dict(sorted(path.best_by.items()))
            payload["stop"] = path.stop
        if trace_lines:
            payload["gsection_trace"] = trace_lines
        _emit_json(payload, args.output)
    elif path is not None:
        _write_text(_path_csv(path, meta), args.output)
    else:
        _write_text(_coefficients_csv(payload), args.output)
    # after the report, so a failed write leaves one error line on stderr
    sys.stderr.writelines(f"{line}\n" for line in trace_lines)
    return 0


def _comma_fields(text, option):
    """``option``'s comma-separated fields, stripped; an empty field is refused."""
    cells = [v.strip() for v in text.split(",")]
    if "" in cells:
        raise ValueError(f"{option} has an empty field: {text!r}")
    return cells


def _explicit_beta(text, p):
    """``--beta`` as a length-p tuple padded with zeros, or None if unset."""
    if text is None:
        return None
    values = [float(v) for v in _comma_fields(text, "--beta")]
    if len(values) > p:
        raise ValueError("explicit beta is longer than p")
    return tuple(values + [0.0] * (p - len(values)))


def cmd_gen(args) -> int:
    if args.output is None:
        raise ValueError("--output is required for gen")
    beta = _explicit_beta(args.beta, args.p)
    # an unset --q is the count --beta plants, or 0
    q = getattr(args, "q", 0 if beta is None else sum(v != 0.0 for v in beta))
    config = _from_args(GenConfig, args, beta=beta, q=q)
    dataset, beta_star, support = gen_dataset(config)
    save_csv(dataset, args.output)
    sidecar = {
        "config": {
            f.name: getattr(config, f.name) for f in fields(config) if f.name != "beta"
        },
        "support": [j + 1 for j in support],
        "beta": [float(v) for v in beta_star],
    }
    _emit_json(sidecar, f"{args.output}.truth.json")
    return 0


def cmd_oracle(args) -> int:
    meta, family = _load_input(args)
    model = exhaustive_best_subset(family, meta, args.k, p_cap=args.p_cap)
    payload = _model_payload(model, meta, family=family.tag, method="oracle")
    if args.format == "json":
        _emit_json(payload, args.output)
    else:
        _write_text(_coefficients_csv(payload), args.output)
    return 0


def _format_summary_csv(scenario, summary, with_timing=True):
    metric = bench_mod.METRIC_NAME[scenario.family]
    stats = [(metric, ".6f"), ("tp", ".4f"), ("fp", ".4f"), ("k", ".4f")]
    if with_timing:
        stats.insert(0, ("time", ".2f"))
    cells = [(f"{name}_{stat}", fmt) for name, fmt in stats for stat in ("mean", "sd")]
    rows = [["method", "reps"] + [column for column, _ in cells]]
    for row in summary:
        values = [format(row[column], fmt) for column, fmt in cells]
        rows.append([row["method"], row["reps"], *values])
    return _csv_text(rows)


def cmd_bench(args) -> int:
    if hasattr(args, "methods"):  # unset, it keeps BenchScenario's default
        args.methods = tuple(_comma_fields(args.methods, "--methods"))
    scenario = _from_args(bench_mod.BenchScenario, args)
    records, summary = bench_mod.run_bench(scenario, jobs=args.jobs)
    text = _format_summary_csv(scenario, summary, with_timing=not args.no_timing)
    _write_text(text, args.output)
    if args.details is not None:
        detail = {"records": list(records)}
        if args.no_timing:
            for record in detail["records"]:
                for stats in record["methods"].values():
                    stats.pop("time", None)
        _emit_json(detail, args.details)
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
    sub.add_argument("--family", choices=FAMILIES, required=True)


def _add_scenario_arguments(sub, **q_options):
    """The options ``gen`` and ``bench`` share.

    Both subparsers suppress unset options, so each default lives only in
    ``GenConfig`` or ``BenchScenario``.
    """
    sub.add_argument("--family", choices=FAMILIES, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, help="number of nonzero coefficients", **q_options)
    sub.add_argument("--rho", type=float, help="neighbor mixing weight")
    sub.add_argument("--sigma", type=float, help="gaussian noise sd")
    sub.add_argument("--b", type=float, help="smallest nonzero magnitude")
    sub.add_argument("--B", type=float, help="largest nonzero magnitude")
    sub.add_argument("--censor-rate", type=float, help="censored fraction (cox only)")
    sub.add_argument("--seed", type=int)


def _add_search_arguments(sub):
    """The search options ``fit`` and ``bench`` share.

    Unset options are suppressed, so each default lives only in ``spdas``,
    ``gpdas`` and ``BenchScenario``.
    """
    add = functools.partial(sub.add_argument, default=argparse.SUPPRESS)
    add("--k-max", type=int, help="largest candidate subset size")
    add("--criterion", choices=(*CRITERIA, "auto"))
    add("--eta", type=float, help="elbow tolerance (gsection)")
    add("--epsilon", type=float, help="sequential early-stop threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestsubset",
        description="Best subset selection for linear, logistic and Cox models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    _add_io_arguments(fit)
    fit.add_argument(
        "--method", choices=("one", "sequential", "gsection"), default="sequential"
    )
    fit.add_argument("-k", type=int, help="subset size for method 'one'")
    _add_search_arguments(fit)
    fit.add_argument(
        "--dense", action="store_true", help="also emit all p coefficients"
    )
    fit.set_defaults(func=cmd_fit)

    gen = sub.add_parser(
        "gen", help="generate a synthetic dataset", argument_default=argparse.SUPPRESS
    )
    _add_scenario_arguments(gen)
    gen.add_argument("--signs", choices=("random", "positive"))
    gen.add_argument(
        "--beta", default=None, help="explicit comma-separated coefficients"
    )
    gen.add_argument("--output", default=None, help="output CSV path")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser(
        "bench",
        help="run a replicated benchmark scenario",
        argument_default=argparse.SUPPRESS,
    )
    _add_scenario_arguments(bench, required=True)
    bench.add_argument("--reps", type=int, default=10)
    methods = ",".join(bench_mod.KNOWN_METHODS)
    bench.add_argument("--methods", help=f"comma list from: {methods}")
    _add_search_arguments(bench)
    bench.add_argument("--holdout", type=int)
    bench.add_argument("--jobs", type=int, default=1, help="parallel replications")
    bench.add_argument(
        "--no-timing",
        action="store_true",
        default=False,
        help="omit wall-clock columns (outputs become reproducible byte-for-byte)",
    )
    bench.add_argument(
        "--output", default=None, help="summary CSV path (default: stdout)"
    )
    bench.add_argument("--details", default=None, help="per-replication JSON path")
    bench.set_defaults(func=cmd_bench)

    oracle = sub.add_parser("oracle", help="exhaustive best subset at a fixed size")
    _add_io_arguments(oracle)
    oracle.add_argument("-k", type=int, required=True)
    oracle.add_argument("--p-cap", type=int, default=DEFAULT_P_CAP)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

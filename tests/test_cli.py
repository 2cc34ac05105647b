import argparse
import csv
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import bestsubset
from bestsubset import bench, datagen
from bestsubset.bench import BenchScenario
from bestsubset.cli import _sparse_coefficients, build_parser, main
from bestsubset.data import Continuous, Dataset, load_csv, save_csv
from bestsubset.datagen import GenConfig, gen_design
from bestsubset.tuning import gpdas, spdas


def run(argv):
    return main([str(a) for a in argv])


REPORT_KEYS = {
    "active", "active_indices", "aic", "bic", "coefficients", "criterion",
    "deviance", "ebic", "family", "intercept", "k", "loglik", "loss", "method",
    "n", "p", "pdas_converged", "pdas_iterations", "solver_converged",
}
PATH_ENTRY_KEYS = {
    "active", "aic", "bic", "coefficients", "deviance", "ebic", "k", "loss",
    "pdas_converged",
}
ORACLE_KEYS = {
    "active", "active_indices", "coefficients", "family", "intercept", "k",
    "loss", "method",
}
SIDECAR_CONFIG_KEYS = {
    "B", "b", "censor_rate", "family", "n", "p", "q", "rho", "seed", "sigma",
    "signs",
}
SUMMARY_COLUMNS = [
    "method", "reps", "time_mean", "time_sd", "mse_mean", "mse_sd", "tp_mean",
    "tp_sd", "fp_mean", "fp_sd", "k_mean", "k_sd",
]


def gen_planted(tmp_path, seed=123):
    """The 20-predictor planted instance with support X1, X2, X5, X9."""
    out = tmp_path / "data.csv"
    code = run(
        [
            "gen", "--family", "gaussian", "--n", 200, "--p", 20, "--rho", "0.2",
            "--sigma", "1.0", "--beta", "3,1.5,0,0,-2,0,0,0,-1", "--seed", seed,
            "--output", out,
        ]
    )
    assert code == 0
    return out


class TestGen:
    def test_writes_csv_and_truth_sidecar(self, tmp_path):
        out = gen_planted(tmp_path)
        assert out.exists()
        truth = json.loads((tmp_path / "data.csv.truth.json").read_text())
        assert truth["support"] == [1, 2, 5, 9]
        assert truth["beta"][0] == 3.0
        header = out.read_text().splitlines()[0]
        assert header.startswith("X1,X2,") and header.endswith(",y")

    def test_seed_repeatability_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(
                ["gen", "--family", "cox", "--n", 40, "--p", 6, "--q", 2,
                 "--censor-rate", "0.2", "--seed", 9, "--output", out]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.truth.json").read_bytes() == (
            tmp_path / "b.csv.truth.json"
        ).read_bytes()

    def test_null_dataset(self, tmp_path):
        out = tmp_path / "null.csv"
        assert run(
            ["gen", "--family", "gaussian", "--n", 30, "--p", 5, "--q", 0,
             "--seed", 1, "--output", out]
        ) == 0
        truth = json.loads((tmp_path / "null.csv.truth.json").read_text())
        assert truth["support"] == []

    def test_missing_output_fails(self, capsys):
        assert run(["gen", "--family", "gaussian", "--n", 10, "--p", 3]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sidecar_keys(self, tmp_path):
        gen_planted(tmp_path)
        truth = json.loads((tmp_path / "data.csv.truth.json").read_text())
        assert set(truth) == {"config", "support", "beta"}
        assert set(truth["config"]) == SIDECAR_CONFIG_KEYS
        given = {"family": "gaussian", "n": 200, "p": 20, "rho": 0.2, "sigma": 1.0,
                 "seed": 123}
        assert {key: truth["config"][key] for key in given} == given

    def test_unset_options_take_config_defaults(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["gen", "--family", "cox", "--n", 30, "--p", 5,
                    "--output", out]) == 0
        truth = json.loads((tmp_path / "d.csv.truth.json").read_text())
        expected = GenConfig(family="cox", n=30, p=5, q=0)
        assert truth["config"] == {
            f.name: getattr(expected, f.name) for f in fields(GenConfig)
            if f.name != "beta"
        }

    @pytest.mark.parametrize(
        "drawn", [["--q", 0], ["--q", 1, "--beta", "1,0,0"]], ids=["q-0", "beta"]
    )
    def test_magnitudes_ignored_when_nothing_is_drawn(self, tmp_path, drawn):
        out = tmp_path / "d.csv"
        assert run(["gen", "--family", "gaussian", "--n", 30, "--p", 3, "--b", 2,
                    "--B", 1, *drawn, "--output", out]) == 0
        truth = json.loads((tmp_path / "d.csv.truth.json").read_text())
        assert truth["config"]["b"] == 2.0 and truth["config"]["B"] == 1.0
        assert truth["beta"] == ([1.0, 0.0, 0.0] if "--beta" in drawn else [0.0] * 3)

    def test_explicit_beta_records_its_support_size_as_q(self, tmp_path):
        gen_planted(tmp_path)  # README's example, with no --q
        truth = json.loads((tmp_path / "data.csv.truth.json").read_text())
        assert truth["config"]["q"] == len(truth["support"]) == 4

    @pytest.mark.parametrize("q, accepted", [(3, True), (5, False), (0, False)])
    def test_q_must_agree_with_explicit_beta(self, tmp_path, capsys, q, accepted):
        out = tmp_path / "d.csv"
        argv = ["gen", "--family", "gaussian", "--n", 20, "--p", 5, "--beta", "1,2,3",
                "--q", q, "--output", out]
        assert run(argv) == (0 if accepted else 1)
        captured = capsys.readouterr()
        if accepted:
            truth = json.loads((tmp_path / "d.csv.truth.json").read_text())
            assert truth["config"]["q"] == len(truth["support"]) == 3
        else:
            assert captured.err == f"error: q={q} but explicit beta has 3 nonzeros\n"
            assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "family, beta, message",
        [
            ("gaussian", "3,,1", "--beta has an empty field: '3,,1'"),
            ("gaussian", "3,1,", "--beta has an empty field: '3,1,'"),
            ("binomial", "nan,1", "explicit beta must be finite, got nan"),
            ("cox", "inf,1", "explicit beta must be finite, got inf"),
        ],
        ids=["empty-field", "trailing-comma", "nan", "inf"],
    )
    def test_beta_must_be_finite_with_no_empty_field(
        self, tmp_path, capsys, family, beta, message
    ):
        # an empty field used to be dropped, shifting the later values left
        out = tmp_path / "d.csv"
        assert run(["gen", "--family", family, "--n", 20, "--p", 4, "--beta", beta,
                    "--seed", 1, "--output", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_censor_rate_outside_cox_fails(self, tmp_path, capsys, family):
        out = tmp_path / "d.csv"
        assert run(["gen", "--family", family, "--n", 30, "--p", 5,
                    "--censor-rate", "0.9", "--output", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cox" in err
        assert not out.exists()

    def test_huge_rho_keeps_sqrt_n_norms_without_a_warning(self, tmp_path, capsys):
        # every column's sum of squares overflows; this used to write an
        # all-zero design and one "warning: overflow" line
        out = tmp_path / "d.csv"
        assert run(["gen", "--family", "gaussian", "--n", 6, "--p", 3, "--q", 1,
                    "--rho", "1e200", "--seed", 0, "--output", out]) == 0
        assert capsys.readouterr().err == ""
        X = load_csv(out, "gaussian").X
        np.testing.assert_allclose(np.linalg.norm(X, axis=0), np.sqrt(6), rtol=1e-12)


class TestRejectedScenarios:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 3, "--b", -1,
             "--B", 1],
            ["gen", "--family", "gaussian", "--n", 20, "--p", 1, "--q", 1],
            ["gen", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 3,
             "--B", "inf"],
            ["bench", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 2,
             "--b", 2, "--B", 1],
            ["bench", "--family", "binomial", "--n", 50, "--p", 10, "--q", 2,
             "--holdout", 0],
            ["bench", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 0],
            ["bench", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 2,
             "--methods", ","],
            ["gen", "--family", "gaussian", "--n", 30, "--p", 5, "--q", 2,
             "--sigma", "nan"],
            ["gen", "--family", "gaussian", "--n", 30, "--p", 5, "--q", 2,
             "--rho", "nan"],
            ["gen", "--family", "binomial", "--n", 30, "--p", 5, "--q", 2,
             "--rho", "inf"],
            ["bench", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 2,
             "--sigma", "nan"],
            ["bench", "--family", "cox", "--n", 60, "--p", 8, "--q", 2,
             "--censor-rate", 0.7, "--holdout", 2],
            ["bench", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 2,
             "--epsilon", "nan"],
            ["bench", "--family", "gaussian", "--n", 50, "--p", 10, "--q", 2,
             "--methods", "spdas,gpdas", "--eta", 1.5],
        ],
        ids=["gen-negative-b", "gen-zero-b", "gen-infinite-B", "bench-b-above-B",
             "bench-holdout-0", "bench-gaussian-q-0", "bench-no-methods",
             "gen-sigma-nan", "gen-rho-nan", "gen-rho-inf", "bench-sigma-nan",
             "bench-cox-holdout-without-pairs", "bench-epsilon-nan",
             "bench-eta-above-one"],
    )
    def test_exit_1_with_one_error_line_and_no_output(self, tmp_path, capsys, argv):
        outputs = ["--output", tmp_path / "out.csv"]
        if argv[0] == "bench":
            outputs += ["--reps", 1, "--details", tmp_path / "details.json"]
        assert run([*argv, *outputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("methods", ["spdas,,gpdas", "spdas,gpdas,", ","])
    def test_methods_with_an_empty_field_refused(self, tmp_path, capsys, methods):
        # an empty field used to be dropped and the bench to run
        argv = ["bench", "--family", "gaussian", "--n", 60, "--p", 8, "--q", 2, "--reps", 1,
                "--methods", methods, "--output", tmp_path / "out.csv"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --methods has an empty field: {methods!r}\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--n", 1, "--p", 3, "--q", 1], "n must be in [2, inf], got 1"),
            (["gen", "--n", 20, "--p", 0, "--q", 0], "p must be in [1, inf], got 0"),
            (["bench", "--n", 60, "--p", 8, "--q", 2, "--reps", 0],
             "reps must be in [1, inf], got 0"),
            (["bench", "--n", 60, "--p", 8, "--q", 2, "--holdout", 1],
             "holdout must be in [2, inf], got 1"),
            (["bench", "--n", 60, "--p", 8, "--q", 2, "--jobs", 0],
             "jobs must be in [1, inf], got 0"),
        ],
        ids=["gen-n", "gen-p", "bench-reps", "bench-holdout", "bench-jobs"],
    )
    def test_sizes_refused_in_the_one_wording(self, tmp_path, capsys, argv, message):
        command, *rest = argv
        assert run([command, "--family", "gaussian", *rest,
                    "--output", tmp_path / "out.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_negative_seed_refused_before_any_draw(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # numpy's own check, inside the draw, names no field
        draws = []

        def counting_design(*args):
            draws.append(args)
            return gen_design(*args)

        monkeypatch.setattr(datagen, "gen_design", counting_design)
        monkeypatch.setattr(bench, "gen_design", counting_design)
        argv = [command, "--family", "gaussian", "--n", 20, "--p", 4, "--q", 1,
                "--seed", -1, "--output", tmp_path / "out.csv"]
        if command == "bench":
            argv += ["--reps", 1, "--details", tmp_path / "details.json"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be in [0, inf], got -1\n"
        assert captured.out == "" and draws == [] and list(tmp_path.iterdir()) == []

    def test_spdas_k_max_above_the_cap_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        # the gaussian cap is min(n, p) = 50; the check used to wait for
        # replication 0's designs, and under --jobs for a worker
        draws = []

        def counting_design(*args):
            draws.append(args)
            return gen_design(*args)

        monkeypatch.setattr(bench, "gen_design", counting_design)
        argv = ["bench", "--family", "gaussian", "--n", 50, "--p", 100, "--q", 3,
                "--reps", 2, "--holdout", 20, "--methods", "spdas", "--k-max", 80,
                "--output", tmp_path / "out.csv",
                "--details", tmp_path / "details.json"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k_max must be in [1, 50], got 80\n"
        assert draws == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, message",
        [
            (["bench", "--family", "gaussian", "--n", 60, "--p", 8, "--q", 2,
              "--reps", 2, "--methods", "spdas,gpdas", "--k-max", 2, "--no-timing"],
             "golden-section search needs k_max >= 3; got 2"),
            (["fit", "--family", "gaussian", "--method", "gsection"],
             "golden-section search needs k_max >= 3; the default for n=60, p=2 is 2"),
        ],
        ids=["bench-k-max-2", "fit-gsection-p-2"],
    )
    def test_gsection_k_max_below_three_fails_before_fitting(
        self, tmp_path, capsys, search_calls, command, message
    ):
        data = tmp_path / "p2.csv"  # fit's input: its default k_max is 2
        assert run(["gen", "--family", "gaussian", "--n", 60, "--p", 2, "--q", 1,
                    "--seed", 1, "--output", data]) == 0
        before = sorted(tmp_path.iterdir())
        extra = ["--input", data] if command[0] == "fit" else [
            "--details", tmp_path / "details.json"]
        assert run([*command, *extra, "--output", tmp_path / "report"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert search_calls == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "family, text, extra, message",
        [
            ("gaussian", "", [], "empty file: {path}"),
            ("gaussian", "x1,y\n1,2\n3,4\n", ["--response", "z"],
             "response column 'z' not found in header"),
            ("gaussian", "1\n2\n3\n", ["--no-header"], "too few columns for predictors plus response"),
            ("cox", "x1,time,status\n1,2,1\n2,3,0\n", ["--response", "time"],
             "family 'cox' needs 2 response column(s), got 1"),
            ("gaussian", "y\n1\n2\n3\n", [], "no predictor columns left after removing the response"),
            ("cox", "x1,time,status\n1,1,1\n2,1,0\n", ["--response", "time,time"],
             "column 'time' appears more than once in the response"),
        ],
        ids=["empty", "missing-response", "too-few-columns", "response-count", "no-predictors-left",
             "repeated-response"],
    )
    def test_refused_csv_prints_one_error_line(self, tmp_path, capsys, family, text, extra, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert run(["fit", "--family", family, "--input", path, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=path)}\n"

    def test_explicit_beta_longer_than_p(self, tmp_path, capsys):
        argv = ["gen", "--family", "gaussian", "--n", 10, "--p", 2, "--q", 1,
                "--beta", "1,2,3", "--output", tmp_path / "d.csv"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: explicit beta is longer than p\n")
        assert list(tmp_path.iterdir()) == []


def test_sparse_coefficients_match_the_loop():
    def loop(names, beta):
        """The former per-coordinate loop, kept as the reference."""
        return [
            {"index": j + 1, "name": names[j], "coefficient": float(value)}
            for j, value in enumerate(beta)
            if value != 0.0
        ]

    rng = np.random.default_rng(3)
    beta = rng.standard_normal(300)
    beta[rng.choice(300, size=200, replace=False)] = 0.0
    beta[[0, 7, 299]] = -0.0
    names = tuple(f"X{j + 1}" for j in range(300))
    for b in (beta, np.zeros(5), -np.zeros(5), np.array([1e-300, -2.0])):
        got = _sparse_coefficients(names, b)
        assert got == loop(names, b)
        assert json.dumps(got) == json.dumps(loop(names, b))
    assert [e["index"] for e in _sparse_coefficients(names, beta)] == [
        j + 1 for j in range(300) if beta[j] != 0.0
    ]


def test_each_search_default_has_one_value():
    # fit and bench leave an unset search option out of the parsed arguments,
    # so spdas and gpdas supply their own defaults, which BenchScenario restates
    names = ("k_max", "criterion", "epsilon", "eta")
    parser = build_parser()
    parsed = vars(parser.parse_args(["fit", "--family", "gaussian"]))
    assert not set(names) & set(parsed)
    scenario = {f.name: f.default for f in fields(BenchScenario)}
    signatures = [inspect.signature(search).parameters for search in (spdas, gpdas)]
    for name in names:
        searches = {params[name].default for params in signatures if name in params}
        assert searches == {scenario[name]}, name

    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def search_options(command):
        actions = commands.choices[command]._actions
        return {a.dest: (a.option_strings, a.type, a.choices) for a in actions if a.dest in names}

    assert search_options("fit") == search_options("bench")
    assert set(search_options("fit")) == set(names)


class TestFit:
    def test_fixed_k_recovers_planted_support(self, tmp_path):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        code = run(
            ["fit", "--input", data, "--family", "gaussian", "--method", "one",
             "-k", 4, "--output", report_path]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["k"] == 4
        assert report["active"] == ["X1", "X2", "X5", "X9"]
        assert report["active_indices"] == [1, 2, 5, 9]
        assert len(report["coefficients"]) == 4
        signs = {row["name"]: row["coefficient"] for row in report["coefficients"]}
        assert signs["X1"] > 0 and signs["X5"] < 0

    def test_json_report_round_trips(self, tmp_path):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        run(
            ["fit", "--input", data, "--family", "gaussian", "--method",
             "sequential", "--k-max", 6, "--output", report_path]
        )
        text = report_path.read_text()
        parsed = json.loads(text)
        assert json.loads(json.dumps(parsed)) == parsed

    def test_sequential_path_table(self, tmp_path):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        run(
            ["fit", "--input", data, "--family", "gaussian", "--method",
             "sequential", "--k-max", 6, "--output", report_path]
        )
        report = json.loads(report_path.read_text())
        ks = [row["k"] for row in report["path"]]
        assert ks == list(range(0, 7))
        assert set(report["best_by"]) == {"aic", "bic", "ebic"}
        assert report["stop"] == "k_max"
        for row in report["path"]:
            assert {"loss", "deviance", "aic", "bic", "ebic"} <= set(row)

    def test_sequential_stop_is_reported(self, tmp_path):
        # default k_max is p = 20, so the fit on all 20 columns bounds the sweep
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        argv = ["fit", "--input", data, "--family", "gaussian", "--method", "sequential",
                "--criterion", "bic", "--output", report_path]
        assert run(argv) == 0
        report = json.loads(report_path.read_text())
        assert report["stop"] == "certified"
        assert report["path"][-1]["k"] < 20
        assert report["k"] == report["best_by"]["bic"]
        assert run(argv + ["--epsilon", "0.5"]) == 0
        assert json.loads(report_path.read_text())["stop"] == "epsilon"

    def test_sequential_k_max_one(self, tmp_path):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "r.json"
        code = run(
            ["fit", "--input", data, "--family", "gaussian", "--method",
             "sequential", "--k-max", 1, "--output", report_path]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert [row["k"] for row in report["path"]] == [0, 1]

    def test_csv_path_format(self, tmp_path):
        data = gen_planted(tmp_path)
        out = tmp_path / "path.csv"
        run(
            ["fit", "--input", data, "--family", "gaussian", "--method",
             "sequential", "--k-max", 4, "--format", "csv", "--output", out]
        )
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:6] == ["k", "loss", "deviance", "aic", "bic", "ebic"]
        assert len(lines) == 6  # header + k=0..4

    def test_gsection_trace_lines(self, tmp_path, capsys):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        code = run(
            ["fit", "--input", data, "--family", "gaussian", "--method",
             "gsection", "--k-max", 15, "--output", report_path]
        )
        assert code == 0
        lines = capsys.readouterr().err.strip().splitlines()
        pattern = re.compile(r"^\d+-th iteration s\.left:\d+ s\.split:\d+ s\.right:\d+$")
        assert lines and all(pattern.match(line) for line in lines)
        report = json.loads(report_path.read_text())
        assert report["gsection_trace"] == lines

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_gsection_stdout_is_the_report(self, tmp_path, capsys, family):
        data = tmp_path / "d.csv"
        assert run(["gen", "--family", family, "--n", 80, "--p", 8, "--q", 2,
                    "--seed", 1, "--output", data]) == 0
        argv = ["fit", "--input", data, "--family", family, "--method", "gsection",
                "--k-max", 5]
        capsys.readouterr()
        assert run(argv) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["gsection_trace"] == captured.err.splitlines()
        assert report["gsection_trace"]
        assert run(argv + ["--format", "csv", "--output", tmp_path / "c.csv"]) == 0
        capsys.readouterr()
        assert run(argv + ["--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (tmp_path / "c.csv").read_bytes().decode()
        assert captured.out.startswith("index,name,coefficient\r\n0,(intercept),")
        assert captured.err.splitlines() == report["gsection_trace"]

    def test_gsection_failed_write_leaves_one_error_line(self, tmp_path, capsys):
        data = gen_planted(tmp_path)
        assert run(["fit", "--input", data, "--family", "gaussian", "--method",
                    "gsection", "--k-max", 5,
                    "--output", tmp_path / "missing" / "r.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_dense_flag_emits_all_coefficients(self, tmp_path):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        run(
            ["fit", "--input", data, "--family", "gaussian", "--method", "one",
             "-k", 4, "--dense", "--output", report_path]
        )
        report = json.loads(report_path.read_text())
        assert len(report["coefficients_dense"]) == 20

    @pytest.mark.parametrize(
        "method, extra",
        [("one", {"coefficients_dense"}), ("sequential", {"path", "best_by", "stop"}),
         ("gsection", {"gsection_trace"})],
    )
    def test_report_keys(self, tmp_path, method, extra):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        argv = ["fit", "--input", data, "--family", "gaussian", "--method", method,
                "--k-max", 6, "--output", report_path]
        if method == "one":
            argv += ["-k", 4, "--dense"]
        assert run(argv) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == REPORT_KEYS | extra
        for row in report["coefficients"]:
            assert set(row) == {"index", "name", "coefficient"}
        for entry in report.get("path", []):
            assert set(entry) == PATH_ENTRY_KEYS

    def test_eta_checked_only_for_gsection(self, tmp_path, capsys):
        data = gen_planted(tmp_path)
        argv = ["fit", "--input", data, "--family", "gaussian", "--eta", "1.5",
                "--k-max", 5, "--output", tmp_path / "report.json"]
        assert run(argv + ["--method", "one", "-k", 2]) == 0
        assert run(argv + ["--method", "sequential"]) == 0
        capsys.readouterr()
        assert run(argv + ["--method", "gsection"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "eta" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-0.5"])
    def test_non_finite_or_negative_epsilon_rejected(self, tmp_path, capsys, epsilon):
        data = gen_planted(tmp_path)
        report_path = tmp_path / "report.json"
        argv = ["fit", "--input", data, "--family", "gaussian", "--k-max", 5,
                f"--epsilon={epsilon}", "--output", report_path]
        assert run(argv + ["--method", "sequential"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: epsilon must be nonnegative and finite, got {float(epsilon)}\n"
        )
        assert not report_path.exists()
        # like --eta, --epsilon belongs to one method and the others ignore it
        assert run(argv + ["--method", "one", "-k", 2]) == 0

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "cox"])
    def test_path_json_and_csv_agree(self, tmp_path, family):
        data = tmp_path / "d.csv"
        assert run(["gen", "--family", family, "--n", 120, "--p", 8, "--q", 3,
                    "--censor-rate", 0.2 if family == "cox" else 0, "--seed", 5,
                    "--output", data]) == 0
        argv = ["fit", "--input", data, "--family", family, "--method",
                "sequential", "--k-max", 6, "--criterion", "ebic", "--dense"]
        assert run(argv + ["--output", tmp_path / "p.json"]) == 0
        assert run(argv + ["--format", "csv", "--output", tmp_path / "p.csv"]) == 0
        path = json.loads((tmp_path / "p.json").read_text())["path"]
        with open(tmp_path / "p.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        criteria = ["loss", "deviance", "aic", "bic", "ebic"]
        assert header[:6] == ["k", *criteria]
        names = header[6:]
        assert [int(row[0]) for row in rows] == [entry["k"] for entry in path]
        for entry, row in zip(path, rows):
            assert row[1:6] == [repr(entry[key]) for key in criteria]
            nonzero = [
                {"index": j + 1, "name": names[j], "coefficient": float(value)}
                for j, value in enumerate(row[6:])
                if float(value) != 0.0
            ]
            assert nonzero == entry["coefficients"]

    def test_seed_option_removed(self, tmp_path):
        data = gen_planted(tmp_path)
        with pytest.raises(SystemExit):
            run(["fit", "--input", data, "--family", "gaussian", "--method", "one",
                 "-k", 2, "--seed", 1])

    def test_method_one_requires_k(self, tmp_path, capsys):
        data = gen_planted(tmp_path)
        assert run(["fit", "--input", data, "--family", "gaussian",
                    "--method", "one"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_method_one_without_k_fails_before_reading_input(self, tmp_path, capsys):
        assert run(["fit", "--input", tmp_path / "nonexistent.csv", "--family",
                    "gaussian", "--method", "one"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: method 'one' requires -k\n"

    def test_bad_epsilon_fails_before_reading_input(self, tmp_path, capsys):
        assert run(["fit", "--input", tmp_path / "nonexistent.csv", "--family",
                    "gaussian", "--method", "sequential", "--epsilon", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: epsilon must be nonnegative and finite, got nan\n"

    def test_missing_input_fails(self, capsys):
        assert run(["fit", "--family", "gaussian", "--method", "one", "-k", 2]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" == err[-1]

    def test_binary_out_of_range_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1,0\n2,2\n")
        assert run(["fit", "--input", bad, "--family", "binomial",
                    "--method", "one", "-k", 1]) == 1
        assert "binary response out of range" in capsys.readouterr().err

    def test_named_response_without_header_reported(self, tmp_path, capsys):
        data = tmp_path / "plain.csv"
        data.write_text("1,2,3\n4,5,6\n7,8,10\n")
        assert run(["fit", "--input", data, "--family", "gaussian", "--no-header",
                    "--response", "z", "--method", "one", "-k", 1]) == 1
        assert "only be named with a header" in capsys.readouterr().err

    def test_warning_is_one_line_without_a_source_path(self, tmp_path):
        # a fresh process, so stderr holds exactly what a user sees
        data = tmp_path / "six.csv"
        assert run(["gen", "--family", "gaussian", "--n", 6, "--p", 8, "--q", 2,
                    "--seed", 1, "--output", data]) == 0
        src = os.path.dirname(os.path.dirname(bestsubset.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONWARNINGS", None)
        argv = ["fit", "--input", data, "--family", "gaussian", "--method", "one", "-k", 6]
        out = subprocess.run(
            [sys.executable, "-m", "bestsubset.cli", *map(str, argv)],
            capture_output=True, env=env, cwd=tmp_path,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["k"] == 6
        assert out.stderr == b"warning: singular least-squares system; adding ridge 6.000e-08\n"

    def test_ridge_full_fit_warns_once_in_a_sweep(self, tmp_path):
        # column 9 copies column 3, so the fit on all 10 columns takes the
        # ridge path: the sweep's bound fit keeps its warning and is not
        # reused, and the k = 10 step's own fit prints it
        rng = np.random.default_rng(17)
        X = rng.standard_normal((100, 10))
        X[:, 9] = X[:, 3]
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + rng.standard_normal(100)
        data = tmp_path / "copied.csv"
        save_csv(Dataset(X, Continuous(y)), data)
        src = os.path.dirname(os.path.dirname(bestsubset.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONWARNINGS", None)
        argv = ["fit", "--input", data, "--family", "gaussian", "--method", "sequential"]
        out = subprocess.run(
            [sys.executable, "-m", "bestsubset.cli", *map(str, argv)],
            capture_output=True, env=env, cwd=tmp_path,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["stop"] == "k_max"
        assert out.stderr == b"warning: singular least-squares system; adding ridge 1.000e-06\n"

    def test_warning_printer_runs_in_process(self, tmp_path, capsys):
        # the printer main() installs, in this process: columns 0 and 1 are
        # identical, so the size-2 fit meets a singular Gram
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        X[:, 1] = X[:, 0]
        y = 2.0 * X[:, 0] + rng.standard_normal(30)
        data = tmp_path / "twins.csv"
        save_csv(Dataset(X, Continuous(y)), data)
        argv = ["fit", "--input", data, "--family", "gaussian", "--method", "one", "-k", 2]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["k"] == 2
        assert re.fullmatch(
            r"warning: singular least-squares system; adding ridge \d\.\d{3}e-\d\d\n",
            captured.err,
        ), captured.err

    def test_module_entry_point_exits_with_the_status_of_main(
        self, tmp_path, capsys, monkeypatch
    ):
        data = gen_planted(tmp_path)
        argv = ["fit", "--input", data, "--family", "gaussian", "--method", "one", "-k", 4]
        monkeypatch.setattr(sys, "argv", ["bestsubset", *map(str, argv)])
        # the test module has imported bestsubset.cli already, which runpy notes
        with pytest.warns(RuntimeWarning, match="found in sys.modules"):
            with pytest.raises(SystemExit) as exit_info:
                runpy.run_module("bestsubset.cli", run_name="__main__")
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["active_indices"] == [1, 2, 5, 9]
        assert captured.err == ""

    def test_deterministic_given_seed(self, tmp_path):
        data = gen_planted(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (r1, r2):
            run(["fit", "--input", data, "--family", "gaussian", "--method",
                 "sequential", "--k-max", 6, "--output", out])
        assert r1.read_bytes() == r2.read_bytes()

    def test_binomial_end_to_end(self, tmp_path):
        data = tmp_path / "b.csv"
        assert run(["gen", "--family", "binomial", "--n", 150, "--p", 8, "--q", 2,
                    "--seed", 4, "--output", data]) == 0
        report_path = tmp_path / "b.json"
        assert run(["fit", "--input", data, "--family", "binomial", "--method",
                    "sequential", "--k-max", 5, "--criterion", "bic",
                    "--output", report_path]) == 0
        report = json.loads(report_path.read_text())
        truth = json.loads((tmp_path / "b.csv.truth.json").read_text())
        assert set(truth["support"]) <= set(report["active_indices"])

    def test_cox_end_to_end(self, tmp_path):
        data = tmp_path / "c.csv"
        assert run(["gen", "--family", "cox", "--n", 150, "--p", 8, "--q", 2,
                    "--censor-rate", "0.2", "--seed", 4, "--output", data]) == 0
        header = data.read_text().splitlines()[0]
        assert header.endswith("time,status")
        report_path = tmp_path / "c.json"
        assert run(["fit", "--input", data, "--family", "cox", "--method",
                    "sequential", "--k-max", 5, "--criterion", "bic",
                    "--output", report_path]) == 0
        report = json.loads(report_path.read_text())
        truth = json.loads((tmp_path / "c.csv.truth.json").read_text())
        assert set(truth["support"]) <= set(report["active_indices"])


class TestOracleCommand:
    def test_oracle_report(self, tmp_path):
        data = gen_planted(tmp_path)
        out = tmp_path / "oracle.json"
        code = run(
            ["oracle", "--input", data, "--family", "gaussian", "-k", 4,
             "--output", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["active"] == ["X1", "X2", "X5", "X9"]
        assert report["loss"] > 0

    def test_oracle_keys(self, tmp_path):
        data = gen_planted(tmp_path)
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--input", data, "--family", "gaussian", "-k", 4,
                    "--output", out]) == 0
        report = json.loads(out.read_text())
        assert set(report) == ORACLE_KEYS
        assert report["method"] == "oracle" and report["k"] == 4

    def test_csv_coefficient_table(self, tmp_path):
        data = gen_planted(tmp_path)
        js, table = tmp_path / "oracle.json", tmp_path / "oracle.csv"
        for fmt, out in (("json", js), ("csv", table)):
            assert run(["oracle", "--input", data, "--family", "gaussian", "-k", 4,
                        "--format", fmt, "--output", out]) == 0
        report = json.loads(js.read_text())
        lines = table.read_text().splitlines()
        assert lines[0] == "index,name,coefficient"
        assert lines[1] == f"0,(intercept),{report['intercept']!r}"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == [1, 2, 5, 9]
        assert [r[1] for r in rows] == report["active"]
        assert [float(r[2]) for r in rows] == [
            c["coefficient"] for c in report["coefficients"]
        ]

    @pytest.mark.parametrize("seed", [0, 2])
    def test_loss_equals_fixed_k_fit(self, tmp_path, seed):
        data = tmp_path / "data.csv"
        assert run(["gen", "--family", "gaussian", "--n", 200, "--p", 20, "--q", 4,
                    "--rho", "0.2", "--seed", seed, "--output", data]) == 0
        reports = []
        for command in (["oracle"], ["fit", "--method", "one"]):
            out = tmp_path / "report.json"
            assert run([*command, "--input", data, "--family", "gaussian", "-k", 4,
                        "--output", out]) == 0
            reports.append(json.loads(out.read_text()))
        oracle, fixed = reports
        assert oracle["active"] == fixed["active"]
        assert oracle["loss"] == fixed["loss"]

    def test_seed_option_removed(self, tmp_path):
        data = gen_planted(tmp_path)
        with pytest.raises(SystemExit):
            run(["oracle", "--input", data, "--family", "gaussian", "-k", 2,
                 "--seed", 1])

    def test_p_cap_respected(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        rng = np.random.default_rng(0)
        cols = [f"c{j}" for j in range(30)]
        rows = [",".join(cols + ["y"])]
        for i in range(12):
            vals = rng.standard_normal(31)
            rows.append(",".join(repr(float(v)) for v in vals))
        data.write_text("\n".join(rows) + "\n")
        assert run(["oracle", "--input", data, "--family", "gaussian",
                    "-k", 2]) == 1
        assert "p_cap" in capsys.readouterr().err

    def test_p_cap_is_a_size(self, tmp_path, capsys):
        # --p-cap 0 used to read as a refusal of p
        data, out = gen_planted(tmp_path), tmp_path / "oracle.json"
        assert run(["oracle", "--input", data, "--family", "gaussian", "-k", 2,
                    "--p-cap", 0, "--output", out]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: p_cap must be in [1, inf], got 0\n")
        assert not out.exists()


class TestBenchCommand:
    def test_summary_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            ["bench", "--family", "gaussian", "--n", 60, "--p", 8, "--q", 2,
             "--reps", 2, "--methods", "spdas,oracle", "--k-max", 4,
             "--holdout", 40, "--seed", 7, "--b", "1.0", "--B", "2.0",
             "--output", out]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["method", "reps", "time_mean", "time_sd"]
        assert len(lines) == 3
        assert lines[1].startswith("spdas,2,")

    @pytest.mark.parametrize("no_timing", [False, True])
    def test_summary_header(self, tmp_path, no_timing):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--family", "gaussian", "--n", 60, "--p", 8, "--q", 2,
                "--reps", 1, "--k-max", 3, "--holdout", 40, "--output", out]
        assert run(argv + (["--no-timing"] if no_timing else [])) == 0
        header = out.read_text().splitlines()[0].split(",")
        expected = [c for c in SUMMARY_COLUMNS if not (no_timing and "time" in c)]
        assert header == expected

    def test_unset_options_take_scenario_defaults(self, monkeypatch):
        seen = []

        def fake_run_bench(scenario, jobs):
            seen.append((scenario, jobs))
            return (), ()

        monkeypatch.setattr(bench, "run_bench", fake_run_bench)
        assert run(["bench", "--family", "binomial", "--n", 50, "--p", 6,
                    "--q", 2]) == 0
        assert seen == [(BenchScenario(family="binomial", n=50, p=6, q=2, reps=10), 1)]

        seen.clear()
        assert run(["bench", "--family", "cox", "--n", 50, "--p", 6, "--q", 2,
                    "--reps", 3, "--methods", "spdas, gpdas", "--criterion", "bic",
                    "--k-max", 4, "--eta", "0.05", "--epsilon", "0.001",
                    "--rho", "0.3", "--sigma", "2", "--censor-rate", "0.2",
                    "--holdout", 30, "--seed", 9, "--b", "0.5", "--B", "1.5",
                    "--jobs", 2]) == 0
        assert seen == [(BenchScenario(
            family="cox", n=50, p=6, q=2, reps=3, methods=("spdas", "gpdas"),
            criterion="bic", k_max=4, eta=0.05, epsilon=0.001, rho=0.3, sigma=2.0,
            censor_rate=0.2, holdout=30, seed=9, b=0.5, B=1.5,
        ), 2)]

    def test_single_rep_sd_zero(self, tmp_path):
        out = tmp_path / "bench.csv"
        run(
            ["bench", "--family", "gaussian", "--n", 60, "--p", 8, "--q", 2,
             "--reps", 1, "--methods", "spdas", "--k-max", 4, "--holdout", 40,
             "--seed", 7, "--b", "1.0", "--B", "2.0", "--no-timing",
             "--output", out]
        )
        row = out.read_text().splitlines()[1].split(",")
        header = out.read_text().splitlines()[0].split(",")
        sd_cols = [i for i, h in enumerate(header) if h.endswith("_sd")]
        assert all(float(row[i]) == 0.0 for i in sd_cols)

    def test_no_timing_serial_parallel_byte_identical(self, tmp_path):
        outs = []
        for tag, jobs in (("s", 1), ("p", 2)):
            out = tmp_path / f"bench_{tag}.csv"
            details = tmp_path / f"details_{tag}.json"
            code = run(
                ["bench", "--family", "gaussian", "--n", 60, "--p", 8, "--q", 2,
                 "--reps", 3, "--methods", "spdas,gpdas", "--k-max", 5,
                 "--holdout", 40, "--seed", 11, "--b", "1.0", "--B", "2.0",
                 "--jobs", jobs, "--no-timing", "--output", out,
                 "--details", details]
            )
            assert code == 0
            outs.append((out.read_bytes(), details.read_bytes()))
        assert outs[0] == outs[1]

    def test_infeasible_scenario_fails(self, tmp_path, capsys):
        assert run(
            ["bench", "--family", "gaussian", "--n", 60, "--p", 100, "--q", 2,
             "--reps", 1, "--methods", "oracle"]
        ) == 1
        assert "infeasible" in capsys.readouterr().err

    def test_k_max_beyond_cap_fails(self, tmp_path, capsys):
        assert run(
            ["bench", "--family", "gaussian", "--n", 20, "--p", 10, "--q", 2,
             "--reps", 1, "--methods", "spdas", "--k-max", 50]
        ) == 1
        assert "k_max" in capsys.readouterr().err

    def test_bad_eta_fails(self, tmp_path, capsys):
        data = gen_planted(tmp_path)
        assert run(["fit", "--input", data, "--family", "gaussian",
                    "--method", "gsection", "--eta", "1.5"]) == 1
        assert "eta" in capsys.readouterr().err

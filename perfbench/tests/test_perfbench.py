"""The benchmark's own tests, on the smoke size of every workload.

Run from the root of the repository:

    python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import WORKLOADS, checks, harness, hostspeed, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == harness.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_layer_self_times_add_up_to_op_time(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed0-trace1.json").read_text())
    spans = json.loads((ROOT / record["spans_file"]).read_text())["spans"]
    from perfbench.tracing import ROOT_SPAN, self_times

    selfs = self_times(spans)
    op_time = sum(end - start for name, start, end, *_ in spans if name == ROOT_SPAN)
    layer_self = sum(s for s, span in zip(selfs, spans) if span[0] != ROOT_SPAN)
    assert op_time > 0
    # every op is covered by layer spans, apart from the benchmark's own glue
    assert layer_self <= op_time * (1 + 1e-9)
    assert layer_self >= 0.95 * op_time
    for name in ("families.fit_active_s", "pdas.pdas_s", "tuning.spdas_s", "import.bestsubset_s"):
        assert result["metrics"][name]["value"] > 0, name


def test_check_flags_a_corrupted_report():
    wl = workloads.GaussWide(0, True, None)
    wl.setup()
    d, path, seq, gold, trace = wl.op(0, True)
    family = wl.family
    assert workloads.report_problems(family, d, seq, path, "ebic") == []
    bad_loss = dataclasses.replace(seq, loss=seq.loss * (1 + 1e-6))
    assert workloads.report_problems(family, d, bad_loss)
    bad_size = dataclasses.replace(seq, k=seq.k + 1)
    assert workloads.report_problems(family, d, bad_size)
    off = next(j for j in range(d.dataset.p) if j not in seq.active_set)
    beta = seq.beta.copy()
    beta[off] = 1.0
    assert workloads.report_problems(family, d, dataclasses.replace(seq, beta=beta))
    rows = [(e.k, e.loss) for e in path.entries]
    other_k = next(k for k, _ in rows if k != seq.k)
    assert checks.criterion_problems("gaussian", d.dataset.n, d.dataset.p, rows, "ebic", other_k)


def test_measure_counts_corrupted_ops():
    wl = workloads.GaussWide(0, True, None)
    wl.setup()
    op = wl.op

    def corrupted(item, in_process):
        d, path, seq, gold, trace = op(item, in_process)
        return d, path, seq, dataclasses.replace(gold, loss=gold.loss * 1.001), trace

    wl.op = corrupted
    run = harness.measure(wl, 0.0, False)
    assert len(run.failures) == run.attempted == len(wl.items())
    metrics = harness.end_to_end(run, wl, 1.0, 1.0)
    assert metrics["ok_frac"] == 0.0 and metrics["fail_frac"] == 1.0


def test_cli_check_flags_an_edited_report(tmp_path):
    wl = workloads.CliSmall(0, True, str(tmp_path))
    wl.setup()
    wl.prepare()
    item = next(i for i in wl.items() if i.label == "fit-one")
    output = wl.op(item, True)
    assert wl.check(item, output).problems == []
    report = Path(item.argv[item.argv.index("--output") + 1])
    payload = json.loads(report.read_text())
    payload["loss"] *= 1 + 1e-6
    report.write_text(json.dumps(payload))
    assert wl.check(item, output).problems
    assert wl.check(item, (1, "", None)).problems


def test_untraced_latencies_are_wall_times_over_the_sampled_slowdown():
    wl = workloads.GaussWide(0, True, None)
    wl.setup()
    run = harness.measure(wl, 0.0, False)
    assert len(run.latencies) == len(run.wall_latencies) == len(run.slowdowns) >= 1
    for adjusted, wall, slowdown in zip(run.latencies, run.wall_latencies, run.slowdowns):
        assert slowdown > 0 and adjusted == pytest.approx(wall / slowdown)


def test_sampler_times_the_kernel_during_a_block():
    sampler = hostspeed.Sampler()
    with sampler.timing():
        end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    with sampler.timing():
        pass  # too short to be interrupted: sampled at the end instead
    assert len(sampler.samples) == hostspeed.SAMPLES_AFTER
    assert sampler.slowdown() > 0


def test_tail_is_never_below_the_median():
    assert harness.tail(list(range(1, 31))) == (20, 100 * 20 / 30, 10)
    value, _, beyond = harness.tail([3.0, 1.0, 2.0])
    assert value == 2.0 and beyond == 1


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

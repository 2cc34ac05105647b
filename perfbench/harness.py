"""Closed-loop measurement of one workload and the metrics it yields.

One client runs one op at a time: the next op starts only after the
previous one has finished and been checked.  Untraced runs give the
end-to-end metrics.  A traced run gives the per-layer metrics and the
tracing overhead, from each input run untraced and then traced.
"""

import contextlib
import resource
import statistics
import time
import warnings

from perfbench import hostspeed, tracing
from perfbench.workloads import Outcome, digest

# name -> (unit, better): the gated metrics an untraced run prints last.
# Times are adjusted to the reference host speed (see hostspeed).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_min": ("1/min", "higher"),
    "op_s_p50": ("s", "lower"),
    "op_s_tail": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# Also printed and recorded on untraced runs, but not gated: fail_frac is
# 0 at a correct commit (ok_frac gates it), the recovery metrics are
# fixed by the seed's data, so their spread over seeds is the data's, and
# the wall-clock times follow the shared host's speed (see hostspeed).
END_TO_END_RECORDED = {
    "fail_frac": "ratio",
    "tp_mean": "count",
    "fp_mean": "count",
    "precision_mean": "ratio",
    "op_s_tail.percentile": "%",
    "op_s_tail.samples_beyond": "count",
    "ops": "count",
    "selections": "count",
    "wall.setup_s": "s",
    "wall.ops_per_min": "1/min",
    "wall.op_s_p50": "s",
    "wall.op_s_tail": "s",
    "host.slowdown_p50": "ratio",
}

# name -> (unit, better): the per-layer metrics a traced run prints last.
# Times and counts are per op.  Only layer times that every workload
# exercises are here, so no time reads a constant 0; the times of layers
# that one workload alone uses are in RECORDED_ONLY.
PER_LAYER = {
    "import.bestsubset_s": ("s", "lower"),
    "data.standardize_s": ("s/op", "lower"),
    "data.standardize.calls": ("count/op", "lower"),
    "data.load_csv.calls": ("count/op", "lower"),
    "data.save_csv.calls": ("count/op", "lower"),
    "datagen.gen_dataset.calls": ("count/op", "lower"),
    "cli.main.calls": ("count/op", "lower"),
    "families.fit_active_s": ("s/op", "lower"),
    "families.fit_active.calls": ("count/op", "lower"),
    "families.fit_active.iters": ("count/op", "lower"),
    "families.fit_active.nonconverged": ("count/op", "lower"),
    "families.fit_active.iters_per_call": ("iters/call", "lower"),
    "families.dual_sacrifice_s": ("s/op", "lower"),
    "families.dual_sacrifice.calls": ("count/op", "lower"),
    "families.loss_s": ("s/op", "lower"),
    "families.loss.calls": ("count/op", "lower"),
    "families.loss.calls_per_sweep": ("calls/sweep", "lower"),
    "families.log_likelihood.calls": ("count/op", "lower"),
    "families.ridge_fallbacks": ("count/op", "lower"),
    "families.self_s": ("s/op", "lower"),
    "pdas.pdas_s": ("s/op", "lower"),
    "pdas.pdas.calls": ("count/op", "lower"),
    "pdas.sweeps": ("count/op", "lower"),
    "pdas.sweeps_per_call": ("sweeps/call", "lower"),
    "pdas.nonconverged": ("count/op", "lower"),
    "pdas.self_s": ("s/op", "lower"),
    "tuning.spdas_s": ("s/op", "lower"),
    "tuning.gpdas_s": ("s/op", "lower"),
    "tuning.self_s": ("s/op", "lower"),
    "tuning.gpdas.pdas_calls": ("count/op", "lower"),
    "tuning.gpdas.reason.elbow": ("count/op", "higher"),
    "tuning.gpdas.reason.interval-collapse": ("count/op", "lower"),
    "tuning.gpdas.reason.max-iter": ("count/op", "lower"),
    "bench.run_replication.calls": ("count/op", "lower"),
    "metrics.concordance_index.calls": ("count/op", "lower"),
    "oracle.exhaustive_best_subset.calls": ("count/op", "lower"),
    "oracle.fits": ("count/op", "lower"),
    "trace.unattributed_s": ("s/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Workload-specific layer times: zero on the workloads that skip the layer.
RECORDED_ONLY = {
    "cli.main_s": "s/op",
    "cli.main.self_s": "s/op",
    "data.load_csv_s": "s/op",
    "data.save_csv_s": "s/op",
    "datagen_s": "s/op",
    "datagen.gen_dataset_s": "s/op",
    "bench.run_replication_s": "s/op",
    "bench.run_replication.self_s": "s/op",
    "metrics.concordance_index_s": "s/op",
    "oracle.exhaustive_best_subset_s": "s/op",
    "oracle.fits_per_s": "1/s",
}

TAIL_BEYOND = 10


class Run:
    """Everything one measurement collected."""

    def __init__(self):
        self.latencies = []  # adjusted to the reference host speed when untraced
        self.wall_latencies = []  # wall-clock twins of the adjusted latencies
        self.slowdowns = []  # host slowdown sampled during each untraced op
        self.baseline_latencies = []  # untraced twins of the traced ops
        self.failures = []
        self.selections = []  # (selected, truth) pairs of each input's first run
        self.fingerprints = {}
        self.ridge_fallbacks = 0
        self.tracer = None

    @property
    def attempted(self):
        return len(self.latencies) + len(self.baseline_latencies)


def _run_op(workload, item, in_process, run, tracer, latencies, sampler=None):
    label = workload.label(item)
    output = error = None
    with sampler.timing() if sampler else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.op(item, in_process)
            else:
                with warnings.catch_warnings(record=True) as caught, tracer.op():
                    warnings.simplefilter("always", RuntimeWarning)
                    output = workload.op(item, in_process)
                run.ridge_fallbacks += sum("singular" in str(w.message) for w in caught)
        except Exception as exc:  # a failed op is counted and the loop goes on
            error = f"op raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    if sampler is None:
        latencies.append(wall)
    else:
        slowdown = (output is not None and workload.child_slowdown(output)) or sampler.slowdown()
        run.wall_latencies.append(wall)
        run.slowdowns.append(slowdown)
        latencies.append(wall / slowdown)
    if error is None:
        try:
            outcome = workload.check(item, output)
        except Exception as exc:
            outcome = Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
    else:
        outcome = Outcome(problems=[error])
    if label not in run.fingerprints:
        run.fingerprints[label] = outcome.fingerprint
        run.selections += outcome.selections
    elif outcome.fingerprint != run.fingerprints[label] and not outcome.problems:
        outcome.problems.append("same input, different result than its first run")
    if outcome.problems:
        run.failures.append({"op": label, "problems": outcome.problems})


def measure(workload, seconds: float, traced: bool) -> Run:
    """Closed loop over the workload's inputs, in order and wrapping round.

    The loop runs whole cycles over the inputs: the first always, so the
    recovery metrics and the fingerprint cover the same inputs whatever
    the speed, and each further one only if its predicted end (the median
    wall op time so far, per input) falls within ``seconds``.  Whole
    cycles keep the mix of inputs behind the medians the same however
    fast the host is.  Untraced ops are timed with the host speed sampler
    running, and their latencies adjusted to the reference speed.  A
    traced run runs each input twice, untraced and then traced, both
    in-process and in wall-clock time.
    """
    run = Run()
    items = workload.items()
    start = time.perf_counter()
    if traced:
        run.tracer = tracing.Tracer()
    i = 0
    while True:
        item = items[i % len(items)]
        i += 1
        if traced:
            _run_op(workload, item, True, run, None, run.baseline_latencies)
            with run.tracer.installed():
                _run_op(workload, item, True, run, run.tracer, run.latencies)
            predicted = statistics.median(run.baseline_latencies) + statistics.median(run.latencies)
        else:
            _run_op(workload, item, False, run, None, run.latencies, hostspeed.Sampler())
            predicted = statistics.median(run.wall_latencies)
        if i % len(items) == 0 and time.perf_counter() - start + len(items) * predicted > seconds:
            return run


def tail(latencies):
    """The highest percentile with ten samples beyond it, never below the median.

    Returns ``(value, percentile, samples_beyond)``.  With fewer than 21
    samples no percentile above the median has ten beyond it, so the upper
    median is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def peak_rss_mib(source: str) -> float:
    who = resource.RUSAGE_CHILDREN if source == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(run: Run, workload, setup_s: float, wall_setup_s: float) -> dict:
    """The gated times are adjusted to the reference host speed; their
    wall-clock twins are recorded under ``wall.``."""
    lat = run.latencies
    value, percentile, beyond = tail(lat)
    tps = [len(sel & truth) for sel, truth in run.selections]
    fps = [len(sel - truth) for sel, truth in run.selections]
    precisions = [len(sel & truth) / len(sel) if sel else 1.0 for sel, truth in run.selections]
    failed = len(run.failures)
    return {
        "setup_s": setup_s,
        "ops_per_min": 60.0 * len(lat) / sum(lat),
        "op_s_p50": statistics.median(lat),
        "op_s_tail": value,
        "op_s_tail.percentile": percentile,
        "op_s_tail.samples_beyond": beyond,
        "ops": len(lat),
        "peak_rss_mib": peak_rss_mib(workload.rss_source),
        "ok_frac": 1.0 - failed / run.attempted,
        "fail_frac": failed / run.attempted,
        "tp_mean": _mean(tps),
        "fp_mean": _mean(fps),
        "precision_mean": _mean(precisions),
        "selections": len(run.selections),
        "wall.setup_s": wall_setup_s,
        "wall.ops_per_min": 60.0 * len(lat) / sum(run.wall_latencies),
        "wall.op_s_p50": statistics.median(run.wall_latencies),
        "wall.op_s_tail": tail(run.wall_latencies)[0],
        "host.slowdown_p50": statistics.median(run.slowdowns),
    }


def per_layer(run: Run, import_s: float) -> dict:
    metrics = tracing.layer_metrics(run.tracer.spans, len(run.latencies))
    metrics["import.bestsubset_s"] = import_s
    metrics["families.ridge_fallbacks"] = run.ridge_fallbacks / len(run.latencies)
    metrics["trace.overhead_ratio"] = statistics.mean(run.latencies) / statistics.mean(
        run.baseline_latencies
    )
    return metrics


def fingerprint_record(run: Run) -> dict:
    return {"ops": run.fingerprints, "digest": digest(run.fingerprints)}

"""Spans recorded at the public functions of bestsubset's modules.

The tracer replaces the module-level names each caller binds (for example
``bestsubset.pdas.fit_active`` and ``bestsubset.tuning.pdas``) with a
wrapper that records a span: name, start, end, parent span and the op it
belongs to.  Spans stay in memory and are turned into per-layer metrics
after the run.  Nothing in the package is edited; uninstalling restores
every name.
"""

import importlib
import time
from contextlib import contextmanager

MODULES = ("cli", "data", "datagen", "families", "pdas", "tuning", "bench", "metrics", "oracle")

# Span name -> function summarising the return value into counts.
LAYER_FUNCTIONS = {
    "cli.main": None,
    "data.load_csv": None,
    "data.save_csv": None,
    "data.standardize": None,
    "datagen.gen_dataset": None,
    "datagen.gen_design": None,
    "datagen.gen_beta": None,
    "datagen.gen_response": None,
    "families.fit_active": lambda m: (m.solver_iterations, m.solver_converged),
    "families.dual_sacrifice": None,
    "families.loss": None,
    "families.log_likelihood": None,
    "pdas.pdas": lambda out: (out.iterations, out.converged),
    "pdas.null_fit": None,
    "tuning.spdas": None,
    "tuning.gpdas": lambda result: (result[1].pdas_calls, result[1].reason),
    "bench.run_replication": None,
    "metrics.concordance_index": None,
    "oracle.exhaustive_best_subset": None,
}

ROOT_SPAN = "op"
GPDAS_REASONS = ("elbow", "interval-collapse", "max-iter")


def _module(name):
    # importlib, not attribute access: ``bestsubset.pdas`` is the function.
    return importlib.import_module(f"bestsubset.{name}")


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent, op, info]``; ``parent`` is the
    index of the enclosing span (-1 for an op's root) and ``op`` the index
    of the op the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self.ops = 0
        self._stack = []

    def wrap(self, name, fn, summarise=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:  # outside any op: the benchmark's own calls
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1], self.ops - 1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if summarise is not None:
                record[5] = summarise(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Bind traced wrappers in every module that names a layer function."""
        targets = {}
        for qualified, summarise in LAYER_FUNCTIONS.items():
            module_name, fn_name = qualified.split(".")
            original = getattr(_module(module_name), fn_name)
            targets[id(original)] = (original, self.wrap(qualified, original, summarise))
        namespaces = [_module(m) for m in MODULES] + [importlib.import_module("bestsubset")]
        replaced = []
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    replaced.append((namespace, attr, value))
        try:
            yield
        finally:
            for namespace, attr, value in replaced:
                setattr(namespace, attr, value)

    @contextmanager
    def op(self):
        """Root span of one op; every span opened inside it shares its id."""
        root = [ROOT_SPAN, 0.0, 0.0, -1, self.ops, None]
        self.ops += 1
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root[1] = time.perf_counter()
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def _has_ancestor(spans, index, prefixes):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefixes):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, n_ops):
    """Per-op layer times and counts from the recorded spans.

    Times are seconds per op, counts are per op.  A module's self time is
    the time its spans do not hand to a child span; the root ``op`` span's
    self time is the benchmark's own share of an op (``trace.unattributed_s``).
    """
    selfs = self_times(spans)
    total = {name: 0.0 for name in LAYER_FUNCTIONS}
    calls = {name: 0 for name in LAYER_FUNCTIONS}
    module_self = {m: 0.0 for m in MODULES}
    module_total = {m: 0.0 for m in MODULES}
    unattributed = 0.0
    fit_iters = fit_nonconverged = sweeps = pdas_nonconverged = 0
    gpdas_calls = 0
    reasons = {r: 0 for r in GPDAS_REASONS}
    solver_losses = oracle_fits = 0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        if name == ROOT_SPAN:
            unattributed += selfs[i]
            continue
        module = name.split(".")[0]
        total[name] += end - start
        calls[name] += 1
        module_self[module] += selfs[i]
        if not spans[parent][0].startswith(module + "."):
            module_total[module] += end - start
        if name == "families.fit_active":
            fit_iters += info[0]
            fit_nonconverged += not info[1]
            if _has_ancestor(spans, i, ("oracle.",)):
                oracle_fits += 1
        elif name == "pdas.pdas":
            sweeps += info[0]
            pdas_nonconverged += not info[1]
        elif name == "tuning.gpdas":
            gpdas_calls += info[0]
            reasons[info[1]] += 1
        elif name == "families.loss" and _has_ancestor(spans, i, ("pdas.", "tuning.")):
            solver_losses += 1

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(value):
        return value / n_ops

    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}_s"] = per_op(total[name])
        out[f"{name}.calls"] = per_op(calls[name])
    for module in MODULES:
        out[f"{module}.self_s"] = per_op(module_self[module])
    out["cli.main.self_s"] = out["cli.self_s"]
    out["bench.run_replication.self_s"] = out["bench.self_s"]
    out["datagen_s"] = per_op(module_total["datagen"])
    out["families.fit_active.iters"] = per_op(fit_iters)
    out["families.fit_active.nonconverged"] = per_op(fit_nonconverged)
    out["families.fit_active.iters_per_call"] = ratio(fit_iters, calls["families.fit_active"])
    out["families.loss.calls_per_sweep"] = ratio(
        solver_losses, sweeps + calls["pdas.null_fit"]
    )
    out["pdas.sweeps"] = per_op(sweeps)
    out["pdas.sweeps_per_call"] = ratio(sweeps, calls["pdas.pdas"])
    out["pdas.nonconverged"] = per_op(pdas_nonconverged)
    out["tuning.gpdas.pdas_calls"] = per_op(gpdas_calls)
    for reason, count in reasons.items():
        out[f"tuning.gpdas.reason.{reason}"] = per_op(count)
    out["oracle.fits"] = per_op(oracle_fits)
    out["oracle.fits_per_s"] = ratio(oracle_fits, total["oracle.exhaustive_best_subset"])
    out["trace.unattributed_s"] = per_op(unattributed)
    return out

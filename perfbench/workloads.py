"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Each workload has a fixed list of op inputs made from the seed during
set-up; a run takes them in order and wraps round.  The program receives
only the generated inputs (CSV files, datasets, replication indices); the
planted truth stays with the benchmark for the recovery metrics.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks, hostspeed

# Package modules, looked up at call time so that traced wrappers apply.
bench = importlib.import_module("bestsubset.bench")
cli = importlib.import_module("bestsubset.cli")
data = importlib.import_module("bestsubset.data")
datagen = importlib.import_module("bestsubset.datagen")
families = importlib.import_module("bestsubset.families")
pdas_mod = importlib.import_module("bestsubset.pdas")
tuning = importlib.import_module("bestsubset.tuning")

OP_TIMEOUT_S = 150
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# ``python -m bestsubset.cli`` with the host speed sampled inside the child.
SAMPLED_CLI = (
    "import runpy\n"
    "import numpy\n"
    "from perfbench import hostspeed\n"
    "hostspeed.run_sampled(lambda: runpy.run_module("
    "'bestsubset.cli', run_name='__main__', alter_sys=True))\n"
)


def child_env():
    """Environment for a child interpreter that imports the checkout's src
    (and the benchmark's ``perfbench.hostspeed``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Outcome:
    """What the check of one op found."""

    problems: list = field(default_factory=list)
    selections: list = field(default_factory=list)  # (selected, truth) index sets
    fingerprint: dict = field(default_factory=dict)


def fingerprint_of(k, active, loss_value):
    return {"k": int(k), "active": [int(j) for j in active], "loss": f"{loss_value:.9e}"}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base: ``setup`` makes the inputs (may run several times, the last is
    kept), ``prepare`` does untimed reference work for the checks,
    ``items`` lists the op inputs, ``op`` runs one, ``check`` judges it."""

    name = ""
    rss_source = "self"  # "children" when the ops run in child processes

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        pass

    def prepare(self):
        pass

    def items(self):
        raise NotImplementedError

    def op(self, item, in_process: bool):
        raise NotImplementedError

    def check(self, item, output) -> Outcome:
        raise NotImplementedError

    def label(self, item) -> str:
        return str(item)

    def child_slowdown(self, output):
        """Host slowdown sampled in the op's child process, if it had one."""
        return None


# --------------------------------------------------------------------------
# cli_small: one fresh ``python -m bestsubset.cli`` per op


@dataclass(frozen=True)
class CliOp:
    label: str
    csv: str  # key of the input CSV (for gen: the CSV it must reproduce)
    argv: tuple
    k: int | None = None  # the k asked for, if any


class CliSmall(Workload):
    name = "cli_small"
    rss_source = "children"

    # key -> (family, n, p, q, rho, censor_rate)
    FULL = {
        "gauss": ("gaussian", 500, 100, 10, 0.2, 0.0),
        "binom": ("binomial", 500, 100, 5, 0.5, 0.0),
        "orac": ("gaussian", 200, 20, 4, 0.2, 0.0),
        "cox": ("cox", 300, 30, 5, 0.5, 0.2),
    }
    FULL_K = {"gauss": 10, "gsection_k_max": 30, "binom": 5, "orac": 4, "cox": 5}
    SMOKE = {
        "gauss": ("gaussian", 60, 12, 3, 0.2, 0.0),
        "binom": ("binomial", 80, 10, 2, 0.5, 0.0),
        "orac": ("gaussian", 40, 8, 2, 0.2, 0.0),
        "cox": ("cox", 60, 8, 2, 0.5, 0.2),
    }
    SMOKE_K = {"gauss": 3, "gsection_k_max": 6, "binom": 2, "orac": 2, "cox": 2}

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.specs = self.SMOKE if smoke else self.FULL
        self.ks = self.SMOKE_K if smoke else self.FULL_K
        self.configs = {
            key: datagen.GenConfig(
                n=n, p=p, q=q, family=fam, rho=rho, censor_rate=cr, seed=seed * 100 + j
            )
            for j, (key, (fam, n, p, q, rho, cr)) in enumerate(self.specs.items())
        }
        self.env = child_env()
        self.truth = {}
        self.refs = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        for key, config in self.configs.items():
            dataset, _, support = datagen.gen_dataset(config)
            data.save_csv(dataset, self.path(f"{key}.csv"))
            self.truth[key] = frozenset(support)

    def prepare(self):
        for key, config in self.configs.items():
            family = families.ModelFamily(config.family)
            d = data.standardize(data.load_csv(self.path(f"{key}.csv"), config.family))
            self.refs[key] = (family, d)
        family, d = self.refs["orac"]
        self.oracle_reference_loss = pdas_mod.pdas(family, d, self.ks["orac"]).loss

    def items(self):
        g = self.configs["gauss"]

        def fit(key, *rest):
            return ("fit", "--family", self.configs[key].family,
                    "--input", self.path(f"{key}.csv"), *rest)

        ks = self.ks
        return [
            CliOp("gen", "gauss", (
                "gen", "--family", "gaussian", "--n", str(g.n), "--p", str(g.p),
                "--q", str(g.q), "--rho", str(g.rho), "--seed", str(g.seed),
                "--output", self.path("gen.csv"),
            )),
            CliOp("fit-one", "gauss", fit("gauss", "--method", "one", "-k", str(ks["gauss"]),
                                          "--output", self.path("fit-one.json")), ks["gauss"]),
            CliOp("fit-sequential", "gauss", fit("gauss", "--method", "sequential",
                                                 "--output", self.path("fit-sequential.json"))),
            CliOp("fit-gsection", "gauss", fit("gauss", "--method", "gsection", "--k-max",
                                               str(ks["gsection_k_max"]),
                                               "--output", self.path("fit-gsection.json"))),
            CliOp("fit-binomial", "binom", fit("binom", "--method", "one", "-k", str(ks["binom"]),
                                               "--output", self.path("fit-binomial.json")), ks["binom"]),
            CliOp("oracle", "orac", (
                "oracle", "--family", "gaussian", "--input", self.path("orac.csv"),
                "-k", str(ks["orac"]), "--output", self.path("oracle.json"),
            ), ks["orac"]),
            CliOp("fit-cox", "cox", fit("cox", "--method", "one", "-k", str(ks["cox"]),
                                        "--output", self.path("fit-cox.json")), ks["cox"]),
        ]

    def label(self, item):
        return item.label

    def op(self, item, in_process):
        """Returns ``(exit status, stdout, child's host slowdown or None)``."""
        if in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(item.argv))
            return code, buf.getvalue(), None
        proc = subprocess.run(
            [sys.executable, "-c", SAMPLED_CLI, *item.argv],
            env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
            cwd=self.workdir,
        )
        return proc.returncode, proc.stdout, hostspeed.reported_slowdown(proc.stderr)

    def child_slowdown(self, output):
        return output[2]

    def check(self, item, output):
        code, stdout, _ = output
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit status {code}")
            return out
        if item.label == "gen":
            return self._check_gen(item, out)
        try:
            with open(item.argv[item.argv.index("--output") + 1]) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            out.problems.append(f"report is not readable JSON: {exc}")
            return out
        family, d = self.refs[item.csv]
        active = [j - 1 for j in payload["active_indices"]]
        nonzero = [row["index"] - 1 for row in payload["coefficients"]]
        out.problems += checks.selection_problems(
            family, d, payload["k"], active, payload["loss"], nonzero, item.k
        )
        if payload.get("method") == "sequential":
            path = [(row["k"], row["loss"]) for row in payload["path"]]
            out.problems += checks.criterion_problems(
                family.tag, d.dataset.n, d.dataset.p, path, payload["criterion"], payload["k"]
            )
        if item.label == "oracle":
            ref = self.oracle_reference_loss
            if payload["loss"] > ref + 1e-12 * abs(ref):
                out.problems.append(
                    f"oracle loss {payload['loss']!r} exceeds the fixed-k fit's {ref!r}"
                )
        out.selections.append((frozenset(active), self.truth[item.csv]))
        out.fingerprint = fingerprint_of(payload["k"], active, payload["loss"])
        if "gsection_trace" in payload:
            out.fingerprint["trace"] = payload["gsection_trace"]
        return out

    def _check_gen(self, item, out):
        with open(self.path("gen.csv"), "rb") as fh:
            produced = fh.read()
        with open(self.path(f"{item.csv}.csv"), "rb") as fh:
            expected = fh.read()
        if produced != expected:
            out.problems.append("gen output differs from the library's dataset for the same seed")
        try:
            with open(self.path("gen.csv.truth.json")) as fh:
                support = [j - 1 for j in json.load(fh)["support"]]
        except (OSError, ValueError, KeyError) as exc:
            out.problems.append(f"truth sidecar is not readable JSON: {exc}")
            return out
        if frozenset(support) != self.truth[item.csv]:
            out.problems.append("truth sidecar support differs from the planted support")
        out.fingerprint = {"csv_sha256": hashlib.sha256(produced).hexdigest()}
        return out


# --------------------------------------------------------------------------
# gauss_wide: standardize, spdas and gpdas on a p >> n gaussian dataset


class GaussWide(Workload):
    name = "gauss_wide"
    FULL = dict(pool=5, n=500, p=10_000, q=10, k_max=50)
    SMOKE = dict(pool=2, n=60, p=300, q=3, k_max=8)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.size = self.SMOKE if smoke else self.FULL
        self.family = families.ModelFamily("gaussian")
        self.pool = []

    def setup(self):
        self.pool = []  # release the previous pool before making the next
        s = self.size
        for i in range(s["pool"]):
            config = datagen.GenConfig(
                n=s["n"], p=s["p"], q=s["q"], rho=0.2, seed=self.seed * 100 + i
            )
            dataset, _, support = datagen.gen_dataset(config)
            self.pool.append((dataset, frozenset(support)))

    def items(self):
        return list(range(len(self.pool)))

    def op(self, item, in_process):
        d = data.standardize(self.pool[item][0])
        path, seq = tuning.spdas(self.family, d, k_max=self.size["k_max"], criterion="ebic")
        gold, trace = tuning.gpdas(self.family, d, k_max=self.size["k_max"])
        return d, path, seq, gold, trace

    def check(self, item, output):
        d, path, seq, gold, trace = output
        truth = self.pool[item][1]
        out = Outcome()
        out.problems += report_problems(self.family, d, seq, path, "ebic")
        out.problems += report_problems(self.family, d, gold)
        if trace.terminal_k != gold.k:
            out.problems.append(f"gpdas trace ends at k={trace.terminal_k}, report k={gold.k}")
        out.selections += [(frozenset(seq.active_set), truth), (frozenset(gold.active_set), truth)]
        out.fingerprint = {
            "spdas": fingerprint_of(seq.k, seq.active_set, seq.loss),
            "gpdas": gpdas_fingerprint(gold, trace),
        }
        return out


def report_problems(family, d, report, path=None, criterion=None):
    problems = checks.selection_problems(
        family, d, report.k, report.active_set, report.loss, np.flatnonzero(report.beta)
    )
    if path is not None:
        rows = [(entry.k, entry.loss) for entry in path.entries]
        problems += checks.criterion_problems(
            family.tag, d.dataset.n, d.dataset.p, rows, criterion, report.k
        )
    return problems


def gpdas_fingerprint(report, trace):
    fp = fingerprint_of(report.k, report.active_set, report.loss)
    fp["trace"] = [list(row) for row in trace.rows]
    fp["reason"] = trace.reason
    return fp


# --------------------------------------------------------------------------
# logit_reps / cox_reps: bench.run_replication on an acceptance scenario


@contextlib.contextmanager
def capture(module, names):
    """Record the return value of each named module function while inside."""
    seen = {}
    saved = {name: getattr(module, name) for name in names}

    def recorder(name, fn):
        def call(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]

        return call

    for name, fn in saved.items():
        setattr(module, name, recorder(name, fn))
    try:
        yield seen
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Replications(Workload):
    """``bench.run_replication`` with spdas and gpdas; the replication index
    cycles over a block of indices chosen by the seed (seed 0: the
    acceptance scenario's first replications)."""

    def __init__(self, seed, smoke, workdir, name, full, smoke_size, reps_full):
        super().__init__(seed, smoke, workdir)
        self.name = name
        self.scenario = bench.BenchScenario(
            methods=("spdas", "gpdas"), criterion="ebic", reps=1, **(smoke_size if smoke else full)
        )
        self.reps = 2 if smoke else reps_full
        self.family = families.ModelFamily(self.scenario.family)

    def items(self):
        return [self.seed * self.reps + i for i in range(self.reps)]

    def op(self, item, in_process):
        with capture(bench, ("gen_beta", "standardize", "spdas", "gpdas")) as seen:
            record = bench.run_replication(self.scenario, item)
        return record, seen

    def check(self, item, output):
        record, seen = output
        out = Outcome()
        d = seen["standardize"]
        truth = frozenset(int(j) for j in np.flatnonzero(seen["gen_beta"]))
        path, seq = seen["spdas"]
        gold, trace = seen["gpdas"]
        out.problems += report_problems(self.family, d, seq, path, self.scenario.criterion)
        out.problems += report_problems(self.family, d, gold)
        for method, report in (("spdas", seq), ("gpdas", gold)):
            row = record["methods"][method]
            if (row["k"], tuple(row["active"]), row["loss"]) != (
                report.k, tuple(report.active_set), report.loss
            ):
                out.problems.append(f"{method} record disagrees with the solver's report")
            out.selections.append((frozenset(report.active_set), truth))
        out.fingerprint = {
            "spdas": fingerprint_of(seq.k, seq.active_set, seq.loss),
            "gpdas": gpdas_fingerprint(gold, trace),
        }
        return out


def make(name: str, seed: int, smoke: bool, workdir) -> Workload:
    if name == "cli_small":
        return CliSmall(seed, smoke, workdir)
    if name == "gauss_wide":
        return GaussWide(seed, smoke, workdir)
    if name == "logit_reps":
        return Replications(
            seed, smoke, workdir, name,
            full=dict(family="binomial", n=500, p=100, q=5, holdout=1000, seed=200),
            smoke_size=dict(family="binomial", n=100, p=20, q=3, holdout=200, seed=200),
            reps_full=10,
        )
    if name == "cox_reps":
        return Replications(
            seed, smoke, workdir, name,
            full=dict(family="cox", n=500, p=50, q=5, censor_rate=0.2, holdout=1000, seed=300),
            smoke_size=dict(family="cox", n=100, p=15, q=3, censor_rate=0.2, holdout=200, seed=300),
            reps_full=6,
        )
    raise ValueError(f"unknown workload {name!r}")

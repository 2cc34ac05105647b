"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gauss_wide --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``bestsubset`` from that
checkout's ``src`` and fails if there is none.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full record of the run
(provenance, every metric, per-op latencies, failures and the behaviour
fingerprint) goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: the closed loop has one client, and on a shared machine
# a single thread keeps op times steadier.  Pinned here, never inherited.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
DEFAULT_SEED = 0
HELD_OUT_SEED = 104729  # kept out of development; use it to confirm a claim


def parse_args(argv):
    from perfbench import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run giving the per-layer metrics")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_info():
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    return {"model": model, "caches": caches}


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "bestsubset").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(bestsubset, probes):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_info(),
        "bestsubset_loaded_from": bestsubset.__file__,
        "child_loaded_from": sorted({path for _, path in probes}),
    }


def import_probe(env):
    """Seconds to import bestsubset in a fresh interpreter, the host
    slowdown sampled in it meanwhile, and where it was imported from."""
    # numpy is imported first and timed alone: the sampler uses it, and no
    # sample may land inside its import.  The two times add up to the
    # import of bestsubset in a fresh interpreter.
    code = ("import time\n"
            "t = time.perf_counter(); import numpy; t = time.perf_counter() - t\n"
            "from perfbench import hostspeed\n"
            "def load():\n"
            "    s = time.perf_counter(); import bestsubset\n"
            "    print(t + time.perf_counter() - s, bestsubset.__file__)\n"
            "hostspeed.run_sampled(load)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split()
    if SRC.resolve() not in Path(path).resolve().parents:
        raise RuntimeError(f"a fresh interpreter imported bestsubset from {path}, not {SRC}")
    from perfbench import hostspeed

    return float(seconds), path, hostspeed.reported_slowdown(proc.stderr)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    if not (SRC / "bestsubset" / "__init__.py").is_file():
        print(f"error: no bestsubset package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import bestsubset
    import_s = time.perf_counter() - start
    loaded = Path(bestsubset.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"error: bestsubset was imported from {loaded}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import harness, hostspeed, workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.make(args.workload, args.seed, args.size == "smoke", workdir)
        # Set-up as a user pays it: a fresh interpreter's import plus making
        # the inputs, repeated, and the median reported, adjusted to the
        # reference host speed like the op times.
        probes, wall_setup_times, setup_times = [], [], []
        sampler = hostspeed.Sampler()
        for _ in range(SETUP_REPEATS):
            import_wall, path, import_slowdown = import_probe(workloads.child_env())
            probes.append((import_wall, path))
            with sampler.timing():
                t0 = time.perf_counter()
                workload.setup()
                inputs_wall = time.perf_counter() - t0
            wall_setup_times.append(import_wall + inputs_wall)
            setup_times.append(import_wall / import_slowdown + inputs_wall / sampler.slowdown())
        workload.prepare()
        run = harness.measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "closed_loop": {"clients": 1, "inputs": len(workload.items())},
        "setup": {"in_process_import_s": import_s, "import_probes": probes,
                  "repeats_s": setup_times, "wall_repeats_s": wall_setup_times},
        "provenance": provenance(bestsubset, probes),
        "latencies_s": run.latencies,
        "wall_latencies_s": run.wall_latencies,
        "slowdowns": run.slowdowns,
        "failures": run.failures,
        "fingerprint": harness.fingerprint_record(run),
    }
    if args.trace:
        record["baseline_latencies_s"] = run.baseline_latencies
        metrics = harness.per_layer(run, statistics.median(s for s, _ in probes))
        emitted = {name: unit for name, (unit, _) in harness.PER_LAYER.items()}
        units = {**emitted, **harness.RECORDED_ONLY}
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": run.tracer.spans}, fh)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = harness.end_to_end(run, workload, statistics.median(setup_times),
                                     statistics.median(wall_setup_times))
        emitted = {name: unit for name, (unit, _) in harness.END_TO_END.items()}
        units = {**emitted, **harness.END_TO_END_RECORDED}
    record["metrics"] = metrics
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(run.latencies)} "
          f"failed={len(run.failures)} digest={record['fingerprint']['digest'][:16]}")
    for name in sorted(metrics):
        unit = units.get(name) or ("s/op" if name.endswith("_s") else "count/op")
        print(f"{name:45s} {metrics[name]:>14.6g} {unit}")
    for failure in run.failures[:10]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print(f"# record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in emitted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

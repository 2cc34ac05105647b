"""Host speed, sampled while an op runs, and op times adjusted to it.

The benchmark runs on a few cores of a shared host whose speed switches
between states about 1.4x apart, for a few seconds to over a minute at a
time.  Wall-clock op times follow the host's state more than the program,
so two sets of runs of the same code can disagree by more than any useful
bound.  The sampler measures that state where the op runs: a SIGALRM timer
interrupts the op every ``INTERVAL_S`` and times a fixed kernel that runs
no package code.  The kernel mixes the three kinds of work the ops do: an
interpreted Python loop, small matrix products and an elementwise numpy
pass (each alone tracked some workloads' slowdown worse than the mix).
It runs twice per sample and only the second, warm pass is timed, so what
the op left in the caches does not count.  An op's adjusted time is its
wall time scaled by ``REFERENCE_KERNEL_S`` over the mean kernel time seen
during it: seconds at a fixed reference speed.  A change to the program
moves adjusted and wall times alike; a change of the host's state moves
only the wall time.

An op that runs in a child process (``cli_small``, the import probe) is
sampled inside the child, by ``run_sampled``: the parent, waiting on
another core, does not see the child's core.  The child must import numpy
before it starts sampling, so that no sample lands inside numpy's import.
"""

import signal
import sys
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.05
PY_LOOPS = 3000
_MATRIX = np.random.default_rng(1).standard_normal((64, 64))
_VECTOR = np.random.default_rng(2).standard_normal(20_000)
# The warm kernel's time in the host's fast state, on the 2-vCPU machine
# the benchmark was written on.  Any fixed value would do: it only sets
# the scale of the adjusted seconds.
REFERENCE_KERNEL_S = 2.0e-4
SAMPLES_AFTER = 5  # taken at the end of an op too short to be interrupted


def _kernel():
    s = 0
    for i in range(PY_LOOPS):
        s += i
    for _ in range(4):
        _MATRIX @ _MATRIX
    return s + float(np.exp(_VECTOR).sum())


def sample() -> float:
    """Seconds the warm kernel takes now."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Sampler:
    """Times the kernel from a timer signal while inside ``timing()``."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    @contextmanager
    def timing(self):
        """Collect kernel times for the block; ``self.samples`` holds them."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not self.samples:
                self.samples = [sample() for _ in range(SAMPLES_AFTER)]

    def slowdown(self) -> float:
        """Mean kernel time of the last block over the reference time."""
        return sum(self.samples) / len(self.samples) / REFERENCE_KERNEL_S


SLOWDOWN_TAG = "perfbench-slowdown"


def run_sampled(fn):
    """Run ``fn()`` sampled; end standard error with its slowdown line.

    Used in a child process.  An exception, ``SystemExit`` included, still
    propagates after the line is written.
    """
    sampler = Sampler()
    try:
        with sampler.timing():
            return fn()
    finally:
        sys.stderr.write(f"\n{SLOWDOWN_TAG} {sampler.slowdown()!r}\n")


def reported_slowdown(stderr: str):
    """The slowdown a ``run_sampled`` child wrote, or None."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(SLOWDOWN_TAG + " "):
            return float(line.split()[1])
    return None


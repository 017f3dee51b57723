"""Fixed reference kernels that measure how fast the host runs right now.

On a shared virtual machine the speed of the same code changes by up to 2x
from one second to the next, as other guests load the physical cores; the
guest sees no steal time to subtract.  So every timed program call is
bracketed by samples of these kernels, and the gated timings count each
call in seconds of a nominal host:

    nominal = wall * speed(sample before, sample after)

The kernels imitate the program's three kinds of work: a Python RK4 loop
over small numpy arrays (the BVP solver), batched 3 x 3 array algebra (the
mesh checks) and float-to-text formatting (the CSV writers).  Each kind
slows by its own factor under contention, so ``speed`` is the geometric
mean of the three.  They do not use lagweb, so a change to the program
cannot move them.  A sample is taken while the program is idle or paused:
run beside it, on the other core of a 2-vCPU host, the kernels would time
the program's own load rather than the host's.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

# kernel -> its time on a quiet 2-vCPU host
NOMINAL_S = {"rk4": 0.0055, "batched": 0.0072, "format": 0.0021}
REPEATS = 2            # a sample keeps each kernel's fastest of REPEATS
FRESH_S = 0.25         # an older sample is not reused as a "before" sample

_BATCH = np.random.default_rng(0).standard_normal((20000, 3, 3))
_FLOATS = np.random.default_rng(1).standard_normal(3000)


def _rk4() -> None:
    y = np.ones(8)
    a = np.full(4, -0.1)
    out = np.empty(8)
    for _ in range(300):
        for _ in range(4):
            phi = 0.1 + y[4:].sum()
            np.multiply(-4.0 * a, np.tan(phi * 0.01), out=out[:4])
            np.divide(-2.0 * a, y[:4], out=out[4:])
        y = y + 1e-4 * out


def _batched() -> None:
    np.linalg.det(_BATCH)
    np.einsum("kij,kjl->kil", _BATCH, _BATCH)


def _format() -> None:
    "\n".join("%.17g" % v for v in _FLOATS)


KERNELS = {"rk4": _rk4, "batched": _batched, "format": _format}


def sample() -> dict:
    """Kernel -> its fastest time of REPEATS runs, now."""
    times = {}
    for name, kernel in KERNELS.items():
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        times[name] = best
    return times


def speed(before: dict, after: dict) -> float:
    """Nominal seconds per wall second between two samples."""
    logs = [math.log(2.0 * NOMINAL_S[k] / (before[k] + after[k])) for k in NOMINAL_S]
    return math.exp(sum(logs) / len(logs))


class Clock:
    """Times program calls in wall seconds and in nominal seconds."""

    def __init__(self):
        self.op = None
        self._take()

    def _take(self) -> None:
        self.last = sample()
        self.taken = time.perf_counter()

    @contextlib.contextmanager
    def chunk(self, op):
        """Add the wall and nominal time of the block to ``op``, also when it raises."""
        if time.perf_counter() - self.taken > FRESH_S:
            self._take()
        self.op, self.start = op, time.perf_counter()
        try:
            yield
        finally:
            self.split()
            self.op = None

    def split(self) -> None:
        """Count the block's time since the last split, then sample the host.

        A caller that can pause the program (a CLI child stopped with
        SIGSTOP) splits a long block into short ones, so that each is scaled
        by samples taken close to it; the samples themselves are not
        counted."""
        wall = time.perf_counter() - self.start
        before = self.last
        self._take()
        self.op.wall_s += wall
        self.op.nominal_s += wall * speed(before, self.last)
        self.start = time.perf_counter()

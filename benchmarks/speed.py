"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of the CPU the benchmark gets drifts
by 20% or more over tens of seconds: identical calls take that much longer
in CPU time as well as in wall time, so no amount of averaging inside one
run removes it.  The worker therefore runs a fixed calibration kernel
between library calls and scales each call's time by how fast the kernel
ran next to it.  The kernel does what the library's calls do -- a sort, a
``unique``, elementwise ``log``/``sqrt`` and a pure-Python loop -- on
small fixed arrays, and touches no library code, so a change to the
library cannot move it.

A call's *normalised* time is its wall time times ``NOMINAL_S`` over the
kernel's mean time in the blocks just before and just after the call:
the time the call would take on a machine that runs the kernel in
``NOMINAL_S``, the kernel's median on the 2-vCPU Xeon VM the benchmark
was written on.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.8e-3   # one kernel run on the reference machine
SHARE = 0.05         # calibration time after a call, as a share of the call
MIN_RUNS = 2         # kernel runs in the shortest block

_gen = np.random.default_rng(0)
_SORTED = _gen.random(1 << 13)
_ELEMENTWISE = _gen.random(1 << 12)


def kernel() -> float:
    """One run of the calibration workload."""
    np.sort(_SORTED)
    np.unique((_SORTED * 64.0).astype(np.int64))
    np.log(_ELEMENTWISE)
    np.sqrt(_ELEMENTWISE)
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) ** 0.5
    return s


def block(runs: int) -> float:
    """Total time of ``runs`` timed kernel runs, after one untimed run that
    brings the kernel's arrays back into cache."""
    kernel()
    t0 = time.perf_counter()
    for _ in range(runs):
        kernel()
    return time.perf_counter() - t0


def runs_after(call_seconds: float) -> int:
    """Kernel runs in the block that follows a call of ``call_seconds``."""
    return max(MIN_RUNS, math.ceil(SHARE * call_seconds / NOMINAL_S))

"""Fixed reference computations that measure how fast the machine is right now.

The benchmark runs on shared machines whose speed drifts by up to 2x over
minutes, so raw timings of identical runs spread by up to 40%.  A run
therefore samples a reference kernel every INTERVAL_S, interleaved with
its ops, and scales each op's time by REFERENCE_S over the kernel's time in
the samples around it.  On a shared 2-core machine, interleaved this way,
the ratio of m_star time to python-kernel time held within about 1% across
processes while the kernel's own time moved between 10 and 19 ms:

* ``python``: a geometric series in p + q*sqrt(N) with Fraction
  coefficients, the shape of the exact evaluator's inner loop.  It scales
  the interpreter-bound workloads and every set-up.
* ``numpy``: one 2^20-element uint64 residue sweep, the shape of the
  oracle's inner loop.  It scales the oracle workload's ops, and only that
  workload samples it, so its arrays stay out of the others' peak RSS.

The kernels are frozen here, independent of the package, so a change to
the package cannot move them.  Scaled times read as if the kernel took
REFERENCE_S, i.e. on a machine of fixed speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

import numpy as np

# kernel -> its time on the reference machine, in seconds
REFERENCE_S = {"python": 0.020, "numpy": 0.020}
INTERVAL_S = 0.5

_N = 45 * 41  # a*b*(a*b - 4) at (a, b) = (5, 9)
_D = (Fraction(41, 2), Fraction(-1, 2))  # a fixed p + q*sqrt(N), as (p, q)
_T = [(Fraction(2 * j - 3), Fraction(j % 3, 5)) for j in range(36)]


def _mul(x, y):
    return (x[0] * y[0] + x[1] * y[1] * _N, x[0] * y[1] + x[1] * y[0])


def _python_kernel():
    eta = (Fraction(9, 2), Fraction(-1, 10))
    d = _mul(_D, (Fraction(1, 41), Fraction(0)))
    for _ in range(8):
        total = (Fraction(0), Fraction(0))
        w = (Fraction(1), Fraction(0))
        for t in _T:
            term = _mul(w, (t[0] * eta[0], t[0] * eta[1] + t[1]))
            total = (total[0] + term[0], total[1] + term[1])
            w = _mul(w, d)
    return total


def _numpy_kernel():
    # allocated per call, as the sweep does, so no array outlives the sample
    ns = np.arange(1000, 1000 + (1 << 20), dtype=np.uint64)
    r = ns * np.uint64(0x9E3779B97F4A7C15) - np.uint64(0x2545F4914F6CDD1D)
    dist = np.minimum(r, np.uint64(0) - r).astype(np.float64) / 2.0**64
    return float((dist * ns.astype(np.float64)).min())


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


class Calibrator:
    """Samples one kernel now and then, and scales raw times by the nearby samples."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.clock = time.perf_counter
        self.at: list[float] = []  # midpoint of each sample
        self.took: list[float] = []  # its duration
        KERNELS[kernel]()  # warm-up: first-call costs are not the machine's speed

    def sample(self) -> None:
        # a collection here would time the program's heap, not the machine
        gc.disable()
        try:
            start = self.clock()
            KERNELS[self.kernel]()
            end = self.clock()
        finally:
            gc.enable()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if not self.at or self.clock() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """Factor from raw seconds at time t to seconds at reference speed.

        The machine's speed at t is read from the samples just before and
        just after t, so a change of speed within a run is followed.
        """
        i = bisect.bisect(self.at, t)
        near = self.took[max(i - 1, 0):i + 1]
        return REFERENCE_S[self.kernel] * len(near) / sum(near)

    def median_s(self) -> float:
        return statistics.median(self.took)

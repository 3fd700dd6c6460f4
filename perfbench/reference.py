"""Fixed reference kernels that gauge the machine's speed during a run.

The reference machine is shared, and its speed drifts by up to 1.8 times
over minutes for interpreter-bound and small-FFT work, while large BLAS
calls barely move (see README.md).  A measurement whose time is of the
drifting kind is paired with a fixed kernel doing the same kind of work.
The kernel is timed next to the measurement, and the measured time is
scaled by the kernel's nominal time over the mean of two kernel timings.
The kernels use numpy only, never susyoptics, so a change to the program
does not change them.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.fft import fft, ifft  # bound before a tracer wraps numpy.fft


def interpreter():
    """A fixed pure-Python loop: bytecode dispatch and small-int arithmetic."""
    def run():
        x = 0
        for j in range(200_000):
            x += j * j
    return run


def split_step():
    """Split-step-like FFT steps of a 2048-point state, plus interpreter work."""
    rng = np.random.default_rng(0)
    n = 2048
    psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    half = np.exp(1j * rng.standard_normal(n))
    kinetic = np.exp(1j * rng.standard_normal(n))
    loop = interpreter()

    def run():
        psi = psi0
        for _ in range(600):
            psi = ifft(fft(psi * half) * kinetic)
            np.vdot(psi, psi0)
        loop()
    return run


# measurement -> (kernel factory, nominal seconds of one call: the fastest of
# 30 calls seen on the reference machine; it only sets the scale).  "setup"
# is the import of susyoptics in a fresh process.  Oracle has no kernel: its
# time is mostly large eigensolves, which do not drift, and a small
# eigensolve as a kernel only added noise.  Trace has none either: none of
# the kernels tried (float formatting, the split-step one, the loop) made it
# steady enough to gate.
KERNELS = {
    "setup": (interpreter, 0.014),
    "sweep": (split_step, 0.046),
}


class Gauge:
    """Times a measurement's reference kernel; turns wall times into scaled ones."""

    def __init__(self, measurement: str):
        factory, self.nominal_s = KERNELS.get(measurement, (None, None))
        self._kernel = factory() if factory else None
        if self._kernel:
            self._kernel()  # untimed: first-call costs
            self.last_s = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def scale(self, wall_s: float) -> float:
        """Wall time of the span just ended, at the kernel's nominal speed.

        The kernel is timed once more, and the span's time is scaled by the
        mean of this timing and the one before it.
        """
        if not self._kernel:
            return wall_s
        before, self.last_s = self.last_s, self.measure()
        return wall_s * self.nominal_s / ((before + self.last_s) / 2)

"""How fast the host runs right now, and the host calibration GEMM.

The two-vCPU virtual machine the benchmark was built on slows each vCPU
by 1.2-1.7x for one second to several minutes at a time, independently
of the other. A timing taken during a slow spell says more about the
host than about the program. So right after each op, on the thread that
ran it, the child times a fixed *tick* and divides the op's wall time
by ``tick / REF_TICK_MS``, the host's slowdown against a calm spell.

A slow spell hits kinds of work unequally: small-array ufunc dispatch
slows most, interpreter steps and small dense products less. The tick
does some of each, as the workloads do. Alone, a ufunc tick
over-corrected the Lindblad sweep, whose kernel is dense products, and
an interpreter or product tick under-corrected the closed sweep.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: The tick's dense operand: a fixed 81x81 complex matrix, the size of
#: a two-transmon superoperator, scaled so that products stay small.
_M = np.random.default_rng(0).standard_normal((81, 162)).view(complex) / 20
#: Tick time of the reference host: that machine (Intel Xeon, KVM,
#: NumPy 2.4, one BLAS thread) in a calm spell.
REF_TICK_MS = 0.35


def speed() -> float:
    """The host's slowdown against the reference, from one tick."""
    t0 = time.perf_counter()
    v = np.ones(8)
    for _ in range(100):
        v = v * 1.0001 + 0.0
    m = _M
    for _ in range(2):
        m = m @ _M
    total = 0
    for i in range(1500):
        total += i * i
    return (time.perf_counter() - t0) * 1e3 / REF_TICK_MS


def settled_speed(ticks: int = 9) -> float:
    """The median slowdown of several ticks, for timings without ops."""
    return median(speed() for _ in range(ticks))


class CalibrationGemm:
    """A fixed 512x512 complex128 GEMM, timed before set-up and after
    the last op (``host.gemm_ms``): a host that drifted in between shows
    as two different times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        shape = (512, 512)
        self._a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.ms()  # warms the BLAS pool before set-up is timed

    def ms(self) -> float:
        """Milliseconds of one GEMM, the median of three."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            np.matmul(self._a, self._b)
            times.append((time.perf_counter() - t0) * 1e3)
        return median(times)

"""Host-speed calibration: a fixed unit of work timed next to the operations.

The benchmark runs on shared hosts whose speed drifts by up to a factor 2
within seconds (both vCPUs at once, CPU time included, so it is not time
stolen by the hypervisor).  A fixed unit of the kind of work the program
does (numpy ufuncs on short complex arrays and Python arithmetic on
complex scalars) slows down with it: over one minute, curve_sweep
operation times ranged 6.3-12.3 ms per 40-operation window while their
ratio to the calibration unit stayed at 3.0 +- 0.1.

Every timed operation is followed by calibration units, and its time is
rescaled to the reference host speed: ``t * REF_UNIT_S / unit``, where
``unit`` is the mean unit time near that operation.  The unit is
benchmark code; a change to the program does not change it.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference host speed: one unit in 100 us.  Scaled times are what the
#: operation would take on a host running one unit in that time (this 2-vCPU
#: shared VM with Python 3.11.7 and numpy 2.4.6 runs one in 87-140 us).  The
#: constant is a unit of measure, not a measurement.
REF_UNIT_S = 1.0e-4

#: Reference time of a fresh interpreter that imports numpy.  cli_cold
#: times whole processes, whose start-up (exec, dynamic loading, imports)
#: follows the host's drift less closely than the compute unit does, so it
#: is scaled by such a null process instead: over 90 s of cold CLI
#: processes, raw times per 10-process window spread by 10.7% (standard
#: deviation), times scaled by the compute unit by 12.0%, times scaled by
#: the null process by 5.3%.  This host runs one in 0.13-0.2 s.
REF_NULL_S = 0.15

#: Least calibration time after each operation, and its share of the
#: operation's own time.
MIN_CAL_S = 2.0e-3
CAL_SHARE = 0.25

#: Operations on either side of an operation whose calibration is pooled.
WINDOW = 4

_X = np.linspace(-1.5, 1.5, 32) + 0.3j
_S = (0.5 + 0.25j, -0.75 + 0j, 1.5j, 0.1 - 0.9j)
_E = (0.3 + 0.2j, -0.9 + 0.1j, 1.1 - 0.4j, -0.2 - 1.2j, 1.7 + 0.5j)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def unit() -> complex:
    """One unit of calibration work; the result is only a sink.

    Short-array ufuncs and complex scalar arithmetic, then two Gauss-Legendre
    panels of dx/y and x dx/y on a quintic, as the program's quadrature does.
    """
    acc = 0j
    x = _X
    for k in range(4):
        y = np.sqrt(4.0 * (x - 0.5) * (x + 0.7j) * (x - 1.1 + 0.1j * k))
        acc += complex((x * x / y).sum())
        for v in _S:
            acc += v * v / (1.0 + abs(v)) + v.conjugate() * k
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        x = (0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES) * (2.0 + 1.0j) - 1.0
        y2 = np.full(x.shape, 4.0, dtype=complex)
        for e in _E:
            y2 = y2 * (x - e)
        y = np.sqrt(y2)
        acc += complex((0.5 * (b - a) * (np.vstack([1.0 / y, x / y]) @ _GL_WEIGHTS)).sum())
    return acc


def measure(op_seconds: float = 0.0) -> tuple:
    """Run units for at least max(MIN_CAL_S, CAL_SHARE * op_seconds).

    Returns (units, seconds).
    """
    budget = max(MIN_CAL_S, CAL_SHARE * op_seconds)
    n, t0 = 0, time.perf_counter()
    while True:
        unit()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= budget:
            return n, dt


def scale(times, units, cal_seconds, ref: float = REF_UNIT_S, window: int = WINDOW) -> list:
    """Operation times rescaled to the reference host speed.

    Operation i is scaled by ``ref`` over the mean unit time of the
    calibration runs of operations i - window .. i + window.
    """
    n = len(times)
    cu = np.concatenate([[0], np.cumsum(units)])
    cs = np.concatenate([[0.0], np.cumsum(cal_seconds)])
    out = []
    for i in range(n):
        lo, hi = max(0, i - window), min(n, i + window + 1)
        per_unit = (cs[hi] - cs[lo]) / (cu[hi] - cu[lo])
        out.append(float(times[i]) * ref / per_unit)
    return out

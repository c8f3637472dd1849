"""Truncated power series at infinity: the dense row kernels of the
expansion, and a read-only view that reports one row's window.

A ``TruncatedSeries`` knows its coefficients on the window [e0, order] and
declares that every coefficient below e0 is exactly zero.  Coefficients
above ``order`` are UNKNOWN, not zero: reading one raises ``OrderUnderflow``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import OrderUnderflow


def _trim(e0: int, coeffs: np.ndarray):
    # drop exactly-zero leading coefficients so e0 is the true valuation
    # whenever that is provable; keep at least one coefficient.
    k = 0
    while k < len(coeffs) - 1 and coeffs[k] == 0:
        k += 1
    return e0 + k, coeffs[k:]


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of sum_k c_k xi^k known exactly for e0 <= k <= order."""

    e0: int
    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order - self.e0 + 1 != len(self.coeffs):
            raise ValueError("coefficient window inconsistent with declared order")

    @classmethod
    def make(cls, e0: int, coeffs, order: int) -> "TruncatedSeries":
        """The series with ``coeffs`` from xi^e0, cut to ``order`` and with
        its exactly-zero leading coefficients trimmed."""
        width = order - e0 + 1
        arr = np.asarray(list(coeffs), dtype=complex)[: max(width, 0)]
        if arr.size < width:
            raise ValueError("declared order beyond supplied coefficients")
        if arr.size == 0:
            raise OrderUnderflow(f"window [{e0}, {order}] is empty")
        e0, arr = _trim(e0, arr)
        return cls(e0, tuple(arr), order)

    def coeff(self, k: int) -> complex:
        """Coefficient of xi^k; zero outside the stored window, error above the order."""
        if k > self.order:
            raise OrderUnderflow(f"coefficient of xi^{k} unknown (order {self.order})")
        if k < self.e0 or k >= self.e0 + len(self.coeffs):
            return 0.0 + 0.0j
        return complex(self.coeffs[k - self.e0])


# -- dense power series ------------------------------------------------------
# c[..., k] is the coefficient of xi^k; a product, reciprocal or root of series
# known on xi^0..xi^(n-1) is known there too, so the kernels keep the length.
# mul_rows is batched: its leading axes broadcast, and one call multiplies every
# row of a stack.  sqrt_coeffs and reciprocal_coeffs take one series and run
# their triangular recurrences on Python complex numbers, which at these
# lengths cost less than numpy's per-call overhead.  Neither is a linear solve:
# LU with partial pivoting loses digits on rows whose coefficients grow.


@functools.lru_cache(maxsize=8)
def _lag_index(n: int) -> tuple:
    """(index, upper) of the n x n lower-triangular Toeplitz matrix:
    entry [k, i] is b[k - i], and zero where upper[k, i] (k < i)."""
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    index, upper = np.maximum(lag, 0), lag < 0
    index.setflags(write=False)
    upper.setflags(write=False)
    return index, upper


def mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product a * b on the common window; leading axes broadcast."""
    index, upper = _lag_index(a.shape[-1])
    toeplitz = np.where(upper, 0.0, b[..., index])
    # einsum, not @: at these sizes a complex BLAS call costs resident memory, not time
    return np.einsum("...ki,...i->...k", toeplitz, a)


def reciprocal_coeffs(c) -> np.ndarray:
    """1/c of one power series by the triangular recurrence; needs c[0] != 0."""
    c = np.asarray(c, dtype=complex).tolist()
    d = [1.0 / c[0]]
    for k in range(1, len(c)):
        d.append(-sum(map(operator.mul, c[1 : k + 1], reversed(d))) / c[0])
    return np.array(d, dtype=complex)


def sqrt_coeffs(c) -> np.ndarray:
    """Principal square root of one power series; needs c[0] != 0."""
    c = np.asarray(c, dtype=complex).tolist()
    s = [complex(np.sqrt(c[0]))]
    for k in range(1, len(c)):
        s.append((c[k] - sum(map(operator.mul, s[1:k], reversed(s[1:k])))) / (2 * s[0]))
    return np.array(s, dtype=complex)

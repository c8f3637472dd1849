"""Truncated Laurent series in one variable with exact order bookkeeping.

A series knows its coefficients on the window [e0, order] and declares that
every coefficient below e0 is exactly zero.  Coefficients above ``order`` are
UNKNOWN, not zero; every operation propagates the window pessimistically so
no result ever reports a coefficient it cannot actually prove.

Exactly known objects (polynomials, monomials, scalars) carry the sentinel
order INF_ORDER, which survives any operation that genuinely preserves
complete knowledge (sums, products, monomial division).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import OrderUnderflow, ZeroLeadingCoefficient

#: Sentinel truncation order for exactly known series.
INF_ORDER = 1_000_000_000


def _trim(e0: int, coeffs: np.ndarray, order: int):
    # drop exactly-zero leading coefficients so e0 is the true valuation
    # whenever that is provable; keep at least one coefficient.
    k = 0
    while k < len(coeffs) - 1 and coeffs[k] == 0:
        k += 1
    return e0 + k, coeffs[k:], order


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of sum_k c_k xi^k known exactly for e0 <= k <= order."""

    e0: int
    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order != INF_ORDER and self.order - self.e0 + 1 != len(self.coeffs):
            raise ValueError("coefficient window inconsistent with declared order")
        if self.order == INF_ORDER and len(self.coeffs) < 1:
            raise ValueError("empty series")

    # -- construction ---------------------------------------------------

    @staticmethod
    def make(e0: int, coeffs, order: int | None = None) -> "TruncatedSeries":
        arr = np.asarray(list(coeffs), dtype=complex)
        if arr.size == 0:
            raise OrderUnderflow("no coefficients")
        if order is None:
            order = e0 + arr.size - 1
        if order == INF_ORDER:
            e0, arr, _ = _trim(e0, arr, order)
            return TruncatedSeries(e0, tuple(arr), INF_ORDER)
        if order - e0 + 1 < arr.size:
            arr = arr[: order - e0 + 1]
        elif order - e0 + 1 > arr.size:
            raise ValueError("declared order beyond supplied coefficients")
        if arr.size == 0:
            raise OrderUnderflow(f"window [{e0}, {order}] is empty")
        e0, arr, order = _trim(e0, arr, order)
        return TruncatedSeries(e0, tuple(arr), order)

    @staticmethod
    def exact(e0: int, coeffs) -> "TruncatedSeries":
        """A polynomial in xi (times xi^e0), known to all orders."""
        arr = np.asarray(list(coeffs), dtype=complex)
        if arr.size == 0 or not arr.any():
            return TruncatedSeries(0, (0.0 + 0.0j,), INF_ORDER)
        while arr[-1] == 0:
            arr = arr[:-1]
        e0, arr, _ = _trim(e0, arr, INF_ORDER)
        return TruncatedSeries(e0, tuple(arr), INF_ORDER)

    @staticmethod
    def constant(c) -> "TruncatedSeries":
        return TruncatedSeries.exact(0, [complex(c)])

    # -- inspection -----------------------------------------------------

    @property
    def arr(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    @property
    def is_exact(self) -> bool:
        return self.order == INF_ORDER

    @property
    def top(self) -> int:
        """Highest exponent carrying a stored coefficient."""
        return self.e0 + len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        """Coefficient of xi^k; zero below the window, error above it."""
        if k > self.order:
            raise OrderUnderflow(f"coefficient of xi^{k} unknown (order {self.order})")
        if k < self.e0 or k > self.top:
            return 0.0 + 0.0j
        return complex(self.coeffs[k - self.e0])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Dense coefficients on [lo, hi] (must be known)."""
        return np.array([self.coeff(k) for k in range(lo, hi + 1)], dtype=complex)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderUnderflow(f"cannot extend knowledge to order {order}")
        if order < self.e0:
            raise OrderUnderflow(f"window [{self.e0}, {order}] is empty")
        if self.is_exact:
            arr = self.window(self.e0, order)
            return TruncatedSeries.make(self.e0, arr, order)
        return TruncatedSeries.make(self.e0, self.arr[: order - self.e0 + 1], order)

    def __repr__(self):
        ordr = "inf" if self.is_exact else str(self.order)
        terms = ", ".join(
            f"{c:.6g}*xi^{self.e0 + k}" for k, c in enumerate(self.coeffs[:6])
        )
        more = " + ..." if len(self.coeffs) > 6 else ""
        return f"TruncatedSeries({terms}{more}; order={ordr})"

    # -- ring operations -------------------------------------------------

    def __neg__(self):
        return TruncatedSeries(self.e0, tuple(-self.arr), self.order)

    def __add__(self, other):
        other = _coerce(other)
        order = min(self.order, other.order)
        e0 = min(self.e0, other.e0)
        if order == INF_ORDER:
            hi = max(self.top, other.top)
        else:
            hi = order
            if hi < e0:
                raise OrderUnderflow("sum has empty known window")
        a = _dense(self, e0, hi)
        b = _dense(other, e0, hi)
        return TruncatedSeries.make(e0, a + b, order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if np.isscalar(other):
            return TruncatedSeries(self.e0, tuple(self.arr * complex(other)), self.order)
        other = _coerce(other)
        if self.order == INF_ORDER and other.order == INF_ORDER:
            order = INF_ORDER
        elif self.order == INF_ORDER:
            order = other.order + self.e0
        elif other.order == INF_ORDER:
            order = self.order + other.e0
        else:
            order = min(self.order + other.e0, other.order + self.e0)
        conv = np.convolve(self.arr, other.arr)
        e0 = self.e0 + other.e0
        if order != INF_ORDER:
            if order < e0:
                raise OrderUnderflow("product has empty known window")
            conv = conv[: order - e0 + 1]
        return TruncatedSeries.make(e0, conv, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other):
            return self * (1.0 / complex(other))
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return _coerce(other) * self.reciprocal()

    def reciprocal(self) -> "TruncatedSeries":
        """1/self; requires a nonzero coefficient at the declared valuation."""
        c = self.arr
        if c[0] == 0:
            raise ZeroLeadingCoefficient("reciprocal of series with zero leading coefficient")
        if self.is_exact:
            if len(c) == 1:
                return TruncatedSeries(-self.e0, (1.0 / c[0],), INF_ORDER)
            raise ValueError("reciprocal of an exact polynomial is not polynomial; truncate() first")
        # b = xi^L (c0 + ...), known to order T: 1/b known on [-L, T - 2L]
        return TruncatedSeries.make(-self.e0, reciprocal_coeffs(c), self.order - 2 * self.e0)

    def sqrt(self) -> "TruncatedSeries":
        """Principal square root; needs even valuation and nonzero lead."""
        c = self.arr
        if c[0] == 0:
            raise ZeroLeadingCoefficient("sqrt of series with zero leading coefficient")
        if self.e0 % 2 != 0:
            raise ValueError(f"sqrt needs an even valuation, got {self.e0}")
        if self.is_exact:
            if len(c) == 1:
                return TruncatedSeries(self.e0 // 2, (complex(np.sqrt(c[0])),), INF_ORDER)
            raise ValueError("sqrt of an exact polynomial is not polynomial; truncate() first")
        return TruncatedSeries.make(self.e0 // 2, sqrt_coeffs(c), self.order - self.e0 // 2)

    def diff(self) -> "TruncatedSeries":
        ks = self.e0 + np.arange(len(self.coeffs))
        out = self.arr * ks
        order = self.order if self.is_exact else self.order - 1
        return TruncatedSeries.make(self.e0 - 1, out, order)

    def integrate(self) -> "TruncatedSeries":
        """Termwise antiderivative with zero constant; rejects a xi^-1 term."""
        ks = self.e0 + np.arange(len(self.coeffs))
        if np.any((ks == -1) & (self.arr != 0)):
            raise ValueError("series has a xi^-1 term; no Laurent antiderivative")
        out = np.where(ks == -1, 0.0, self.arr / np.where(ks == -1, 1, ks + 1))
        order = self.order if self.is_exact else self.order + 1
        return TruncatedSeries.make(self.e0 + 1, out, order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(xi)); inner must have valuation >= 1, self valuation >= 0."""
        if self.e0 < 0:
            raise ValueError("composition needs a non-negative outer valuation")
        if inner.e0 < 1:
            raise ValueError("composition needs inner valuation >= 1")
        if inner.is_exact and len(inner.coeffs) > 1:
            raise ValueError("truncate the inner series first")
        if self.is_exact:
            outer_top = self.top
            order = INF_ORDER if inner.is_exact else inner.order
        else:
            outer_top = self.order
            order = (self.order + 1) * inner.e0 - 1
            if not inner.is_exact:
                order = min(order, inner.order)
        acc = TruncatedSeries.constant(self.coeff(outer_top))
        for k in range(outer_top - 1, -1, -1):
            acc = acc * inner + TruncatedSeries.constant(self.coeff(k))
        if order != INF_ORDER:
            acc = acc.truncate(min(acc.order, order)) if acc.order != INF_ORDER else acc.truncate(order)
        return acc


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


def _coerce(v) -> TruncatedSeries:
    if isinstance(v, TruncatedSeries):
        return v
    return TruncatedSeries.constant(v)


def _dense(s: TruncatedSeries, lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1, dtype=complex)
    a, b = max(lo, s.e0), min(hi, s.top)
    if a <= b:
        out[a - lo : b - lo + 1] = s.arr[a - s.e0 : b - s.e0 + 1]
    return out


def schwarzian(x: TruncatedSeries) -> TruncatedSeries:
    """{x, xi} = x'''/x' - (3/2)(x''/x')^2 as a series in xi."""
    d1 = x.diff()
    d2 = d1.diff()
    d3 = d2.diff()
    ratio2 = d2 / d1
    return d3 / d1 - 1.5 * (ratio2 * ratio2)

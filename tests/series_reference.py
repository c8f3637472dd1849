"""Truncated Laurent series with ring operations, for tests only.

``Series`` is ``secondkind.series.TruncatedSeries`` with its arithmetic:
every operation propagates the window [e0, order] pessimistically, so no
result reports a coefficient it cannot prove.  ``test_expansion`` builds
both connection sides from it object by object and checks the dense kernel
against that construction.

Exactly known objects (polynomials, monomials, scalars) carry the sentinel
order INF_ORDER, which survives any operation that keeps complete knowledge
(sums, products, monomial division).  A zero leading coefficient makes a
reciprocal or a root raise ``ZeroDivisionError``.
"""

import numpy as np

from secondkind.errors import OrderUnderflow
from secondkind.series import TruncatedSeries, _trim, reciprocal_coeffs, sqrt_coeffs

#: Sentinel truncation order for exactly known series.
INF_ORDER = 1_000_000_000


class Series(TruncatedSeries):
    """A ``TruncatedSeries`` that is either truncated or exact (INF_ORDER)."""

    def __post_init__(self):
        if self.order != INF_ORDER:
            super().__post_init__()
        elif len(self.coeffs) < 1:
            raise ValueError("empty series")

    @staticmethod
    def exact(e0: int, coeffs) -> "Series":
        """A polynomial in xi (times xi^e0), known to all orders."""
        arr = np.trim_zeros(np.asarray(list(coeffs), dtype=complex), "b")
        if arr.size == 0:
            return Series(0, (0.0 + 0.0j,), INF_ORDER)
        return _make(e0, arr, INF_ORDER)

    @staticmethod
    def constant(c) -> "Series":
        return Series.exact(0, [complex(c)])

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

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise OrderUnderflow(f"cannot extend knowledge to order {order}")
        if order < self.e0:
            raise OrderUnderflow(f"window [{self.e0}, {order}] is empty")
        return Series.make(self.e0, [self.coeff(k) for k in range(self.e0, order + 1)], order)

    def __neg__(self):
        return Series(self.e0, tuple(-self.arr), self.order)

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
        return _make(e0, _dense(self, e0, hi) + _dense(other, e0, hi), order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if np.isscalar(other):
            return Series(self.e0, tuple(self.arr * complex(other)), self.order)
        other = _coerce(other)
        if self.is_exact and other.is_exact:
            order = INF_ORDER
        elif self.is_exact:
            order = other.order + self.e0
        elif other.is_exact:
            order = self.order + other.e0
        else:
            order = min(self.order + other.e0, other.order + self.e0)
        conv = np.convolve(self.arr, other.arr)
        e0 = self.e0 + other.e0
        if order != INF_ORDER:
            if order < e0:
                raise OrderUnderflow("product has empty known window")
            conv = conv[: order - e0 + 1]
        return _make(e0, conv, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other):
            return self * (1.0 / complex(other))
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return _coerce(other) * self.reciprocal()

    def reciprocal(self) -> "Series":
        """1/self; requires a nonzero coefficient at the declared valuation."""
        c = self.arr
        if c[0] == 0:
            raise ZeroDivisionError("reciprocal of series with zero leading coefficient")
        if self.is_exact:
            if len(c) == 1:
                return Series(-self.e0, (1.0 / c[0],), INF_ORDER)
            raise ValueError("reciprocal of an exact polynomial is not polynomial; truncate() first")
        # b = xi^L (c0 + ...), known to order T: 1/b known on [-L, T - 2L]
        return Series.make(-self.e0, reciprocal_coeffs(c), self.order - 2 * self.e0)

    def sqrt(self) -> "Series":
        """Principal square root; needs even valuation and nonzero lead."""
        c = self.arr
        if c[0] == 0:
            raise ZeroDivisionError("sqrt of series with zero leading coefficient")
        if self.e0 % 2 != 0:
            raise ValueError(f"sqrt needs an even valuation, got {self.e0}")
        if self.is_exact:
            if len(c) == 1:
                return Series(self.e0 // 2, (complex(np.sqrt(c[0])),), INF_ORDER)
            raise ValueError("sqrt of an exact polynomial is not polynomial; truncate() first")
        return Series.make(self.e0 // 2, sqrt_coeffs(c), self.order - self.e0 // 2)

    def diff(self) -> "Series":
        ks = self.e0 + np.arange(len(self.coeffs))
        order = self.order if self.is_exact else self.order - 1
        return _make(self.e0 - 1, self.arr * ks, order)


def _make(e0: int, coeffs, order: int) -> Series:
    # an exact series keeps all its coefficients; a truncated one is cut to its order
    if order == INF_ORDER:
        e0, arr = _trim(e0, np.asarray(coeffs, dtype=complex))
        return Series(e0, tuple(arr), INF_ORDER)
    return Series.make(e0, coeffs, order)


def _coerce(v) -> Series:
    return v if isinstance(v, Series) else Series.constant(v)


def _dense(s: Series, lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1, dtype=complex)
    a, b = max(lo, s.e0), min(hi, s.top)
    if a <= b:
        out[a - lo : b - lo + 1] = s.arr[a - s.e0 : b - s.e0 + 1]
    return out


def schwarzian(x: Series) -> Series:
    """{x, xi} = x'''/x' - (3/2)(x''/x')^2 as a series in xi."""
    d1 = x.diff()
    d2 = d1.diff()
    d3 = d2.diff()
    ratio2 = d2 / d1
    return d3 / d1 - 1.5 * (ratio2 * ratio2)

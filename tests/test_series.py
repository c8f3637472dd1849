"""The series view of ``secondkind.series`` and the test-only ring built on it
(``series_reference``): ring laws, inverse pairs, order bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondkind import TruncatedSeries
from secondkind.errors import OrderUnderflow
from series_reference import Series, schwarzian

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)


def _series(coeffs, e0=0, order=None):
    coeffs = list(coeffs)
    order = e0 + len(coeffs) - 1 if order is None else order
    coeffs = coeffs + [0.0] * (order - e0 + 1 - len(coeffs))
    return Series.make(e0, np.array(coeffs, dtype=complex), order)


def _max_coeff_diff(a, b, lo, hi):
    return max(abs(a.coeff(k) - b.coeff(k)) for k in range(lo, hi + 1))


def test_mul_div_roundtrip():
    a = _series([2.0, -1.0, 0.5, 0.25, -2.0], e0=-1)
    b = _series([1.0, 3.0, -0.5, 1.5, 0.1], e0=2)
    back = (a * b) / b
    assert _max_coeff_diff(back, a, -1, back.order) < 1e-12


def test_sqrt_squares_back():
    s = _series([4.0, 1.0, -0.3, 0.7, 2.0, -1.1], e0=-4)
    r = s.sqrt()
    assert r.e0 == -2
    back = r * r
    assert _max_coeff_diff(back, s, -4, back.order) < 1e-12


def test_reciprocal_multiplies_to_one():
    s = _series([0.5, 1.0, 2.0, -0.25, 0.0, 1.0], e0=3)
    one = s * s.reciprocal()
    assert abs(one.coeff(0) - 1.0) < 1e-13
    assert _max_coeff_diff(one, Series.constant(1.0), 0, one.order) < 1e-12


def test_exact_polynomial_sqrt_requires_truncation():
    t = Series.exact(0, [1.0, 0.0, 0.25])
    with pytest.raises(ValueError, match="truncate"):
        t.sqrt()
    r = t.truncate(8).sqrt()
    back = r * r
    assert _max_coeff_diff(back, t, 0, back.order) < 1e-13


def test_exact_monomial_stays_exact():
    x = Series.exact(-2, [1.0])
    assert x.is_exact
    assert x.reciprocal().is_exact
    assert x.diff().is_exact
    assert (x * x).is_exact


def test_coeff_above_order_raises():
    # the view that secondkind expand reads: zero below the window, error above it
    s = TruncatedSeries.make(0, [1.0, 2.0], 1)
    assert s.coeff(-1) == 0
    assert s.coeff(1) == 2.0
    with pytest.raises(OrderUnderflow):
        s.coeff(2)


def test_leading_zeros_are_normalized_away():
    # make() renormalizes the valuation, so division by (0 + xi) works
    s = _series([0.0, 1.0], e0=0)
    assert s.e0 == 1
    assert abs((s.reciprocal() * s).coeff(0) - 1.0) < 1e-14


def test_zero_series_has_no_reciprocal():
    s = _series([0.0, 0.0, 0.0], e0=0)
    with pytest.raises(ZeroDivisionError):
        s.reciprocal()


def test_order_shrinks_through_division():
    # dividing by a valuation-L series costs 2L orders of knowledge
    s = _series([1.0, 1.0, 1.0, 1.0, 1.0], e0=2)
    inv = s.reciprocal()
    assert inv.e0 == -2
    assert inv.order == s.order - 4


def test_schwarzian_of_moebius_vanishes():
    # {(a xi + b)/(c xi + d); xi} = 0 characterizes Moebius maps
    a, b, c, d = 2.0, -1.0, 0.7, 1.3
    num = _series([b, a], e0=0, order=14)
    den = _series([d, c], e0=0, order=14)
    s = schwarzian(num / den)
    assert max(abs(s.coeff(k)) for k in range(0, s.order + 1)) < 1e-11


def test_schwarzian_of_inverse_square():
    # {xi^-2; xi} = -3/2 xi^-2, the exact seed of the algebraic connection
    x = Series.exact(-2, [1.0])
    s = schwarzian(x)
    assert abs(s.coeff(-2) + 1.5) < 1e-15
    assert all(abs(s.coeff(k)) < 1e-15 for k in range(-1, 4))


@settings(max_examples=40, deadline=None)
@given(st.lists(finite, min_size=3, max_size=7), st.lists(finite, min_size=3, max_size=7))
def test_product_linear_in_coefficients(aa, bb):
    # convolution oracle for multiplication
    a = _series(aa, e0=0)
    b = _series(bb, e0=0)
    prod = a * b
    want = np.convolve(np.array(aa, dtype=complex), np.array(bb, dtype=complex))
    for k in range(prod.order + 1):
        assert abs(prod.coeff(k) - want[k]) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.lists(finite, min_size=4, max_size=8))
def test_sqrt_reciprocal_consistency(coeffs):
    # 1/sqrt(s) computed two ways
    coeffs = [4.0] + coeffs
    s = _series(coeffs, e0=0)
    left = s.sqrt().reciprocal()
    right = s.reciprocal().sqrt()
    hi = min(left.order, right.order)
    assert _max_coeff_diff(left, right, 0, hi) < 1e-9

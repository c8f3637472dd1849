"""Curve construction and invariants of the odd-degree model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondkind import branch_points, curve_from_branch_points, curve_from_coefficients
from secondkind.curves import (
    canonical_branch_order,
    kleinian_polar,
    second_kind_numerators,
    t_coefficients,
)
from secondkind.errors import DegenerateCurve


def test_roots_to_coefficients_roundtrip(standard_curve):
    # lam for y^2 = 4 prod (x - e) with e = -2..2 is (0, 16, 0, -20, 0, 4)
    np.testing.assert_allclose(standard_curve.coeffs, [0.0, 16.0, 0.0, -20.0, 0.0, 4.0], atol=1e-12)


def test_coefficients_to_roots_roundtrip():
    curve = curve_from_coefficients((0.0, 16.0, 0.0, -20.0, 0.0))
    got = sorted(e.real for e in curve.branch_points)
    np.testing.assert_allclose(got, [-2, -1, 0, 1, 2], atol=1e-12)
    assert max(abs(e.imag) for e in curve.branch_points) < 1e-12


def test_y_squared_matches_expanded_polynomial(skew_curve):
    # product form against the coefficient form 4x^5 + sum lam_k x^k
    rng = np.random.default_rng(5)
    xs = rng.normal(size=20) + 1j * rng.normal(size=20)
    poly = skew_curve.coeffs[::-1]
    np.testing.assert_allclose(
        [skew_curve.y_squared(x) for x in xs],
        [np.polyval(poly, x) for x in xs],
        rtol=1e-12,
    )


def test_canonical_order_sorts_by_real_then_imaginary():
    pts = (1.0 + 1j, -1.0, 1.0 - 1j, 0.0)
    assert canonical_branch_order(pts) == (-1.0 + 0j, 0.0 + 0j, 1.0 - 1j, 1.0 + 1j)


def test_degenerate_curve_rejected():
    with pytest.raises(DegenerateCurve):
        curve_from_branch_points((0.0, 0.0, 1.0, 2.0, 3.0))


@pytest.mark.parametrize("build, values", [
    (curve_from_branch_points, [np.nan, -1, 0, 1, 2]),
    (curve_from_branch_points, [complex(-2, np.inf), -1, 0, 1, 2]),
    (curve_from_coefficients, [0, np.nan, 0]),
    (curve_from_coefficients, [0, 16, 0, -np.inf, 0]),
])
def test_non_finite_input_rejected(build, values):
    with pytest.raises(ValueError, match="finite"):
        build(values)


def test_even_branch_point_count_rejected():
    with pytest.raises(ValueError):
        curve_from_branch_points((0.0, 1.0, 2.0, 3.0))


def test_lift_is_on_curve(skew_curve):
    p = skew_curve.lift(0.7 + 0.3j)
    assert abs(p.y**2 - skew_curve.y_squared(p.x)) < 1e-10
    q = skew_curve.lift(0.7 + 0.3j, sheet=-1)
    assert abs(p.y + q.y) < 1e-14


def test_kleinian_polar_symmetric(skew_curve):
    x, z = 0.9 + 0.2j, -0.4 + 0.7j
    assert abs(kleinian_polar(skew_curve, x, z) - kleinian_polar(skew_curve, z, x)) < 1e-12


def test_kleinian_polar_diagonal_is_twice_y_squared(skew_curve):
    # F(x, x) = 2 y(x)^2 pins the normalization of the polar form
    for x in (0.3 - 0.8j, 1.4 + 0.1j):
        assert abs(kleinian_polar(skew_curve, x, x) - 2.0 * skew_curve.y_squared(x)) < 1e-10


def test_second_kind_numerators_standard_curve(standard_curve):
    # q_1 = lam_3 x + 2 lam_4 x^2 + 3 lam_5 x^3, q_2 = lam_5 x^2 on this curve
    q1, q2 = second_kind_numerators(standard_curve)
    np.testing.assert_allclose(q1, [0.0, -20.0, 0.0, 12.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(q2, [0.0, 0.0, 4.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("fixture", ["generic_g1_curve", "skew_curve"])
def test_t_coefficients_give_the_curve_at_infinity(fixture, request):
    # y^2 = 4 x^(2g+1) T(xi) with xi = x^(-1/2); T is even, so either root works
    curve = request.getfixturevalue(fixture)
    n = 2 * curve.genus + 1
    t = t_coefficients(curve)
    assert t[0] == 1.0 and not np.any(t[1::2])
    for x in (0.7 + 0.4j, -1.9 + 0.2j, 3.1 - 2.5j, 40.0):
        rhs = 4.0 * x ** n * np.polynomial.polynomial.polyval(x ** -0.5, t)
        assert abs(curve.y_squared(x) - rhs) < 1e-12 * 4.0 * abs(x) ** n * np.sum(np.abs(t))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_curves_recover_roots(seed):
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
        if min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]) > 0.15:
            break
    direct = curve_from_branch_points(pts)
    rebuilt = curve_from_coefficients([direct.lam_at(k) for k in range(5)])
    got = sorted(branch_points(rebuilt), key=lambda z: (z.real, z.imag))
    want = sorted(map(complex, pts), key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(got, want, atol=1e-9)

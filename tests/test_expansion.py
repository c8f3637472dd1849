"""Connection expansions at infinity and the kappa coefficient match."""

import warnings

import numpy as np
import pytest

from secondkind import (
    bolza_match,
    compute_periods,
    curve_from_branch_points,
    expansion_match,
    kappa_from_expansion,
    sfw_series,
    skw_series,
    theta_table,
)
from secondkind.errors import GammaCharacteristic, IncompatibleSystem
from secondkind.expansion import local_frame, _x_power


def _coeff_map(series, lo, hi):
    return {k: series.coeff(k) for k in range(lo, hi + 1)}


# ------------------------------------------------------- algebraic side

def test_genus1_leading_coefficients_affine_in_kappa(generic_g1_curve):
    # with kappa left symbolic the expansion must be base + kappa * basis,
    # whose first two even coefficients have the closed forms below
    c = generic_g1_curve
    lam1, lam2 = c.lam_at(1), c.lam_at(2)
    base, basis = skw_series(c, kappa=None)
    b = basis[(1, 1)]
    assert abs(base.coeff(0) - (-0.75 * lam2)) < 1e-12 * max(1.0, abs(lam2))
    assert abs(base.coeff(2) - (-1.5 * lam1 + (9.0 / 32.0) * lam2 ** 2)) < 1e-10
    assert abs(b.coeff(0) - 12.0) < 1e-12
    assert abs(b.coeff(2) - (-3.0 * lam2)) < 1e-10 * max(1.0, abs(lam2))


def test_genus1_combined_series_matches_affine_form(lemniscatic_curve,
                                                    lemniscatic_bundle):
    kap = lemniscatic_bundle.kappa
    full = skw_series(lemniscatic_curve, kappa=kap)
    base, basis = skw_series(lemniscatic_curve, kappa=None)
    for k in range(-2, full.order + 1):
        want = base.coeff(k) + kap[0, 0] * basis[(1, 1)].coeff(k)
        assert abs(full.coeff(k) - want) < 1e-12


def test_no_pole_in_connection(standard_curve, standard_bundle):
    s = skw_series(standard_curve, kappa=standard_bundle.kappa)
    assert abs(s.coeff(-2)) < 1e-10
    assert abs(s.coeff(-1)) < 1e-14


def test_local_frame_reproduces_curve(standard_curve):
    fr = local_frame(standard_curve, 10)
    y = fr["y"]
    lhs = y * y
    rhs = None
    for k in range(6):
        lam = standard_curve.lam_at(k)
        if lam == 0:
            continue
        term = lam * _x_power(k)
        rhs = term if rhs is None else rhs + term
    for k in range(-10, 5):
        assert abs(lhs.coeff(k) - rhs.coeff(k)) < 1e-12


# ----------------------------------------------------------- theta side

def test_two_sides_agree_coefficientwise(standard_curve, standard_bundle,
                                         standard_table, standard_matching):
    alg = skw_series(standard_curve, kappa=standard_bundle.kappa)
    th = sfw_series(standard_curve, standard_bundle, standard_table,
                    standard_matching, standard_matching.chars[0])
    for k in range(-2, alg.order + 1):
        assert abs(alg.coeff(k) - th.coeff(k)) < 1e-9, k


def test_theta_side_even(skew_curve, skew_bundle, skew_table, skew_matching):
    th = sfw_series(skew_curve, skew_bundle, skew_table, skew_matching,
                    skew_matching.chars[2])
    for k in range(-1, th.order + 1, 2):
        assert abs(th.coeff(k)) < 1e-9


def test_genus1_theta_constant_term(lemniscatic_curve, lemniscatic_bundle,
                                    lemniscatic_table):
    tt = lemniscatic_table
    odd = tt.odd[0]
    w = lemniscatic_bundle.omega[0, 0]
    lam2 = lemniscatic_curve.lam_at(2)
    want = -0.25 * lam2 - tt.d(odd, 0, 0, 0) / tt.d(odd, 0) / (2.0 * w ** 2)
    th = sfw_series(lemniscatic_curve, lemniscatic_bundle, tt, None, odd)
    assert abs(th.coeff(0) - want) < 1e-12


def test_degenerate_characteristic_is_rejected(standard_curve, standard_bundle,
                                               standard_table, standard_matching):
    with pytest.raises(GammaCharacteristic):
        sfw_series(standard_curve, standard_bundle, standard_table,
                   standard_matching, standard_matching.gamma)


# ------------------------------------------------------------ the match

@pytest.mark.parametrize("fixture_prefix", ["lemniscatic", "generic_g1"])
def test_kappa_recovery_genus1(fixture_prefix, request):
    curve = request.getfixturevalue(f"{fixture_prefix}_curve")
    bundle = request.getfixturevalue(f"{fixture_prefix}_bundle")
    tt = request.getfixturevalue(f"{fixture_prefix}_table")
    kap = kappa_from_expansion(curve, bundle, tt)
    assert np.max(np.abs(kap - bundle.kappa)) < 1e-10


@pytest.mark.parametrize("fixture_prefix", ["standard", "skew"])
def test_kappa_recovery_genus2(fixture_prefix, request):
    curve = request.getfixturevalue(f"{fixture_prefix}_curve")
    bundle = request.getfixturevalue(f"{fixture_prefix}_bundle")
    tt = request.getfixturevalue(f"{fixture_prefix}_table")
    m = request.getfixturevalue(f"{fixture_prefix}_matching")
    kap = kappa_from_expansion(curve, bundle, tt, m)
    assert np.max(np.abs(kap - bundle.kappa)) < 1e-9


def test_match_report_contents(standard_curve, standard_bundle, standard_table,
                               standard_matching):
    out = expansion_match(standard_curve, standard_bundle, standard_table,
                          standard_matching)
    assert out["residual"] < 1e-10
    assert out["condition"] < 1e4
    assert set(out["basis"]) == {(1, 1), (1, 2), (2, 2)}
    assert out["kappa"].shape == (2, 2)
    assert np.max(np.abs(out["kappa"] - out["kappa"].T)) < 1e-12


def test_order_stability(standard_curve, standard_bundle, standard_table,
                         standard_matching):
    k8 = kappa_from_expansion(standard_curve, standard_bundle, standard_table,
                              standard_matching, order=8)
    k12 = kappa_from_expansion(standard_curve, standard_bundle, standard_table,
                               standard_matching, order=12)
    assert np.max(np.abs(k8 - k12)) < 1e-8


def test_inconsistent_inputs_are_refused(standard_curve, standard_bundle,
                                         skew_table, skew_matching):
    with pytest.raises(IncompatibleSystem):
        kappa_from_expansion(standard_curve, standard_bundle, skew_table,
                             skew_matching)


@pytest.mark.parametrize("points", [
    (-2000.0, -1000.0, 0.0, 1000.0, 2000.0),
    (-100.0, -1.0, 0.0, 1.0, 100.0),
])
def test_ill_conditioned_system_is_refused(points):
    # both residuals pass the gate (3e-9 and 1.4e-13) while the solved kappa
    # is wrong by 100%: cond(A) is 4.5e14 and 5.8e15
    curve = curve_from_branch_points(points)
    bundle = compute_periods(curve)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small Im tau is flagged, not refused
        tt = theta_table(bundle)
    m = bolza_match(tt, curve)
    with pytest.raises(IncompatibleSystem, match="condition number"):
        kappa_from_expansion(curve, bundle, tt, m)

"""Theta-constant identities: kappa routes, Thomae, Rosenhain, Jacobi, omega."""

import dataclasses

import numpy as np
import pytest

from secondkind import (
    bolza_match,
    compute_periods,
    curve_from_branch_points,
    jacobi_inversion_check,
    kappa_report,
    omega_a_period,
    omega_algebraic,
    omega_consistency,
    rosenhain_defects,
    rosenhain_gamma_pairs,
    theta_table,
    thomae_defects,
    thomae_genus1_defect,
    weierstrass_eta,
)
from secondkind import identities
from secondkind.errors import StencilDegenerate
from secondkind.identities import kappa_odd_sum_reduced, relative_defect
from secondkind.theta import char_add, half_period


# ---------------------------------------------------------------- kappa

def test_kappa_routes_agree_standard(standard_curve, standard_bundle,
                                     standard_table, standard_matching):
    rep = kappa_report(standard_curve, standard_bundle, standard_table,
                       standard_matching)
    assert len(rep.defect_table) == 17
    assert max(rep.defect_table.values()) < 1e-9


def test_kappa_routes_agree_skew(skew_curve, skew_bundle, skew_table, skew_matching):
    rep = kappa_report(skew_curve, skew_bundle, skew_table, skew_matching)
    assert max(rep.defect_table.values()) < 1e-9


def test_reduced_odd_sum_matches_when_trace_vanishes(standard_curve, standard_bundle,
                                                     standard_table, standard_matching):
    assert abs(standard_curve.lam_at(4)) < 1e-12
    red = kappa_odd_sum_reduced(standard_curve, standard_bundle, standard_table,
                                standard_matching)
    assert np.max(np.abs(red - standard_bundle.kappa)) < 1e-10


# ---------------------------------------------------------------- thomae

def test_thomae_all_applicable_on_zero_trace(standard_curve, standard_bundle,
                                             standard_table, standard_matching):
    d = thomae_defects(standard_curve, standard_bundle, standard_table,
                       standard_matching)
    assert d.labels() == ("thomae_222", "thomae_122", "thomae_112")
    assert all(e.status == "pass" for e in d.entries)
    assert d.max_defect() < 1e-10


def test_thomae_restricted_forms_marked_na(skew_curve, skew_bundle, skew_table,
                                           skew_matching):
    d = thomae_defects(skew_curve, skew_bundle, skew_table, skew_matching)
    assert d["thomae_222"].status == "pass"
    assert d["thomae_122"].status == "n/a"
    assert d["thomae_112"].status == "n/a"


def test_thomae_genus1(lemniscatic_table, generic_g1_table, standard_table):
    for tt in (lemniscatic_table, generic_g1_table):
        e = thomae_genus1_defect(tt)
        assert e.status == "pass"
        assert e.defect < 1e-11
    with pytest.raises(ValueError):
        thomae_genus1_defect(standard_table)


# ---------------------------------------------------------------- rosenhain

def test_rosenhain_classical_all_pairs(standard_bundle, standard_table,
                                       standard_matching):
    d = rosenhain_defects(standard_bundle, standard_table, standard_matching)
    classical = [e for e in d.entries if e.label.startswith("rosenhain_classical_")]
    assert len(classical) == 15
    assert all(e.status == "pass" for e in classical)
    assert max(e.defect for e in classical) < 1e-10


def test_rosenhain_higher_splits_on_degenerate_label(standard_bundle, standard_table,
                                                     standard_matching):
    d = rosenhain_defects(standard_bundle, standard_table, standard_matching)
    higher = [e for e in d.entries if e.label.startswith("rosenhain_higher_")]
    assert [e.label for e in higher] == [f"rosenhain_higher_{i}{j}"
                                         for i in range(1, 6) for j in range(i + 1, 6)]
    assert all(e.status == "pass" for e in higher)
    assert max(e.defect for e in higher) < 1e-10
    # the admissible-pair constant pi^2 det((2 omega)^-1) misses the five
    # pairs involving the degenerate characteristic by exactly a factor 2,
    # which is why rosenhain_defects leaves them out; pin the ratio so a
    # change in behavior is caught
    tt, m = standard_table, standard_matching
    det_w = np.linalg.det(standard_bundle.inv_two_omega)
    for i in range(1, 6):
        di = m.delta(i)
        prod = np.prod([tt.value(char_add(di, char_add(m.gamma, m.delta(k))))
                        for k in range(1, 6) if k != i])
        lhs = np.pi ** 2 * det_w * prod
        rhs = tt.D(di, "222") * tt.D(m.gamma, "2") - tt.D(m.gamma, "222") * tt.D(di, "2")
        assert abs(rhs / lhs) == pytest.approx(2.0, rel=1e-9)


def test_rosenhain_degenerate_pairs_corrected(standard_bundle, standard_table,
                                              standard_matching):
    d = rosenhain_gamma_pairs(standard_bundle, standard_table, standard_matching)
    assert len(d.entries) == 5
    assert all(e.status == "pass" for e in d.entries)
    assert d.max_defect() < 1e-10


def test_riemann_vanishing_at_gamma(standard_table, standard_matching,
                                    skew_table, skew_matching):
    # theta[gamma] vanishes on the Abel image of the curve near infinity; the
    # orders xi and xi^3 of its expansion give the two relations behind the
    # doubled gamma-pair Rosenhain constant
    for tt, m in ((standard_table, standard_matching), (skew_table, skew_matching)):
        t1, t2 = tt.D(m.gamma, "1"), tt.D(m.gamma, "2")
        assert abs(t2) <= 1e-12 * abs(t1)
        assert tt.D(m.gamma, "222") / t1 == pytest.approx(-2.0, rel=1e-10)


def test_rosenhain_skew_curve(skew_bundle, skew_table, skew_matching):
    d = rosenhain_defects(skew_bundle, skew_table, skew_matching)
    assert [e for e in d.entries if e.status != "pass"] == []
    g = rosenhain_gamma_pairs(skew_bundle, skew_table, skew_matching)
    assert all(e.status == "pass" for e in g.entries)


def test_rosenhain_signs_stable_under_perturbation(standard_bundle, standard_table,
                                                   standard_matching):
    pts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) + 0.03 + 0.02j
    curve = curve_from_branch_points(pts)
    b = compute_periods(curve)
    tt = theta_table(b)
    m = bolza_match(tt, curve)
    base = rosenhain_defects(standard_bundle, standard_table, standard_matching)
    pert = rosenhain_defects(b, tt, m)
    for e0, e1 in zip(base.entries, pert.entries):
        assert e0.label == e1.label
        if e0.status == "pass":
            assert e0.sign == e1.sign


# ---------------------------------------------------------------- jacobi

def test_jacobi_inversion_all_pairs(standard_curve, standard_bundle, standard_table,
                                    standard_matching):
    for i in range(1, 6):
        for j in range(i + 1, 6):
            d = jacobi_inversion_check(standard_curve, standard_bundle,
                                       standard_table, standard_matching, i, j)
            assert all(e.status == "pass" for e in d.entries), (i, j)
            assert d.max_defect() < 1e-10


def test_jacobi_inversion_skew(skew_curve, skew_bundle, skew_table, skew_matching):
    d = jacobi_inversion_check(skew_curve, skew_bundle, skew_table,
                               skew_matching, 1, 4)
    assert all(e.status == "pass" for e in d.entries)


# ---------------------------------------------------------------- genus 1

def test_weierstrass_square_curve(lemniscatic_curve, lemniscatic_bundle,
                                  lemniscatic_table):
    d = weierstrass_eta(lemniscatic_curve, lemniscatic_bundle, lemniscatic_table)
    assert d.labels() == ("weierstrass_kappa", "weierstrass_eta_sum",
                          "weierstrass_eta_third")
    assert all(e.status == "pass" for e in d.entries)
    assert d.max_defect() < 1e-11


def test_weierstrass_generic_restricts(generic_g1_curve, generic_g1_bundle,
                                       generic_g1_table):
    d = weierstrass_eta(generic_g1_curve, generic_g1_bundle, generic_g1_table)
    assert d["weierstrass_kappa"].status == "pass"
    assert d["weierstrass_eta_sum"].status == "n/a"
    assert d["weierstrass_eta_third"].status == "n/a"


def test_weierstrass_rejects_genus2(standard_curve, standard_bundle, standard_table):
    with pytest.raises(ValueError):
        weierstrass_eta(standard_curve, standard_bundle, standard_table)


# ---------------------------------------------------------------- omega

def test_omega_algebraic_is_symmetric(standard_curve, standard_bundle):
    q = standard_curve.lift(1.6 + 0.9j, 1)
    r = standard_curve.lift(-1.3 - 0.7j, -1)
    a = omega_algebraic(standard_curve, standard_bundle, q, r)
    b = omega_algebraic(standard_curve, standard_bundle, r, q)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_omega_stencil_agrees(standard_curve, standard_bundle, standard_table,
                              standard_matching):
    q = standard_curve.lift(1.6 + 0.9j, 1)
    r = standard_curve.lift(-1.3 - 0.7j, -1)
    a_vec = half_period(standard_matching.chars[0], standard_bundle.tau)
    d = omega_consistency(standard_curve, standard_bundle, standard_table, q, r, a_vec)
    assert d < 1e-10


def test_omega_stencil_tells_a_wrong_kappa(standard_curve, standard_bundle, standard_table,
                                           standard_matching):
    # kappa enters only the algebraic side: 1e-6 relative moves the defect
    # far past the identity tolerance 1e-8
    q = standard_curve.lift(1.6 + 0.9j, 1)
    r = standard_curve.lift(-1.3 - 0.7j, -1)
    a_vec = half_period(standard_matching.chars[0], standard_bundle.tau)
    wrong = dataclasses.replace(standard_bundle, kappa=standard_bundle.kappa * (1 + 1e-6))
    d = omega_consistency(standard_curve, wrong, standard_table, q, r, a_vec)
    assert d > 1e-8


def test_omega_stencil_costs_one_abel_map(standard_curve, standard_bundle, standard_table,
                                          standard_matching, monkeypatch):
    calls, abel_map = [], identities.abel_map
    monkeypatch.setattr(identities, "abel_map",
                        lambda *args, **kwargs: calls.append(kwargs) or abel_map(*args, **kwargs))
    q = standard_curve.lift(1.6 + 0.9j, 1)
    r = standard_curve.lift(-1.3 - 0.7j, -1)
    a_vec = half_period(standard_matching.chars[0], standard_bundle.tau)
    omega_consistency(standard_curve, standard_bundle, standard_table, q, r, a_vec)
    assert calls == [{}]  # one Abel map, at the bundle's quad_tol


def test_omega_stencil_gates(standard_curve, standard_bundle, standard_table,
                             standard_matching):
    # v divides by y and omega_algebraic by (x_q - x_r)^2: a point 5e-4 from
    # e = 1, and two points 1e-4 apart, are refused at PATH_CLEARANCE = 1e-3
    a_vec = half_period(standard_matching.chars[0], standard_bundle.tau)
    near = standard_curve.lift(1.0005 + 0.0002j, 1)
    far = standard_curve.lift(-1.3 - 0.7j, -1)
    with pytest.raises(StencilDegenerate):
        omega_consistency(standard_curve, standard_bundle, standard_table,
                          near, far, a_vec)
    close1 = standard_curve.lift(1.6 + 0.9j, 1)
    close2 = standard_curve.lift(1.6001 + 0.9j, 1)
    with pytest.raises(StencilDegenerate):
        omega_consistency(standard_curve, standard_bundle, standard_table,
                          close1, close2, a_vec)


def test_omega_a_periods_vanish(standard_curve, standard_bundle):
    r = standard_curve.lift(-1.3 - 0.7j, -1)
    for j in (1, 2):
        val = omega_a_period(standard_curve, standard_bundle, j, r)
        assert abs(val) < 1e-8
    for j in (0, 3):
        with pytest.raises(ValueError):
            omega_a_period(standard_curve, standard_bundle, j, r)


# ---------------------------------------------------------------- misc

def test_relative_defect_scales():
    assert relative_defect(0.0, 0.0) == 0.0
    assert relative_defect(2.0, 1.0) == pytest.approx(0.5)
    assert relative_defect(1e-20, 0.0) == pytest.approx(1e-20, abs=1e-30)

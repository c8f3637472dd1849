"""Acceptance battery: one test per shipped claim, pinned tolerances.

Each criterion is a single test so the -v report carries one pass/fail line
per claim.  Suite curves are seeded and deterministic.  Criterion 5 asserts
the third-derivative pair formula on all 15 odd pairs: the 10 pairs of
admissible characteristics carry the constant pi^2 det((2 omega)^{-1}), the
5 pairs involving the Riemann-constant characteristic gamma carry
2 pi^2 det((2 omega)^{-1}).  The factor 2 is forced by Riemann vanishing:
theta[gamma] vanishes on the Abel image of the curve near infinity, which
gives Theta_2[gamma] = 0 and Theta_222[gamma] = -2 Theta_1[gamma], so the
gamma-pair side is -2 times the gradient determinant of the classical
formula (see rosenhain_gamma_pairs).
"""

import itertools
import time

import numpy as np
import pytest

from diagnostics import abel_consistency
from secondkind import (
    bolza_match,
    compute_periods,
    curve_from_branch_points,
    curve_from_coefficients,
    expansion_match,
    jacobi_inversion_check,
    kappa_report,
    omega_a_period,
    omega_algebraic,
    omega_consistency,
    rosenhain_defects,
    rosenhain_gamma_pairs,
    theta_eval,
    theta_table,
    thomae_defects,
    weierstrass_eta,
)
from secondkind.cli import random_curve
from secondkind.expansion import match_series
from secondkind.series import mul_rows, reciprocal_coeffs, sqrt_coeffs
from secondkind.theta import half_period
from secondkind.errors import OrderUnderflow

SUITE_SEED = 20260819


def _pipeline(curve, quad_tol=1e-12, theta_tol=1e-14):
    bundle = compute_periods(curve, quad_tol=quad_tol)
    tt = theta_table(bundle, tol=theta_tol)
    m = bolza_match(tt, curve) if curve.genus == 2 else None
    return curve, bundle, tt, m


@pytest.fixture(scope="module")
def g2_suite():
    rng = np.random.default_rng(SUITE_SEED)
    curves = [
        ("standard", curve_from_branch_points([-2.0, -1.0, 0.0, 1.0, 2.0])),
        ("random_a", random_curve(rng)),
        ("random_b", random_curve(rng)),
        ("zero_trace", random_curve(rng, zero_trace=True)),
    ]
    return [(name, *_pipeline(c)) for name, c in curves]


@pytest.fixture(scope="module")
def g1_suite():
    rng = np.random.default_rng(SUITE_SEED + 1)
    curves = [
        ("square", curve_from_coefficients([0.0, -4.0, 0.0])),
        ("random_real", random_curve(rng, genus=1, real=True)),
        ("random_complex", random_curve(rng, genus=1)),
    ]
    return [(name, *_pipeline(c)) for name, c in curves]


def test_criterion_01_legendre_suite():
    rng = np.random.default_rng(SUITE_SEED + 2)
    start = time.monotonic()
    for genus, count in ((2, 25), (1, 10)):
        for k in range(count):
            c = random_curve(rng, genus=genus, real=bool(k % 3 == 0 and genus == 1))
            b = compute_periods(c)
            assert b.legendre_defect < 1e-9, (genus, k)
            assert b.tau_asymmetry < 1e-10, (genus, k)
            assert b.im_tau_min_eig > 0.0, (genus, k)
    assert time.monotonic() - start < 300.0


def test_criterion_02_kappa_route_agreement(g2_suite, g1_suite):
    for name, curve, bundle, tt, m in g2_suite:
        rep = kappa_report(curve, bundle, tt, m)
        assert max(rep.defect_table.values()) < 1e-7, name
        ke = expansion_match(curve, bundle, tt, m)["kappa"]
        assert np.max(np.abs(ke - bundle.kappa)) < 1e-7, name
    for name, curve, bundle, tt, m in g1_suite:
        ke = expansion_match(curve, bundle, tt)["kappa"]
        assert np.max(np.abs(ke - bundle.kappa)) < 1e-7, name


def test_criterion_03_elliptic_weierstrass():
    rng = np.random.default_rng(SUITE_SEED + 3)
    for k in range(10):
        c = random_curve(rng, genus=1, real=bool(k % 2), zero_trace=bool(k % 3 == 0))
        curve, bundle, tt, _ = _pipeline(c)
        d = weierstrass_eta(curve, bundle, tt)
        e = d["weierstrass_kappa"]
        assert e.status == "pass" and e.defect < 1e-10, k
        if abs(curve.lam_at(2)) < 1e-12:
            s, t = d["weierstrass_eta_sum"], d["weierstrass_eta_third"]
            assert s.status == "pass" and t.status == "pass", k
            assert abs(s.rhs - t.rhs) < 1e-10 * max(1.0, abs(s.rhs)), k


def test_criterion_04_thomae_identities(g2_suite):
    for name, curve, bundle, tt, m in g2_suite:
        d = thomae_defects(curve, bundle, tt, m)
        assert d["thomae_222"].status == "pass", name
        assert d["thomae_222"].defect < 1e-8, name
        lam4_zero = abs(curve.lam_at(4)) < 1e-10
        for label in ("thomae_122", "thomae_112"):
            if lam4_zero:
                assert d[label].status == "pass" and d[label].defect < 1e-8, (name, label)
            else:
                assert d[label].status == "n/a", (name, label)


def test_criterion_05_rosenhain_all_pairs(g2_suite):
    for name, curve, bundle, tt, m in g2_suite:
        d = rosenhain_defects(bundle, tt, m, tol=1e-8)
        g = rosenhain_gamma_pairs(bundle, tt, m, tol=1e-8)
        # 15 classical and 10 admissible higher entries; the 5 higher entries
        # of the gamma pairs carry the doubled constant of rosenhain_gamma_pairs
        assert len(d.entries) == 25 and len(g.entries) == 5, name
        for e in d.entries + g.entries:
            assert e.status == "pass", (name, e.label, e.defect)
        _, b2, tt2, m2 = _pipeline(curve, quad_tol=1e-13, theta_tol=1e-15)
        refined = (rosenhain_defects(b2, tt2, m2, tol=1e-8).entries
                   + rosenhain_gamma_pairs(b2, tt2, m2, tol=1e-8).entries)
        for e0, e1 in zip(d.entries + g.entries, refined):
            assert e0.label == e1.label, name
            if e0.status == "pass":
                assert e0.sign == e1.sign, (name, e0.label)


def test_criterion_06_jacobi_inversion(g2_suite):
    for name, curve, bundle, tt, m in g2_suite:
        d = jacobi_inversion_check(curve, bundle, tt, m)
        assert d.labels() == tuple(f"jacobi_{kind}_{i}{j}"
                                   for i, j in itertools.combinations(range(1, 6), 2)
                                   for kind in ("p22", "p12", "p11", "p11_polar")), name
        for e in d.entries:
            assert e.status == "pass", (name, e.label)
            assert e.defect < 1e-8, (name, e.label)


def test_criterion_07_bolza_matching(g2_suite):
    for name, curve, bundle, tt, m in g2_suite:
        assert max(m.residuals) < 1e-6, name
        assert m.gamma.is_odd, name
        assert len(set(m.chars) | {m.gamma}) == 6, name
        vals = np.asarray(m.branch_values)
        pts = np.asarray(bundle.canonical_points)
        assert np.max(np.abs(vals - pts)) < 1e-6, name
        assert max(abel_consistency(curve, bundle, m)) < 1e-8, name


def test_criterion_08_bidifferential(g2_suite):
    rng = np.random.default_rng(SUITE_SEED + 4)
    for name, curve, bundle, tt, m in g2_suite:
        a_vec = half_period(m.chars[0], bundle.tau)
        scale = max(abs(e) for e in curve.branch_points)
        pairs = 0
        while pairs < 5:
            xq = scale * (rng.uniform(1.1, 1.9) * np.exp(2j * np.pi * rng.random()))
            xr = scale * (rng.uniform(1.1, 1.9) * np.exp(2j * np.pi * rng.random()))
            if abs(xq - xr) < 0.5 or min(
                min(abs(x - e) for e in curve.branch_points) for x in (xq, xr)
            ) < 0.25:
                continue
            q = curve.lift(xq, 1 if rng.random() < 0.5 else -1)
            r = curve.lift(xr, 1 if rng.random() < 0.5 else -1)
            assert omega_consistency(curve, bundle, tt, q, r, a_vec) < 1e-10, name
            sym = abs(omega_algebraic(curve, bundle, q, r)
                      - omega_algebraic(curve, bundle, r, q))
            assert sym < 1e-12 * max(1.0, abs(omega_algebraic(curve, bundle, q, r))), name
            pairs += 1
        r = curve.lift(scale * 1.7 * np.exp(0.37j), -1)
        for j, val in enumerate(omega_a_period(curve, bundle, r), 1):
            assert abs(val) < 1e-8, (name, j)


def _brute_theta(z, tau, ch, radius=12):
    g = len(z)
    eps = np.asarray(ch.top, float) / 2.0
    epsp = np.asarray(ch.bottom, float) / 2.0
    total = 0.0 + 0.0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        p = np.asarray(n, float) + eps
        total += np.exp(1j * np.pi * p @ tau @ p + 2j * np.pi * p @ (np.asarray(z) + epsp))
    return total


def test_criterion_09_oracles(g2_suite):
    _, _, bundle, tt, _ = g2_suite[0]
    tau = bundle.tau
    # values against a wide literal lattice sum
    z = np.array([0.21 - 0.07j, -0.13 + 0.11j])
    for ch in tt.characteristics:
        ref = _brute_theta(z, tau, ch)
        assert abs(theta_eval(z, tau, ch, tol=1e-15) - ref) < 1e-14 * max(1.0, abs(ref))
        ref0 = _brute_theta(np.zeros(2), tau, ch)
        assert abs(tt.values[ch.code] - ref0) < 1e-14 * max(1.0, abs(ref0))
    # first derivatives against high-order central differences
    h, w = 0.01, np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    for ch in tt.odd[:3]:
        ent = tt.entry(ch)
        scale = max(1.0, np.max(np.abs(ent.grad)))
        for axis in range(2):
            e = np.eye(2)[axis]
            fd = sum(
                wk * theta_eval((k - 3) * h * e, tau, ch, tol=1e-15)
                for k, wk in enumerate(w)
            ) / h
            assert abs(ent.grad[axis] - fd) < 1e-8 * scale
    # the series kernels' round trips: a = xi^-2 A with A and b power series;
    # (a b)/b is known on xi^-2..xi^8 and sqrt(a a) on xi^-2..xi^10
    a = np.array([1.0, 0.5j, -0.25, 0.125, 1.0, -2.0,
                  0.75j, 0.5, -1.5, 2.25, -0.625, 0.375j, 1.0])
    b = np.array([2.0, -1.0, 0.5j, 0.25, -0.125, 1.5,
                  -0.75, 0.375, 2.0j, -1.0, 0.5])
    prod_div = mul_rows(mul_rows(a[:11], b), reciprocal_coeffs(b))
    sq = sqrt_coeffs(mul_rows(a, a))
    assert np.max(np.abs(prod_div - a[:11])) < 1e-12
    assert np.max(np.abs(sq - a)) < 1e-12
    # a coefficient above the order of an expand row is unknown, not zero
    base = match_series(expansion_match(*g2_suite[0][1:]))["base"]
    with pytest.raises(OrderUnderflow):
        base.coeff(base.order + 1)


def test_criterion_10_expansion_method(g2_suite, g1_suite):
    # genus 1: the two leading coefficients of the algebraic connection,
    # affine in kappa, against their closed forms
    for name, curve, bundle, tt, m in g1_suite:
        lam1, lam2 = curve.lam_at(1), curve.lam_at(2)
        rows = match_series(expansion_match(curve, bundle, tt))
        base, bb = rows["base"], rows["basis"][(1, 1)]
        scale = max(1.0, abs(lam1), abs(lam2) ** 2)
        assert abs(base.coeff(0) - (-0.75 * lam2)) < 1e-12 * scale, name
        assert abs(base.coeff(2) - (-1.5 * lam1 + (9.0 / 32.0) * lam2 ** 2)) < 1e-12 * scale, name
        assert abs(bb.coeff(0) - 12.0) < 1e-12, name
        assert abs(bb.coeff(2) - (-3.0 * lam2)) < 1e-12 * scale, name
    # genus 2: the least-squares match of the two expansions must close
    for name, curve, bundle, tt, m in g2_suite:
        out = expansion_match(curve, bundle, tt, m)
        assert out["residual"] < 1e-6, name

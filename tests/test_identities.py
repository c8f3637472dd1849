"""Theta-constant identities: kappa routes, Thomae, Rosenhain, Jacobi, omega."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from diagnostics import char_add
from kappa_reference import kappa_routes
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
from secondkind.cli import random_curve
from secondkind.curves import branch_scale, kleinian_polar
from secondkind.errors import StencilDegenerate
from secondkind.identities import IdentityEntry, kappa_odd_sum_reduced, relative_defect
from secondkind.theta import half_period


def _D(tt, ch, key):
    """Directional derivative of one characteristic: key "2" is Theta_2, "122" Theta_122."""
    axes = tuple(int(a) - 1 for a in key)
    return complex(tt.directional[len(axes) - 1][(ch.code, *axes)])


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


def _kappa_curves() -> dict:
    """The standard and skew curves and 30 ``random_curve`` draws, half of
    them with zero trace."""
    rng = np.random.default_rng(31)
    curves = {"standard": curve_from_branch_points([-2.0, -1.0, 0.0, 1.0, 2.0]),
              "skew": curve_from_branch_points(
                  [-1.7 + 0.4j, -0.6 - 0.9j, 0.2 + 0.8j, 1.1 - 0.3j, 1.8 + 0.6j])}
    for k in range(30):
        curves[f"random_{k}"] = random_curve(rng, zero_trace=k % 2 == 1)
    return curves


KAPPA_CURVES = _kappa_curves()


@functools.cache
def _kappa_case(name):
    curve = KAPPA_CURVES[name]
    bundle = compute_periods(curve)
    tt = theta_table(bundle)
    m = bolza_match(tt, curve)
    return curve, bundle, tt, m, kappa_report(curve, bundle, tt, m)


def _report_routes(rep, m) -> np.ndarray:
    """The report's matrices in the order of ``kappa_reference.kappa_routes``."""
    return np.array([rep.kappa_direct, *rep.kappa_by_even_pair.values(), rep.kappa_even_sum,
                     *(rep.kappa_by_odd[m.delta(i)] for i in range(1, 6)), rep.kappa_odd_sum])


@pytest.mark.parametrize("name", list(KAPPA_CURVES))
def test_kappa_report_equals_the_route_reference(name):
    """Every route equals its per-route formula byte for byte, every defect
    is the max-norm deviation of that formula from the direct kappa, and
    the matrices are views into one read-only stack."""
    curve, bundle, tt, m, rep = _kappa_case(name)
    want = kappa_routes(curve, bundle, tt, m)
    assert _report_routes(rep, m).tobytes() == want.tobytes()
    assert list(rep.kappa_by_even_pair) == list(itertools.combinations(range(1, 6), 2))
    assert list(rep.kappa_by_odd) == list(m.chars)
    assert list(rep.defect_table.values()) == np.abs(want[1:] - bundle.kappa).max(axis=(1, 2)).tolist()
    stack = rep.kappa_direct.base
    assert stack.shape == (18, 2, 2) and not stack.flags.writeable
    assert all(v.base is stack and not v.flags.writeable
               for v in (rep.kappa_even_sum, rep.kappa_odd_sum, *rep.kappa_by_even_pair.values(),
                         *rep.kappa_by_odd.values()))


@pytest.mark.parametrize("name", list(KAPPA_CURVES))
def test_kappa_routes_are_symmetric(name):
    """Each route is symmetric to 1e-12 of max(1, max |route|)."""
    _, _, _, m, rep = _kappa_case(name)
    routes = _report_routes(rep, m)
    asym = np.abs(routes - routes.mT).max(axis=(1, 2))
    assert np.all(asym <= 1e-12 * np.maximum(1.0, np.abs(routes).max(axis=(1, 2)))), asym


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
        e = thomae_genus1_defect(tt)["thomae_genus1"]
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
        prod = np.prod([tt.entry(char_add(di, char_add(m.gamma, m.delta(k)))).value
                        for k in range(1, 6) if k != i])
        lhs = np.pi ** 2 * det_w * prod
        rhs = _D(tt, di, "222") * _D(tt, m.gamma, "2") - _D(tt, m.gamma, "222") * _D(tt, di, "2")
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
        t1, t2 = _D(tt, m.gamma, "1"), _D(tt, m.gamma, "2")
        assert abs(t2) <= 1e-12 * abs(t1)
        assert _D(tt, m.gamma, "222") / t1 == pytest.approx(-2.0, rel=1e-10)


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

def _jacobi_pair(entries, i, j):
    """The four entries of the branch pair {i, j} (1-based, i < j)."""
    row = list(itertools.combinations(range(1, 6), 2)).index((i, j))
    return entries[4 * row: 4 * row + 4]


def test_jacobi_inversion_all_pairs(standard_curve, standard_bundle, standard_table,
                                    standard_matching):
    d = jacobi_inversion_check(standard_curve, standard_bundle, standard_table, standard_matching)
    assert len(d.entries) == 40
    for i, j in itertools.combinations(range(1, 6), 2):
        pair = _jacobi_pair(d.entries, i, j)
        assert [e.label for e in pair] == [f"jacobi_{name}_{i}{j}"
                                           for name in ("p22", "p12", "p11", "p11_polar")]
        assert all(e.status == "pass" for e in pair), (i, j)
        assert max(e.defect for e in pair) < 1e-10


def test_jacobi_inversion_skew(skew_curve, skew_bundle, skew_table, skew_matching):
    d = jacobi_inversion_check(skew_curve, skew_bundle, skew_table, skew_matching)
    assert all(e.status == "pass" for e in _jacobi_pair(d.entries, 1, 4))


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
    val = omega_a_period(standard_curve, standard_bundle, r)
    assert val.shape == (2,)
    assert np.max(np.abs(val)) < 1e-8


# ------------------------------------------- per-characteristic reference
#
# The identity families read the theta table by gathers on the code index
# of the matching.  The reference below is their formulation one
# characteristic at a time, with char_add chains and one entry per call.

def _scalar_relative_defect(lhs: complex, rhs: complex) -> float:
    big = max(abs(lhs), abs(rhs))
    d = abs(lhs - rhs)
    return d if big < identities.ABSOLUTE_FLOOR else d / big


def _ref_entry(label, lhs, rhs, tol, sign=None, applicable=True):
    lhs, rhs = complex(lhs), complex(rhs)
    d = _scalar_relative_defect(lhs, rhs)
    status = "n/a" if not applicable else ("pass" if d < tol else "fail")
    return IdentityEntry(label, lhs, rhs, d, sign, status)


def _ref_signed_entry(label, lhs, rhs, tol):
    sign = 1 if abs(lhs - rhs) <= abs(-lhs - rhs) else -1
    return _ref_entry(label, sign * lhs, rhs, tol, sign=sign)


def _ref_branch_pair(bundle, i, j):
    e = bundle.canonical_points
    ei, ej = e[i - 1], e[j - 1]
    k, mm, n = (e[t - 1] for t in range(1, 6) if t not in (i, j))
    return ei, ej, ei * ej * (k + mm + n) + k * mm * n


def _ref_even_product(tt, labels, i, j):
    evens = [char_add(labels[i], char_add(labels[j], labels[k]))
             for k in range(1, 7) if k not in (i, j)]
    assert len(set(evens)) == 4 and all(eps.parity == 0 for eps in evens)
    prod = 1.0 + 0.0j
    for eps in evens:
        prod *= tt.entry(eps).value
    return prod


def _ref_rosenhain(bundle, tt, m, tol):
    labels = {**{i: m.delta(i) for i in range(1, 6)}, 6: m.gamma}
    det_w = np.linalg.det(bundle.inv_two_omega)
    entries, gamma = [], []
    for i, j in itertools.combinations(range(1, 7), 2):
        di, dj = labels[i], labels[j]
        gi, gj = tt.entry(di).grad, tt.entry(dj).grad
        prod = _ref_even_product(tt, labels, i, j)
        entries.append(_ref_signed_entry(f"rosenhain_classical_{i}{j}", np.pi ** 2 * prod,
                                         gi[0] * gj[1] - gi[1] * gj[0], tol))
        if j < 6:
            entries.append(_ref_signed_entry(
                f"rosenhain_higher_{i}{j}", np.pi ** 2 * det_w * prod,
                _D(tt, di, "222") * _D(tt, dj, "2") - _D(tt, dj, "222") * _D(tt, di, "2"), tol))
        else:
            gamma.append(_ref_signed_entry(f"rosenhain_gamma_{i}6",
                                           2.0 * np.pi ** 2 * det_w * prod,
                                           _D(tt, m.gamma, "222") * _D(tt, di, "2"), tol))
    return entries, gamma


def _ref_odd_sums(tt, m):
    return [sum(_D(tt, m.delta(i), key) / _D(tt, m.delta(i), "2") for i in range(1, 6))
            for key in ("112", "122", "222")]


def _ref_even_sum(tt):
    return np.array([[sum(_D(tt, eps, f"{a}{b}") / tt.entry(eps).value for eps in tt.even)
                      for b in (1, 2)] for a in (1, 2)])


def _ref_kappa(curve, bundle, tt, m):
    """kappa by every route of kappa_report, keyed by its defect-table name."""
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    w = bundle.inv_two_omega
    routes = {}
    for i, j in itertools.combinations(range(1, 6), 2):
        ei, ej, sym11 = _ref_branch_pair(bundle, i, j)
        ent = tt.entry(char_add(m.delta(i), char_add(m.delta(j), m.gamma)))
        sym = np.array([[sym11, -ei * ej], [-ei * ej, ei + ej]])
        routes[f"even_pair_{i}{j}"] = -0.5 * sym - 0.5 * (w.T @ (ent.hess / ent.value) @ w)
    routes["even_sum"] = (np.array([[4 * lam2, lam3], [lam3, 4 * lam4]]) / 80.0
                          - _ref_even_sum(tt) / 20.0)
    for i in range(1, 6):
        ch, ei = m.delta(i), bundle.canonical_points[i - 1]
        r112, r122, r222 = (_D(tt, ch, key) / _D(tt, ch, "2") for key in ("112", "122", "222"))
        k22 = lam4 / 24.0 - ei / 6.0 - r222 / 6.0
        k12 = -lam4 * ei / 24.0 - ei ** 2 / 3.0 - ei * r222 / 12.0 - r122 / 4.0
        k11 = (-(lam3 / 8.0) * ei - (5.0 / 24.0) * lam4 * ei ** 2 - (7.0 / 6.0) * ei ** 3
               - 0.5 * r112 - 0.5 * ei * r122 - (ei ** 2 / 6.0) * r222)
        routes[f"odd_{i}"] = np.array([[k11, k12], [k12, k22]])
    s112, s122, s222 = _ref_odd_sums(tt, m)
    k22 = lam4 / 20.0 - s222 / 30.0
    k12 = lam3 / 40.0 - lam4 ** 2 / 800.0 - s122 / 20.0 + lam4 * s222 / 1200.0
    k11 = ((3.0 / 40.0) * lam2 - lam4 * lam3 / 400.0 + lam4 ** 3 / 8000.0 - s112 / 10.0
           + lam4 * s122 / 200.0 - lam4 ** 2 * s222 / 12000.0)
    routes["odd_sum"] = np.array([[k11, k12], [k12, k22]])
    return routes


def _ref_thomae(curve, bundle, tt, m, tol):
    """The three Thomae entries, and the size of the sums that they difference."""
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    zero = abs(lam4) < 1e-10 * branch_scale(bundle.canonical_points)
    s112, s122, s222 = _ref_odd_sums(tt, m)
    (e11, e12), (_, e22) = _ref_even_sum(tt)
    scale = 4.0 * max(abs(v) for v in (s112, s122, s222, e11, e12, e22))
    return scale, [_ref_entry("thomae_222", s222, 1.5 * e22, tol),
            _ref_entry("thomae_122", 4.0 * s122 - 4.0 * e12, lam3, tol, applicable=zero),
            _ref_entry("thomae_112", 4.0 * s112 - 2.0 * e11, lam2, tol, applicable=zero)]


def _ref_jacobi(curve, bundle, tt, m, i, j, tol):
    """The four Jacobi entries of the pair, and the size of the terms of p_ab."""
    ei, ej, sym11 = _ref_branch_pair(bundle, i, j)
    eps = char_add(m.delta(i), char_add(m.delta(j), m.gamma))
    th, kap = tt.entry(eps).value, bundle.kappa
    terms = [(-2.0 * kap[a - 1, b - 1], _D(tt, eps, f"{a}{b}") / th)
             for a, b in ((2, 2), (1, 2), (1, 1))]
    p22, p12, p11 = (k - r for k, r in terms)
    polar11 = kleinian_polar(curve, ei, ej) / (4.0 * (ei - ej) ** 2)
    return max(abs(t) for pair in terms for t in pair), [_ref_entry(f"jacobi_p22_{i}{j}", p22, ei + ej, tol),
            _ref_entry(f"jacobi_p12_{i}{j}", p12, -ei * ej, tol),
            _ref_entry(f"jacobi_p11_{i}{j}", p11, sym11, tol),
            _ref_entry(f"jacobi_p11_polar_{i}{j}", p11, polar11, tol)]


def _assert_same_entries(got, want, scale=0.0):
    """Same labels, order, signs and statuses; sides within 1e-13 relative to
    the larger side or to scale, whichever is larger (scale serves sides
    that are a cancelling difference)."""
    assert [e.label for e in got] == [e.label for e in want]
    for e, r in zip(got, want):
        assert (e.sign, e.status) == (r.sign, r.status), e.label
        for a, b in ((e.lhs, r.lhs), (e.rhs, r.rhs)):
            assert abs(a - b) <= 1e-13 * max(abs(a), abs(b), scale), (e.label, a, b)
        assert abs(e.defect - r.defect) <= 1e-13, e.label


def _reference_curves():
    yield "standard", curve_from_branch_points([-2.0, -1.0, 0.0, 1.0, 2.0])
    yield "skew", curve_from_branch_points(
        [-1.7 + 0.4j, -0.6 - 0.9j, 0.2 + 0.8j, 1.1 - 0.3j, 1.8 + 0.6j])
    yield "lam4_zero", random_curve(np.random.default_rng(7), zero_trace=True)
    for k in range(24):
        yield f"random_{k}", random_curve(np.random.default_rng(k))


@pytest.mark.parametrize("name, curve", list(_reference_curves()))
def test_gathers_equal_the_per_characteristic_reference(name, curve):
    bundle = compute_periods(curve)
    tt = theta_table(bundle)
    m = bolza_match(tt, curve)
    tol = identities.DEFAULT_IDENTITY_TOL
    ref_rosenhain, ref_gamma = _ref_rosenhain(bundle, tt, m, tol)
    _assert_same_entries(rosenhain_defects(bundle, tt, m, tol).entries, ref_rosenhain)
    _assert_same_entries(rosenhain_gamma_pairs(bundle, tt, m, tol).entries, ref_gamma)
    scale, ref_thomae = _ref_thomae(curve, bundle, tt, m, tol)
    _assert_same_entries(thomae_defects(curve, bundle, tt, m, tol).entries, ref_thomae, scale)
    jacobi = jacobi_inversion_check(curve, bundle, tt, m, tol).entries
    assert len(jacobi) == 40
    for i, j in itertools.combinations(range(1, 6), 2):
        scale, ref_jacobi = _ref_jacobi(curve, bundle, tt, m, i, j, tol)
        _assert_same_entries(_jacobi_pair(jacobi, i, j), ref_jacobi, scale)
    rep = kappa_report(curve, bundle, tt, m)
    routes = _ref_kappa(curve, bundle, tt, m)
    got = {**{f"even_pair_{i}{j}": v for (i, j), v in rep.kappa_by_even_pair.items()},
           "even_sum": rep.kappa_even_sum,
           **{f"odd_{i}": rep.kappa_by_odd[m.delta(i)] for i in range(1, 6)},
           "odd_sum": rep.kappa_odd_sum}
    assert list(rep.defect_table) == list(routes)
    assert list(rep.kappa_by_odd) == list(m.chars)
    scale = np.max(np.abs(bundle.kappa))
    for route, want in routes.items():
        assert np.max(np.abs(got[route] - want)) <= 1e-13 * scale, route
        assert abs(rep.defect_table[route] - np.max(np.abs(want - bundle.kappa))) <= 1e-13 * scale


# ---------------------------------------------------------------- misc

def test_relative_defect_scales():
    assert relative_defect(0.0, 0.0) == 0.0
    assert relative_defect(2.0, 1.0) == pytest.approx(0.5)
    assert relative_defect(1e-20, 0.0) == pytest.approx(1e-20, abs=1e-30)


def test_relative_defect_equals_the_scalar_formula_bit_for_bit():
    # moduli from 1e-30 to 1e30, so both sides, one side or neither is below
    # ABSOLUTE_FLOOR; zero sides, real sides, and sides that nearly agree
    rng = np.random.default_rng(20240)
    n = 30000

    def sides():
        z = 10.0 ** rng.uniform(-30, 30, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        z[rng.uniform(size=n) < 0.05] = 0.0
        real = rng.uniform(size=n) < 0.1
        z[real] = z[real].real
        return z

    lhs, rhs = sides(), sides()
    near = rng.uniform(size=n) < 0.3
    rhs[near] = lhs[near] * (1.0 + 1e-12 * rng.standard_normal(near.sum()))
    want = [_scalar_relative_defect(a, b) for a, b in zip(lhs.tolist(), rhs.tolist())]
    assert relative_defect(lhs, rhs).tolist() == want


def test_max_defect_keeps_a_nan_in_either_order():
    nan = float("nan")
    for lhs in ([2.0, nan], [nan, 2.0]):
        d = identities.identity_entries(("a", "b"), lhs, [1.0, 1.0], 1e-8)
        assert np.isnan(d.max_defect()), lhs
    # a NaN of an entry that does not apply is not a defect
    d = identities.identity_entries(("a", "b"), [2.0, nan], [1.0, 1.0], 1e-8,
                                    applicable=[True, False])
    assert d.max_defect() == 0.5

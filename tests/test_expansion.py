"""Connection expansions at infinity and the kappa coefficient match."""

import warnings

import mpmath
import numpy as np
import pytest

from secondkind import (
    bolza_match,
    compute_periods,
    curve_from_branch_points,
    expansion_match,
    theta_table,
)
from secondkind import expansion
from secondkind.curves import second_kind_numerators, t_coefficients
from secondkind.errors import GammaCharacteristic, IncompatibleSystem
from secondkind.expansion import _reciprocal_h, _sfw_rows, local_frame, match_series
from secondkind.series import TruncatedSeries, mul_rows, reciprocal_coeffs, sqrt_coeffs
from series_reference import Series, schwarzian


def _connection(ex, kappa):
    """The algebraic side at ``kappa`` from the rows of ``expansion_match``:
    base + sum_ab kappa_ab basis_ab, as a series from xi^-2 to the order."""
    row = ex["base"]
    for (a, b), c in ex["basis"].items():
        row = row + complex(kappa[a - 1, b - 1]) * c
    return TruncatedSeries.make(-2, row, ex["order"])


# ------------------------------------------------------- algebraic side

def test_genus1_leading_coefficients_affine_in_kappa(generic_g1_curve, generic_g1_bundle,
                                                    generic_g1_table):
    # with kappa left symbolic the expansion must be base + kappa * basis,
    # whose first two even coefficients have the closed forms below
    c = generic_g1_curve
    lam1, lam2 = c.lam_at(1), c.lam_at(2)
    rows = match_series(expansion_match(c, generic_g1_bundle, generic_g1_table))
    base, b = rows["base"], rows["basis"][(1, 1)]
    assert abs(base.coeff(0) - (-0.75 * lam2)) < 1e-12 * max(1.0, abs(lam2))
    assert abs(base.coeff(2) - (-1.5 * lam1 + (9.0 / 32.0) * lam2 ** 2)) < 1e-10
    assert abs(b.coeff(0) - 12.0) < 1e-12
    assert abs(b.coeff(2) - (-3.0 * lam2)) < 1e-10 * max(1.0, abs(lam2))


def test_genus1_combined_series_matches_affine_form(lemniscatic_curve, lemniscatic_bundle,
                                                    lemniscatic_table):
    # the affine form base + kappa * basis at the periods' kappa is the theta side
    ex = expansion_match(lemniscatic_curve, lemniscatic_bundle, lemniscatic_table)
    full = _connection(ex, lemniscatic_bundle.kappa)
    (th,) = match_series(ex)["theta_side"].values()
    for k in range(-2, full.order + 1):
        assert abs(full.coeff(k) - th.coeff(k)) < 1e-12, k


def test_no_pole_in_connection(standard_curve, standard_bundle, standard_table,
                               standard_matching):
    ex = expansion_match(standard_curve, standard_bundle, standard_table, standard_matching)
    s = _connection(ex, standard_bundle.kappa)
    assert abs(s.coeff(-2)) < 1e-10
    assert abs(s.coeff(-1)) < 1e-14


def test_local_frame_reproduces_curve(standard_curve):
    # y = 2 xi^-5 S, so y^2 = 4 xi^-10 S^2 must equal sum_k lam_k xi^-2k
    # on the whole window of the frame
    fr = local_frame(standard_curve, 10)
    y2 = 4.0 * mul_rows(fr["S"], fr["S"])
    assert len(y2) == 13
    for j, c in enumerate(y2):
        k = 5 - j // 2
        want = standard_curve.lam_at(k) if j % 2 == 0 and k >= 0 else 0.0
        assert abs(c - want) < 1e-12, j


# ----------------------------------------------------------- theta side

def test_two_sides_agree_coefficientwise(standard_curve, standard_bundle,
                                         standard_table, standard_matching):
    ex = expansion_match(standard_curve, standard_bundle, standard_table, standard_matching)
    alg = _connection(ex, standard_bundle.kappa)
    th = match_series(ex)["theta_side"][standard_matching.chars[0]]
    for k in range(-2, alg.order + 1):
        assert abs(alg.coeff(k) - th.coeff(k)) < 1e-9, k


def test_theta_side_even(skew_curve, skew_bundle, skew_table, skew_matching):
    ex = expansion_match(skew_curve, skew_bundle, skew_table, skew_matching)
    th = match_series(ex)["theta_side"][skew_matching.chars[2]]
    for k in range(-1, th.order + 1, 2):
        assert abs(th.coeff(k)) < 1e-9


def test_genus1_theta_constant_term(lemniscatic_curve, lemniscatic_bundle,
                                    lemniscatic_table):
    tt = lemniscatic_table
    odd = tt.odd[0]
    w = lemniscatic_bundle.omega[0, 0]
    lam2 = lemniscatic_curve.lam_at(2)
    want = -0.25 * lam2 - tt.thirds[odd.code, 0, 0, 0] / tt.grads[odd.code, 0] / (2.0 * w ** 2)
    th = match_series(expansion_match(lemniscatic_curve, lemniscatic_bundle, tt))["theta_side"][odd]
    assert abs(th.coeff(0) - want) < 1e-12


def test_degenerate_characteristic_is_rejected(request):
    # gamma fails the theta side's admissibility gate: Theta_2[gamma] = 0
    for prefix in ("standard", "skew"):
        curve = request.getfixturevalue(f"{prefix}_curve")
        tt = request.getfixturevalue(f"{prefix}_table")
        m = request.getfixturevalue(f"{prefix}_matching")
        with pytest.raises(GammaCharacteristic):
            _sfw_rows(local_frame(curve, 12), tt, [m.gamma])


# ------------------------------------------------------------ the match

@pytest.mark.parametrize("fixture_prefix", ["lemniscatic", "generic_g1"])
def test_kappa_recovery_genus1(fixture_prefix, request):
    curve = request.getfixturevalue(f"{fixture_prefix}_curve")
    bundle = request.getfixturevalue(f"{fixture_prefix}_bundle")
    tt = request.getfixturevalue(f"{fixture_prefix}_table")
    out = expansion_match(curve, bundle, tt)
    assert np.max(np.abs(out["kappa"] - bundle.kappa)) < 1e-10
    assert out["rank"] == 1


@pytest.mark.parametrize("fixture_prefix", ["standard", "skew"])
def test_kappa_recovery_genus2(fixture_prefix, request):
    curve = request.getfixturevalue(f"{fixture_prefix}_curve")
    bundle = request.getfixturevalue(f"{fixture_prefix}_bundle")
    tt = request.getfixturevalue(f"{fixture_prefix}_table")
    m = request.getfixturevalue(f"{fixture_prefix}_matching")
    kap = expansion_match(curve, bundle, tt, m)["kappa"]
    assert np.max(np.abs(kap - bundle.kappa)) < 1e-9


def test_match_report_contents(standard_curve, standard_bundle, standard_table,
                               standard_matching):
    out = expansion_match(standard_curve, standard_bundle, standard_table,
                          standard_matching)
    assert out["residual"] < 1e-10
    assert out["condition"] < 1e4
    assert out["rank"] == 3
    assert set(out["basis"]) == {(1, 1), (1, 2), (2, 2)}
    assert out["kappa"].shape == (2, 2)
    assert np.max(np.abs(out["kappa"] - out["kappa"].T)) < 1e-12


def test_order_stability(standard_curve, standard_bundle, standard_table,
                         standard_matching):
    args = (standard_curve, standard_bundle, standard_table, standard_matching)
    k8 = expansion_match(*args, order=8)["kappa"]
    k12 = expansion_match(*args, order=12)["kappa"]
    assert np.max(np.abs(k8 - k12)) < 1e-8


def test_inconsistent_inputs_are_refused(standard_curve, standard_bundle,
                                         skew_table, skew_matching):
    with pytest.raises(IncompatibleSystem):
        expansion_match(standard_curve, standard_bundle, skew_table, skew_matching)


@pytest.mark.parametrize("points", [
    (-2000.0, -1000.0, 0.0, 1000.0, 2000.0),
    (-100.0, -1.0, 0.0, 1.0, 100.0),
])
def test_ill_conditioned_system_is_refused(points):
    # both residuals pass the gate (3e-9 and 1.4e-13) while the solved kappa
    # is wrong by 100%: cond(A) is 4.5e14 and 5.8e15; the gates live in
    # expansion_match, so no caller sees this kappa
    curve = curve_from_branch_points(points)
    bundle = compute_periods(curve)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small Im tau is flagged, not refused
        tt = theta_table(bundle)
    m = bolza_match(tt, curve)
    with pytest.raises(IncompatibleSystem, match="condition number"):
        expansion_match(curve, bundle, tt, m)


def test_wide_curve_at_high_order_is_refused_by_its_condition():
    # the refusal must stay the condition number's (8e19 here), not a residual
    # that a lossy series division lets grow past the gate
    curve = curve_from_branch_points((-100.0, -1.0, 0.0, 1.0, 100.0))
    bundle = compute_periods(curve)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small Im tau is flagged, not refused
        tt = theta_table(bundle)
    with pytest.raises(IncompatibleSystem, match="condition number"):
        expansion_match(curve, bundle, tt, bolza_match(tt, curve), order=80)


def test_high_order_residual_stays_at_roundoff(standard_curve, standard_bundle,
                                               standard_table, standard_matching):
    # 6.6e-14 at order 40; an LU solve gave 1.0e-11 for s = 1/S, 1.3e-12 for -S/P
    out = expansion_match(standard_curve, standard_bundle, standard_table,
                          standard_matching, order=40)
    assert out["residual"] <= 2e-13


def test_order_below_full_rank_is_refused(standard_curve, standard_bundle, standard_table,
                                          standard_matching):
    args = (standard_curve, standard_bundle, standard_table, standard_matching)
    with pytest.raises(IncompatibleSystem, match="rank"):
        expansion_match(*args, order=3)
    with pytest.raises(ValueError):
        expansion_match(*args, order=-1)
    assert expansion_match(*args, order=4)["rank"] == 3


def test_genus2_without_matching_is_refused(standard_curve, standard_bundle, standard_table):
    # the theta side of genus 2 runs over the matching's characteristics
    with pytest.raises(ValueError, match="bolza_match"):
        expansion_match(standard_curve, standard_bundle, standard_table)


# ------------------------------- the one-series kernels, against 40 digits
# The triangular recurrences, and 1/H = -S/P, against the same recurrences
# run in mpmath at 40 digits, on rows whose coefficients grow like 1.5^k.
# Dividing series by LU with partial pivoting fails the bound: on such rows
# np.linalg.solve was 3e-11 to 1e-8 off at n = 43.

def _growing_row(rng, n):
    c = 1.5 ** np.arange(n) * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    c[0] = 1.0 + 0.5j
    return c


def _mp_reciprocal(c):
    d = [1 / c[0]]
    for k in range(1, len(c)):
        d.append(-mpmath.fsum(c[i] * d[k - i] for i in range(1, k + 1)) / c[0])
    return d


def _mp_sqrt(c):
    s = [mpmath.sqrt(c[0])]
    for k in range(1, len(c)):
        s.append((c[k] - mpmath.fsum(s[i] * s[k - i] for i in range(1, k))) / (2 * s[0]))
    return s


def _relative_error(row, ref):
    ref = np.array([complex(v) for v in ref])
    return float(np.max(np.abs(row - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [15, 43])
def test_one_series_kernels_match_40_digits(n):
    rng = np.random.default_rng(n)
    with mpmath.workdps(40):
        for _ in range(3):
            c = _growing_row(rng, n)
            exact = [mpmath.mpc(v) for v in c]
            assert _relative_error(reciprocal_coeffs(c), _mp_reciprocal(exact)) <= 1e-13
            assert _relative_error(sqrt_coeffs(c), _mp_sqrt(exact)) <= 1e-13


@pytest.mark.parametrize("genus, n", [(1, 15), (2, 15), (2, 43)])
def test_closed_form_reciprocal_h_matches_40_digits(genus, n):
    # -S/P against the recurrence for 1/H, with H = -P s and s = 1/S
    rng = np.random.default_rng(genus * n)
    big_s = _growing_row(rng, n)
    grad = rng.uniform(-1.5, 1.5, (3, genus)) + 1j * rng.uniform(-1.5, 1.5, (3, genus))
    grad[:, -1] = 1.0 + 0.3j
    inv_h = _reciprocal_h(grad, big_s)
    with mpmath.workdps(40):
        s = _mp_reciprocal([mpmath.mpc(v) for v in big_s])
        for row, theta in zip(inv_h, grad):
            p = [mpmath.mpc(0)] * n
            for a, t in enumerate(theta, start=1):
                p[2 * (genus - a)] = mpmath.mpc(t)
            h = [-mpmath.fsum(p[i] * s[k - i] for i in range(k + 1)) for k in range(n)]
            assert _relative_error(row, _mp_reciprocal(h)) <= 1e-13


# ------------------------------------------- the dense kernel, by oracle

def _reference_match(curve, bundle, tt, chars, order):
    """Both connection sides built object by object from Series.

    The construction the dense kernel replaced: every intermediate is a
    series with its own pessimistic order bookkeeping.
    """
    g = curve.genus
    work = order + 4 * g + 8
    x = Series.exact(-2, [1.0])
    xp = x.diff()
    sqrt_t = Series.exact(0, t_coefficients(curve)).truncate(work).sqrt()
    y = 2.0 * Series.exact(-(2 * g + 1), [1.0]) * sqrt_t
    gs = [-Series.exact(2 * (g - a), [1.0]) * sqrt_t.reciprocal()
          for a in range(1, g + 1)]
    base = schwarzian(x) - 1.5 * ((y.diff() / xp).diff() / xp / y) * (xp * xp)
    for a, q in enumerate(second_kind_numerators(curve)):
        qx = Series.constant(0.0)
        for k, coef in enumerate(q):
            qx = qx + complex(coef) * Series.exact(-2 * k, [1.0])
        base = base + 6.0 * gs[a] * (qx * xp / (4.0 * y))
    basis = {(a, b): ((12.0 if a == b else 24.0) * gs[a - 1] * gs[b - 1]).truncate(order)
             for a in range(1, g + 1) for b in range(a, g + 1)}
    w = bundle.inv_two_omega
    sides = {}
    for ch in chars:
        ent = tt.entry(ch)
        grad_w = w.T @ ent.grad
        hess_w = w.T @ ent.hess @ w
        third_w = np.einsum("ijk,ia,jb,kc->abc", ent.third, w, w, w)
        h = q = t3 = Series.constant(0.0)
        for a in range(g):
            h = h + complex(grad_w[a]) * gs[a]
            for b in range(g):
                q = q + complex(hess_w[a, b]) * gs[a] * gs[b]
                for c in range(g):
                    t3 = t3 + complex(third_w[a, b, c]) * gs[a] * gs[b] * gs[c]
        ratio = h.diff() / h
        out = (h.diff().diff() / h - 1.5 * (ratio * ratio)
               + 1.5 * (q / h) * (q / h) - 2.0 * (t3 / h))
        sides[ch] = out.truncate(order)
    return base.truncate(order), basis, sides


_CURVES = [("standard", True), ("skew", True), ("lemniscatic", False),
           ("generic_g1", False)]


def _pipeline(prefix, genus2, request):
    curve = request.getfixturevalue(f"{prefix}_curve")
    bundle = request.getfixturevalue(f"{prefix}_bundle")
    tt = request.getfixturevalue(f"{prefix}_table")
    m = request.getfixturevalue(f"{prefix}_matching") if genus2 else None
    return curve, bundle, tt, m


def _returned_series(out):
    yield "base", out["base"]
    for key, s in sorted(out["basis"].items()):
        yield key, s
    for ch, s in out["theta_side"].items():
        yield ch, s


@pytest.mark.parametrize("prefix, genus2", _CURVES)
def test_dense_kernel_matches_series_construction(prefix, genus2, request):
    curve, bundle, tt, m = _pipeline(prefix, genus2, request)
    out = expansion_match(curve, bundle, tt, m)
    base, basis, sides = _reference_match(curve, bundle, tt, list(out["theta_side"]),
                                          out["order"])
    ref = dict(_returned_series({"base": base, "basis": basis, "theta_side": sides}))
    for key, s in _returned_series(match_series(out)):
        r = ref[key]
        assert (s.e0, s.order) == (r.e0, r.order), key
        scale = float(np.max(np.abs(r.arr)))
        for k in range(r.e0, r.order + 1):
            assert abs(s.coeff(k) - r.coeff(k)) <= 1e-12 * scale, (key, k)


@pytest.mark.parametrize("prefix, genus2", _CURVES)
def test_dense_window_is_honest(prefix, genus2, request):
    # the order-16 window truncated to 12 must give the order-12 results:
    # no coefficient up to the order depends on where the window stops
    curve, bundle, tt, m = _pipeline(prefix, genus2, request)
    lo = dict(_returned_series(match_series(expansion_match(curve, bundle, tt, m, order=12))))
    hi = dict(_returned_series(match_series(expansion_match(curve, bundle, tt, m, order=16))))
    for key, s in lo.items():
        cut = TruncatedSeries.make(hi[key].e0, hi[key].coeffs, 12)
        assert (cut.e0, cut.order) == (s.e0, s.order), key
        got, want = np.array(cut.coeffs), np.array(s.coeffs)
        assert np.max(np.abs(got - want)) <= 1e-12 * float(np.max(np.abs(want))), key


@pytest.mark.parametrize("prefix, genus2", [("standard", True), ("lemniscatic", False)])
def test_one_frame_per_match(prefix, genus2, request, monkeypatch):
    curve, bundle, tt, m = _pipeline(prefix, genus2, request)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return local_frame(*args, **kwargs)

    monkeypatch.setattr(expansion, "local_frame", counted)
    expansion_match(curve, bundle, tt, m)
    assert len(calls) == 1
    expansion_match(curve, bundle, tt, m, order=8)
    assert len(calls) == 2

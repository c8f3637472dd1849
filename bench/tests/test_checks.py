"""Tests of the benchmark's own checkers and tracer.

    PYTHONPATH=src python -m pytest -q bench/tests

Each independent reference must agree with the program on the standard
curve y^2 = 4 x (x^2 - 1)(x^2 - 4), and a small perturbation of a period,
a theta constant, a kappa route or a report field must make the matching
check fail.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import secondkind as sk  # noqa: E402
import secondkind.cli  # noqa: E402,F401
from spans import Tracer  # noqa: E402

STANDARD = (-2.0, -1.0, 0.0, 1.0, 2.0)
GENUS1_REAL = (-1.5, 0.25, 1.75)


@pytest.fixture(scope="module")
def std():
    curve = sk.curve_from_branch_points(STANDARD)
    bundle = sk.compute_periods(curve)
    tt = sk.theta_table(bundle)
    m = sk.bolza_match(tt, curve)
    return curve, bundle, tt, m


@pytest.fixture(scope="module")
def g1():
    curve = sk.curve_from_branch_points(GENUS1_REAL)
    bundle = sk.compute_periods(curve)
    return curve, bundle, sk.theta_table(bundle)


def _periods(b):
    return [b.omega, b.omega_prime, b.eta, b.eta_prime, b.tau, b.kappa]


def _routes(rep, m):
    routes = {f"even_pair_{i}{j}": v for (i, j), v in rep.kappa_by_even_pair.items()}
    routes.update({f"odd_{k}": rep.kappa_by_odd[m.delta(k)] for k in range(1, 6)})
    routes.update(even_sum=rep.kappa_even_sum, odd_sum=rep.kappa_odd_sum)
    return routes


def _theta_entries(tt):
    return [{"char": list(ch.top + ch.bottom), "radius": e.radius, "value": e.value,
             "grad": e.grad, "hess": e.hess, "third": e.third}
            for ch, e in tt.entries.items()]


def _verify(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sk.cli.main(argv)
    return buf.getvalue(), code


# ------------------------------------------------- agreement with the program


def test_periods_pass(std, g1):
    assert checks.check_periods(*_periods(std[1])) == []
    assert checks.check_periods(*_periods(g1[1])) == []


def test_real_a_periods_match_scipy(std, g1):
    assert checks.check_real_a_periods(STANDARD, std[1].omega) == []
    assert checks.check_real_a_periods(GENUS1_REAL, g1[1].omega) == []


def test_branch_points_recovered(std):
    _, bundle, tt, _ = std
    assert checks.check_branch_recovery(STANDARD, bundle.omega,
                                        [tt.entry(ch).grad for ch in tt.odd]) == []


def test_kappa_routes_agree(std):
    curve, bundle, tt, m = std
    rep = sk.kappa_report(curve, bundle, tt, m)
    assert checks.check_kappa_routes(checks.direct_kappa(bundle.omega, bundle.eta), _routes(rep, m)) == []


def test_theta_table_matches_brute_force(std, g1):
    assert checks.check_theta_entries(std[2].tau, _theta_entries(std[2])) == []
    assert checks.check_theta_entries(g1[2].tau, _theta_entries(g1[2])) == []


def test_brute_force_theta_obeys_jacobi_identity():
    tau = np.array([[0.3 + 1.1j]])
    th = {ch: checks.theta_brute(tau, ch[:1], ch[1:], 12)[0] for ch in ((0, 0), (0, 1), (1, 0))}
    assert abs(th[0, 0] ** 4 - th[0, 1] ** 4 - th[1, 0] ** 4) < 1e-13


def test_kleinj_matches_curve(g1):
    assert checks.check_kleinj(GENUS1_REAL, g1[1].tau) == []
    lemniscatic = sk.compute_periods(sk.curve_from_branch_points((-1.0, 0.0, 1.0)))
    assert abs(checks.weierstrass_j((-1.0, 0.0, 1.0)) - 1728.0) < 1e-12
    assert checks.check_kleinj((-1.0, 0.0, 1.0), lemniscatic.tau) == []


@pytest.mark.parametrize("points", [STANDARD, GENUS1_REAL])
def test_affine_covariance(points):
    s, c = 2.5, -1.25
    base = sk.compute_periods(sk.curve_from_branch_points(points))
    image = sk.compute_periods(sk.curve_from_branch_points([s * e + c for e in points]))
    assert checks.check_affine({"tau": base.tau, "omega": base.two_omega},
                               {"tau": image.tau, "omega": image.two_omega}, s, c) == []


def _abel_triple(std):
    curve, bundle, _, _ = std
    p, q, r = curve.lift(0.5 + 1.0j), curve.lift(-1.5 - 0.7j, -1), curve.lift(2.6 + 0.3j)
    return (sk.abel_map(curve, bundle, p, q), sk.abel_map(curve, bundle, q, r),
            sk.abel_map(curve, bundle, p, r), bundle.tau)


def test_abel_loop_on_lattice(std):
    assert checks.check_abel_loop(*_abel_triple(std)) == []


def test_lattice_coordinates_of_a_lattice_vector(std):
    tau = std[1].tau
    ab = checks.lattice_coordinates(np.array([1.0, -2.0]) + tau @ np.array([3.0, 1.0]), tau)
    assert np.allclose(ab, [1.0, -2.0, 3.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_verify_report_consistent(suite):
    text, code = _verify(["verify", "--suite", suite, "--seed", "0"])
    assert code == 0
    assert checks.check_verify_report(text, suite, 0, code) == []


def test_failing_stencil_seed_is_consistent():
    text, code = _verify(["verify", "--suite", "full", "--seed", "8"])
    assert code == 1
    assert checks.check_verify_report(text, "full", 8, code) == []
    rep = json.loads(text)
    failed = [c["identity"] for cr in rep["curves"] for c in cr["checks"] if c["status"] == "fail"]
    assert failed == ["omega_stencil_1"]


# ------------------------------------------------------------- perturbations


@pytest.mark.parametrize("which", range(6))
def test_perturbed_period_matrix_fails(std, which):
    mats = [np.array(a, dtype=complex) for a in _periods(std[1])]
    mats[which][0, 1] *= 1 + 1e-6
    assert checks.check_periods(*mats)


def test_perturbed_real_period_fails(std):
    omega = np.array(std[1].omega)
    omega[1, 0] *= 1 + 1e-7
    assert checks.check_real_a_periods(STANDARD, omega)


def test_perturbed_odd_gradient_fails(std):
    _, bundle, tt, _ = std
    grads = [np.array(tt.entry(ch).grad) for ch in tt.odd]
    grads[1][0] *= 1 + 1e-5
    assert checks.check_branch_recovery(STANDARD, bundle.omega, grads)


def test_perturbed_kappa_route_fails(std):
    curve, bundle, tt, m = std
    routes = _routes(sk.kappa_report(curve, bundle, tt, m), m)
    routes["odd_3"] = routes["odd_3"] + 1e-6
    assert checks.check_kappa_routes(checks.direct_kappa(bundle.omega, bundle.eta), routes)


@pytest.mark.parametrize("field", ["value", "grad", "hess", "third"])
def test_perturbed_theta_constant_fails(std, field):
    entries = _theta_entries(std[2])
    # value and Hessian vanish on odd characteristics, gradient and third
    # derivatives on even ones; perturb one where the field is nonzero
    k = next(k for k, e in enumerate(entries)
             if (sum(a * b for a, b in zip(e["char"][:2], e["char"][2:])) % 2 == 1)
             == (field in ("grad", "third")))
    entries[k][field] = np.asarray(entries[k][field]) * (1 + 1e-8)
    assert checks.check_theta_entries(std[2].tau, entries)


def test_perturbed_affine_image_fails():
    base = sk.compute_periods(sk.curve_from_branch_points(STANDARD))
    image = sk.compute_periods(sk.curve_from_branch_points([2.0 * e + 1.0 for e in STANDARD]))
    omega = image.two_omega.copy()
    omega[1, 1] *= 1 + 1e-8
    assert checks.check_affine({"tau": base.tau, "omega": base.two_omega},
                               {"tau": image.tau, "omega": omega}, 2.0, 1.0)


def test_perturbed_genus1_tau_fails(g1):
    assert checks.check_kleinj(GENUS1_REAL, g1[1].tau * (1 + 1e-7))


def test_perturbed_abel_value_fails(std):
    pq, qr, pr, tau = _abel_triple(std)
    assert checks.check_abel_loop(pq + 1e-8, qr, pr, tau)


def _mutate(text, fn):
    rep = json.loads(text)
    fn(rep)
    return json.dumps(rep)


@pytest.mark.parametrize("mutation", [
    lambda r: r["curves"][0]["checks"][30].__setitem__("defect", r["curves"][0]["checks"][30]["defect"] * 1.001 + 1e-15),
    lambda r: r["curves"][0]["checks"][40].__setitem__("status", "fail"),
    lambda r: r["curves"][0]["checks"][40]["lhs"].__setitem__(0, r["curves"][0]["checks"][40]["lhs"][0] * (1 + 1e-6)),
    lambda r: r["curves"][0]["checks"].pop(),
    lambda r: r.__setitem__("status", "fail"),
])
def test_perturbed_report_fails(mutation):
    text, code = _verify(["verify", "--suite", "quick", "--seed", "0"])
    assert checks.check_verify_report(_mutate(text, mutation), "quick", 0, code)


def test_wrong_exit_code_fails():
    text, _ = _verify(["verify", "--suite", "quick", "--seed", "0"])
    assert checks.check_verify_report(text, "quick", 0, 1)


# -------------------------------------------------------------------- tracer


def test_tracer_counts_and_restores(std):
    original = (sk.periods.adaptive_gl, sk.compute_periods, sk.paths.SheetPath.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        curve = sk.curve_from_branch_points(STANDARD)
        bundle = sk.compute_periods(curve)
        tt = sk.theta_table(bundle)
        sk.abel_map(curve, bundle, curve.lift(0.5 + 1.0j), curve.lift(2.6 + 0.3j))
    finally:
        tracer.uninstall()
    assert (sk.periods.adaptive_gl, sk.compute_periods, sk.paths.SheetPath.__init__) == original
    s = tracer.summary(1)
    assert s["curves.calls"] == 1 and s["periods.calls"] == 1 and s["theta.tables"] == 1
    assert s["periods.abel_calls"] == 1 and s["paths.legs"] >= 1
    assert s["paths.quad_calls"] == 4 + s["paths.legs"]  # 4 chains, one panel set per leg
    assert s["paths.nodes"] == 32 * s["paths.panels"]
    assert s["theta.radius_max"] == max(e.radius for e in tt.entries.values())
    assert all(v >= 0.0 for k, v in s.items() if k.endswith("ms"))
    # self times add up to the top-level spans' wall time
    top = sum(end - start for _, _, parent, start, end in tracer.spans if parent == -1)
    assert abs(sum(v for k, v in s.items() if k.endswith("ms")) - 1e3 * top) < 1e-6
    # tracing leaves the program's results unchanged
    again = sk.compute_periods(curve)
    assert np.array_equal(again.omega, bundle.omega) and np.array_equal(again.tau, bundle.tau)


@pytest.mark.parametrize("command", ["periods", "theta", "match", "kappa", "expand"])
def test_cli_output_checks(command):
    import run

    curve = json.dumps({"branch_points": list(STANDARD)})
    seen: dict = {}
    for name in ("periods", command):
        text, code = _verify([name, "--curve", curve])
        assert code == 0
        assert run.check_cli_output([name, "--curve", curve], text, seen) == []
    rep = json.loads(text)
    key = {"periods": "omega", "theta": "characteristics", "match": "pairs",
           "kappa": "kappa_odd_sum", "expand": "kappa"}[command]
    if command == "theta":
        rep[key][0]["value"][0] *= 1 + 1e-8
    elif command == "match":
        rep[key][1]["char"] = rep[key][0]["char"]
    else:
        rep[key][0][1][0] += 1e-6
    assert run.check_cli_output([command, "--curve", curve], json.dumps(rep), seen)


def test_calibration_scaling():
    import calib

    # a host running units at twice the reference time halves every operation
    units, secs = [10] * 5, [20 * calib.REF_UNIT_S] * 5
    assert calib.scale([0.2] * 5, units, secs) == pytest.approx([0.1] * 5)
    # a slow stretch is scaled by its own calibration, pooled over neighbours
    scaled = calib.scale([0.1, 0.1, 0.2, 0.2], [1, 1, 1, 1],
                         [calib.REF_UNIT_S] * 2 + [2 * calib.REF_UNIT_S] * 2, window=0)
    assert scaled == pytest.approx([0.1] * 4)
    n, dt = calib.measure(0.0)
    assert n >= 1 and dt >= calib.MIN_CAL_S

"""Abel legs against 30-digit integrals.

``tests/data/leg_reference.json`` holds the integrals of x^i / y dx along
28 straight legs, written by ``scripts/leg_reference.py`` (mpmath,
tanh-sinh split at the cut crossings and graded toward the foot of every
branch point, 40 and 50 digits agreeing to 1e-30): 12 random legs keeping
0.02 from the branch points, 8 legs passing 1e-3 to 1e-6 of their length
from a branch point, and long legs from the far point 40 max|e|^2
exp(i pi / 7) into the standard curve shifted by 48 and by 300 (about 1e5
and 3.6e6 long).  It also holds 46 s^2 legs into a branch point (kind
``branch``): into every branch point of the standard, a skew and a
genus-1 curve from 1e-3, 0.35 and 3 times its distance to the nearest
other branch point, from the far point of the shifted curves, and from
1e-14 away.

``paths.leg_integrals`` must give each within quad_tol max(1, |I|) or
refuse it with ``QuadratureNonConvergence``.  At 1e-6, 1e-9 and 1e-12 it
certifies every leg, as it does at 1e-14 every leg that keeps 1e-3 of its
length from the branch points; at 1e-14 the roundoff gate refuses the
+300 legs, whose x near the branch points carries about 300 eps.
``paths.integrate_rows_to_branch_point`` is held to the same bound on the
s^2 legs, and certifies every one of them at 1e-6, 1e-9 and 1e-12, and
at 1e-14 every one but legs from the far point of the shifted curves.
"""

import importlib.util
import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from secondkind import curve_from_branch_points, paths, periods
from secondkind.errors import QuadratureNonConvergence

DATA = Path(__file__).resolve().parent / "data" / "leg_reference.json"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "leg_reference.py"
TOLERANCES = (1e-6, 1e-9, 1e-12, 1e-14)


def _complex(pair):
    return complex(float(pair[0]), float(pair[1]))


def _cases(branch=False):
    """The straight cases, or with branch=True the s^2 legs."""
    return [c for c in json.loads(DATA.read_text())["cases"] if (c["kind"] == "branch") == branch]


def _leg(case):
    """(curve, route, rows, reference integrals) of one case."""
    curve = curve_from_branch_points([_complex(e) for e in case["branch_points"]])
    z0, z1 = _complex(case["z0"]), _complex(case["z1"])
    y0 = case["sheet"] * 2.0 * np.sqrt(z0 - np.asarray(curve.branch_points, dtype=complex)).prod()
    want = np.array([_complex(v) for v in case["integrals"]])
    return curve, paths.Route(curve, (z0, z1), y0), periods._u_rows(curve), want


def _must_certify(case, tol):
    """Whether the leg must be certified at tol: always above 1e-14, and at
    1e-14 when it keeps 1e-3 of its length from every branch point."""
    if tol > 1e-14:
        return True
    z0, z1 = _complex(case["z0"]), _complex(case["z1"])
    gap = min(paths.segment_distance(z0, z1, _complex(e)) for e in case["branch_points"])
    return case["kind"] != "far" and gap >= 0.999e-3 * abs(z1 - z0)


def test_every_leg_is_within_quad_tol_or_refused():
    cases = _cases()
    assert [c["kind"] for c in cases].count("far") == 8 and len(cases) == 28
    worst = dict.fromkeys(TOLERANCES, 0.0)
    for case in cases:
        curve, route, rows, want = _leg(case)
        for tol in TOLERANCES:
            try:
                got = paths.leg_integrals(route, rows, tol)[:, 0]
            except QuadratureNonConvergence as err:
                assert not _must_certify(case, tol), (case["kind"], case["z0"], tol, str(err))
                assert "of leg 0" in str(err)
                continue
            error = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
            assert error <= tol, (case["kind"], case["z0"], tol, error)
            worst[tol] = max(worst[tol], error)
    # measured when the reference was written: 2.0e-11, 1.5e-14, 3.4e-15, 2.2e-16
    assert worst[1e-12] < 1e-14 and worst[1e-14] < 1e-15, worst


def test_the_roundoff_gate_refuses_the_shifted_far_legs_at_1e_14():
    far = [c for c in _cases() if c["kind"] == "far" and float(c["branch_points"][0][0]) > 200]
    assert len(far) == 4
    for case in far:
        curve, route, rows, want = _leg(case)
        with pytest.raises(QuadratureNonConvergence,
                           match=r"^piece \[[0-9.e-]+, [0-9.e-]+\] of leg 0 \[.*\]: the rounding of x "
                                 r"moves the integral by up to [0-9.e+-]+, above quad_tol 1\.0e-14$"):
            paths.leg_integrals(route, rows, 1e-14)
        got = paths.leg_integrals(route, rows, 1e-12)[:, 0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_every_branch_leg_is_within_quad_tol_or_refused():
    cases = _cases(branch=True)
    assert len(cases) == 46
    worst = dict.fromkeys(TOLERANCES, 0.0)
    for case in cases:
        curve = curve_from_branch_points([_complex(e) for e in case["branch_points"]])
        x0, e = _complex(case["z0"]), _complex(case["z1"])
        y0 = case["sheet"] * 2.0 * np.sqrt(x0 - np.asarray(curve.branch_points, dtype=complex)).prod()
        want = np.array([_complex(v) for v in case["integrals"]])
        k = curve.branch_points.index(e)
        for tol in TOLERANCES:
            try:
                got = paths.integrate_rows_to_branch_point(curve, k, x0, y0, periods._u_rows(curve), tol)
            except QuadratureNonConvergence as err:
                # only the legs from the far point of the shifted curves
                assert tol == 1e-14 and abs(x0) > 1e4, (case["z0"], case["z1"], tol, str(err))
                assert str(err).startswith("piece [") and "] of the s^2 leg from " in str(err), str(err)
                continue
            error = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
            assert error <= tol, (case["z0"], case["z1"], tol, error)
            worst[tol] = max(worst[tol], error)
    # measured when the reference was written: 3.2e-12, 4.8e-14, 9.9e-15,
    # 4.6e-16; at 1e-14 the roundoff gate refused 5 of the 6 far legs
    assert worst[1e-12] < 1e-14 and worst[1e-14] < 1e-15, worst


def test_a_reference_leg_is_recomputed_live():
    """The generator's first random leg and first s^2 leg at 30 digits
    match the file."""
    spec = importlib.util.spec_from_file_location("leg_reference", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for leg, integrals, case in ((script.cases()[0], script.leg_integrals, _cases()[0]),
                                 (script._branch_cases()[0], script.branch_integrals,
                                  _cases(branch=True)[0])):
        name, points, z0, z1, sheet = leg
        assert case["kind"] == name and _complex(case["z0"]) == z0 and _complex(case["z1"]) == z1
        live = integrals(points, z0, z1, sheet, 30)
        with mp.workdps(30):
            for got, (re, im) in zip(live, case["integrals"], strict=True):
                assert abs(got - mp.mpc(re, im)) <= mp.mpf(10) ** -27 * max(1, abs(got))

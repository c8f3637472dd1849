"""Command line surface: schemas, determinism, exit codes."""

import json

import numpy as np
import pytest

from secondkind.cli import _num, main, parse_curve, random_curve

STANDARD = json.dumps({"branch_points": [[-2, 0], [-1, 0], [0, 0], [1, 0], [2, 0]]})
SQUARE_G1 = json.dumps({"genus": 1, "lambda": [0, -4, 0]})


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


# ------------------------------------------------------------- formats

def test_float_format_is_17_significant_digits():
    assert _num(0.1) == "0.10000000000000001"
    assert _num(1.0) == "1"
    assert _num(-0.0) == "0"


def test_output_is_reproducible(capsys):
    argv = ["verify", "--suite", "quick", "--seed", "11"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_text_format_runs(capsys):
    code, out = _run(capsys, ["periods", "--curve", STANDARD, "--format", "text"])
    assert code == 0
    assert "legendre_defect" in out


# ------------------------------------------------------------ commands

def test_periods_report_keys(capsys):
    code, rep = _run_json(capsys, ["periods", "--curve", STANDARD])
    assert code == 0
    for key in ("omega", "omega_prime", "eta", "eta_prime",
                "tau", "kappa", "legendre_defect", "tau_asymmetry",
                "im_tau_min_eigenvalue"):
        assert key in rep, key
    assert rep["legendre_defect"] < 1e-9
    assert rep["im_tau_min_eigenvalue"] > 0.0


def test_theta_report_characteristics(capsys):
    code, rep = _run_json(capsys, ["theta", "--curve", STANDARD])
    assert code == 0
    assert len(rep["characteristics"]) == 16
    first = rep["characteristics"][0]
    assert len(first["char"]) == 4
    assert all(isinstance(t, int) for t in first["char"])
    assert rep["lattice_radius"] >= 1


def test_match_report_schema(capsys):
    code, rep = _run_json(capsys, ["match", "--curve", STANDARD])
    assert code == 0
    assert len(rep["gamma"]) == 4
    assert len(rep["pairs"]) == 5
    for p in rep["pairs"]:
        assert set(p) == {"branch_index", "char", "residual"}
        assert p["residual"] < 1e-10


def test_kappa_genus1_square_lattice(capsys):
    code, rep = _run_json(capsys, ["kappa", "--curve", SQUARE_G1])
    assert code == 0
    entries = {e["identity"]: e for e in rep["identities"]}
    assert entries["weierstrass_kappa"]["defect"] < 1e-10
    assert rep["defects"]["expansion"] < 1e-9


def test_kappa_genus2_routes(capsys):
    code, rep = _run_json(capsys, ["kappa", "--curve", STANDARD])
    assert code == 0
    assert max(rep["defects"].values()) < 1e-7


def test_expand_report(capsys):
    code, rep = _run_json(capsys, ["expand", "--curve", STANDARD])
    assert code == 0
    assert rep["residual"] < 1e-6
    assert "algebraic" in rep and "theta_side" in rep


def test_verify_quick_passes(capsys):
    code, rep = _run_json(capsys, ["verify", "--suite", "quick"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["failures"] == 0


def test_verify_full_seeded(capsys):
    code, rep = _run_json(capsys, ["verify", "--suite", "full", "--seed", "3"])
    assert code == 0
    names = [c["name"] for c in rep["curves"]]
    assert "standard_genus2" in names
    assert any(n.startswith("random_genus1") for n in names)


def test_eta_prime_gate_follows_the_period_scale(capsys):
    # max|eta'| is about 1.7e5 on this translate of the standard curve and
    # the consistency defect 1.4e-9, over the absolute base gate of 1e-9
    curve = json.dumps({"branch_points": [48, 49, 50, 51, 52]})
    _, rep = _run_json(capsys, ["verify", "--curve", curve])
    entry, = [c for c in rep["curves"][0]["checks"]
              if c["identity"] == "gate_eta_prime_consistency"]
    assert entry["defect"] > 1e-9
    assert entry["status"] == "pass"


# ----------------------------------------------------------- bad input

def test_degenerate_curve_is_reported(capsys):
    bad = json.dumps({"branch_points": [[0, 0], [0, 0], [1, 0], [2, 0], [3, 0]]})
    code, rep = _run_json(capsys, ["periods", "--curve", bad])
    assert code == 2
    assert rep["error"]["type"] == "DegenerateCurve"


@pytest.mark.parametrize("argv, error", [
    (["theta", "--theta-tol", "-1"], "ValueError"),
    (["theta", "--theta-tol", "nan"], "ValueError"),
    (["expand", "--order", "-3"], "ValueError"),
    *((["expand", "--order", str(order)], "IncompatibleSystem") for order in range(4)),
    (["kappa", "--order", "3"], "IncompatibleSystem"),
])
def test_out_of_range_options_are_reported(capsys, argv, error):
    # below order 4 the genus-2 system has rank 1-2 of 3 and its kappa is
    # not determined; the parent printed one with residual 1e-15
    code, rep = _run_json(capsys, [*argv, "--curve", STANDARD])
    assert code == 2
    assert rep["error"]["type"] == error


def test_scaled_curve_reports_kappa(capsys):
    # the symmetry check of every kappa route is relative to its magnitude
    # (asymmetry 3e-8 absolute, 3e-20 relative here); the absolute route
    # gates failing on this curve are a separate matter
    wide = json.dumps({"branch_points": [-20000, -10000, 0, 10000, 20000]})
    code, rep = _run_json(capsys, ["kappa", "--curve", wide])
    assert code == 0
    assert "kappa_direct" in rep
    code, rep = _run_json(capsys, ["verify", "--curve", wide])
    assert code in (0, 1)
    assert rep["curves"][0]["checks"]


def test_genus_mismatch_is_reported(capsys):
    bad = json.dumps({"genus": 2, "lambda": [0, -4, 0]})
    code, rep = _run_json(capsys, ["periods", "--curve", bad])
    assert code == 2


def test_malformed_json_is_reported(capsys):
    code, rep = _run_json(capsys, ["periods", "--curve", "{not json"])
    assert code == 2
    assert "error" in rep


def test_missing_curve_is_reported(capsys):
    code, rep = _run_json(capsys, ["theta"])
    assert code == 2


# -------------------------------------------------------------- helpers

def test_parse_curve_forms():
    c1 = parse_curve(STANDARD)
    assert c1.genus == 2
    c2 = parse_curve(json.dumps({"genus": 1, "lambda": [[0, 0], [-4, 0], [0, 0]]}))
    assert c2.genus == 1
    assert c2.lam_at(1) == -4.0
    with pytest.raises(ValueError):
        parse_curve(json.dumps({"genus": 2, "lambda": [1, 2]}))
    with pytest.raises(ValueError):
        parse_curve(json.dumps({"foo": 1}))


def test_random_curve_constraints():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = random_curve(rng)
        e = np.asarray(c.branch_points)
        assert e.size == 5
        assert np.all(np.abs(e) <= 2.0 + 1e-12)
        assert np.all(np.abs(e) >= 0.3 - 1e-12)
        diffs = np.abs(e[:, None] - e[None, :])[np.triu_indices(5, 1)]
        assert np.min(diffs) >= 0.2 - 1e-12


def test_random_curve_determinism():
    a = random_curve(np.random.default_rng(42)).branch_points
    b = random_curve(np.random.default_rng(42)).branch_points
    assert np.array_equal(a, b)


def test_random_curve_zero_trace():
    c = random_curve(np.random.default_rng(9), zero_trace=True)
    assert abs(c.lam_at(4)) < 1e-10


def test_random_curve_real_genus1():
    c = random_curve(np.random.default_rng(5), genus=1, real=True)
    e = np.asarray(c.branch_points)
    assert c.genus == 1
    assert np.max(np.abs(e.imag)) < 1e-14

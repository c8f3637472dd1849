"""Command line surface: schemas, determinism, exit codes."""

import collections
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from secondkind import cli
from secondkind.cli import _dump, _num, main, parse_curve, random_curve
from secondkind.errors import HomologyConstructionFailure, StencilDegenerate
from secondkind.identities import IdentityDefects

COMMANDS = ("periods", "theta", "match", "kappa", "expand", "verify")

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


def _entry_dicts(block: IdentityDefects) -> list:
    """A block's entries in the entry-dict layout of a report: identity, lhs,
    rhs, defect, sign when the block is signed, status."""
    dicts = []
    for e in block.entries:
        d = {"identity": e.label, "lhs": [e.lhs.real, e.lhs.imag],
             "rhs": [e.rhs.real, e.rhs.imag], "defect": e.defect}
        if e.sign is not None:
            d["sign"] = e.sign
        d["status"] = e.status
        dicts.append(d)
    return dicts


def _reference_dump(obj) -> str:
    """The isinstance-chain serializer that _dump must match byte for byte;
    a block in a list is the run of its entry dicts."""
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _reference_dump(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        items = [d for v in obj
                 for d in (_entry_dicts(v) if isinstance(v, IdentityDefects) else [v])]
        return "[" + ",".join(_reference_dump(v) for v in items) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj) + 0.0, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unserializable value of type {type(obj).__name__}")


def _reports(monkeypatch, argvs) -> list:
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda report, fmt, out=None: seen.append(report))
    for argv in argvs:
        main(argv)
    return seen


def test_dump_matches_reference_on_verify_reports(monkeypatch):
    # --tol 1e-30 fails nearly every identity, so a failing report is among them
    argvs = [["verify", "--suite", suite, "--seed", str(seed)]
             for suite in ("quick", "full") for seed in (0, 8, 21)]
    argvs.append(["verify", "--tol", "1e-30"])
    for report in _reports(monkeypatch, argvs):
        assert _dump(report) == _reference_dump(report)


def test_dump_matches_reference_on_every_subcommand(monkeypatch):
    argvs = [[command, "--curve", curve] for command in COMMANDS for curve in (STANDARD, SQUARE_G1)]
    reports = _reports(monkeypatch, argvs)
    # match refuses the genus-1 curve, so one of them is an error report
    assert sum("error" in r for r in reports) == 1
    for report in reports:
        assert _dump(report) == _reference_dump(report)


class _Text(str):
    pass


def test_dump_matches_reference_on_edge_values():
    obj = {
        "floats": [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                   2.5e-310, 0.1, 1e300, -1.5, 2.0 ** 53 + 1],
        "pairs": [[-0.0, -0.0], [float("nan"), 1.0], [np.float64(0.5), 1.0], [1.0, 2], [1.0]],
        "numpy": [np.float64(-0.0), np.float32(0.1), np.int64(-7), np.int32(3),
                  np.float64("inf"), np.float16(1.5)],
        "flags": [True, False, None],
        "tuple": (1, (2.5, "x"), (), (-0.0, 1.0)),
        "empty": [{}, [], (), ""],
        "keys": [{1: "a"}, {True: "b"}, {2.5: "c"}, {None: "d"}, {-0.0: "e"}, {np.int64(3): "f"}],
        "subclasses": [collections.OrderedDict(b=1, a=[2.0]), _Text("t"), {_Text("k"): 1}],
        "\u00f1\u2603\U0001f600": "\u00e9\n\t\"\\\x00\x1f\x7f\u2028\ud800",
        "big": [10 ** 30, -(10 ** 30)],
    }
    for _ in range(2):  # the second pass reads the key text cache
        assert _dump(obj) == _reference_dump(obj)
    assert _dump([-0.0, [-0.0, 0.0]]) == "[0,[0,0]]"


@pytest.mark.parametrize("value", [1j, {1.0}, np.bool_(True), b"x", np.array([1.0])])
def test_dump_refuses_what_json_cannot_hold(value):
    for obj in (value, [value], {"k": value}, (value,)):
        with pytest.raises(TypeError):
            _dump(obj)
        with pytest.raises(TypeError):
            _reference_dump(obj)


def test_one_parser_serves_every_call(capsys):
    # each in-process call prints what a fresh process prints, and the
    # parser is built once however many calls use it
    argvs = [["verify", "--seed", "5", "--tol", "1e-9", "--order", "10"],
             ["periods", "--curve", STANDARD, "--quad-tol", "1e-11"],
             ["verify"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    cli._build_parser.cache_clear()
    for argv in argvs:
        code, out = _run(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "secondkind.cli", *argv], env=env,
                               stdout=subprocess.PIPE, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [["periods", "--curve", STANDARD],
                                  ["periods", "--curve", "{not json"]])
def test_closed_stdout_exits_141_quietly(argv):
    # the reader has closed its end before the child writes a report, or an
    # error report: no traceback, and the status a shell gives a writer
    # killed by SIGPIPE
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, "-m", "secondkind.cli", *argv], env=env,
                               stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (141, "")


def test_output_is_reproducible(capsys):
    argv = ["verify", "--suite", "quick", "--seed", "11"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_text_format_runs(capsys):
    for command in COMMANDS:
        _, rep = _run_json(capsys, [command, "--curve", STANDARD])
        code, out = _run(capsys, [command, "--curve", STANDARD, "--format", "text"])
        assert code == 0, command
        for key in rep:
            assert f"{key}:" in out, (command, key)


# the options each subcommand reads, 35 in all, and a non-default value for each
_OPTION_VALUES = {
    "--quad-tol": "1e-11", "--theta-tol": "1e-13", "--order": "10",
    "--tol": "1e-9", "--seed": "1", "--suite": "full", "--format": "text",
}
_PERIODS_OPTIONS = ("--curve", "--curve-file", "--quad-tol", "--format")
_THETA_OPTIONS = _PERIODS_OPTIONS + ("--theta-tol",)
_KAPPA_OPTIONS = _THETA_OPTIONS + ("--order",)
_OPTIONS = {
    "periods": _PERIODS_OPTIONS,
    "theta": _THETA_OPTIONS,
    "match": _THETA_OPTIONS,
    "kappa": _KAPPA_OPTIONS,
    "expand": _KAPPA_OPTIONS,
    "verify": _KAPPA_OPTIONS + ("--tol", "--seed", "--suite"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_rejects_options_it_does_not_read(capsys, command):
    every = set().union(*_OPTIONS.values())
    for option in sorted(every - set(_OPTIONS[command])):
        with pytest.raises(SystemExit) as exc:
            main([command, "--curve", STANDARD, option, _OPTION_VALUES[option]])
        assert exc.value.code == 2, option
        assert option in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_runs_with_every_option_it_reads(capsys, tmp_path, command):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(STANDARD, encoding="utf-8")
    rest = []
    for option in _OPTIONS[command]:
        if option not in ("--curve", "--curve-file"):
            rest += [option, _OPTION_VALUES[option]]
    for source in (["--curve", STANDARD], ["--curve-file", str(curve_file)]):
        code, out = _run(capsys, [command, *source, *rest])
        assert code == 0, (source[0], out)
        assert "error" not in out


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


def _expand_starts(rep):
    """First printed exponent of every expand row; each row must run to the order."""
    alg = rep["algebraic"]
    rows = {"base": alg["base"], **alg["kappa_basis"], **rep["theta_side"]}
    for key, row in rows.items():
        assert row["exponents"] == list(range(row["exponents"][0], rep["order"] + 1)), key
    return {key: row["exponents"][0] for key, row in rows.items()}


def test_expand_report(capsys):
    code, rep = _run_json(capsys, ["expand", "--curve", STANDARD])
    assert code == 0
    assert rep["residual"] < 1e-6
    assert "algebraic" in rep and "theta_side" in rep
    # the windows start at each row's valuation: exactly-zero leading terms are trimmed
    starts = _expand_starts(rep)
    assert {k: starts.pop(k) for k in ("base", "11", "12", "22")} == {
        "base": 2, "11": 4, "12": 2, "22": 0}
    assert len(starts) == 5 and set(starts.values()) == {0}
    curve = json.dumps({"branch_points": [[-1, 0], [0.3, 0], [1.2, 0.5]]})
    code, rep = _run_json(capsys, ["expand", "--curve", curve])
    assert code == 0
    assert _expand_starts(rep) == {"base": 0, "11": 0, "[1;1]": 0}


def test_verify_quick_passes(capsys):
    code, rep = _run_json(capsys, ["verify", "--suite", "quick"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["failures"] == 0


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_verify_seed_8_passes(capsys, suite):
    # the finite-difference stencil failed here on roundoff (defect 1.2e-5
    # against 1e-5); the exact bi-differential leaves defects near 1e-14
    code, rep = _run_json(capsys, ["verify", "--suite", suite, "--seed", "8"])
    assert code == 0
    assert rep["status"] == "pass"


def test_translated_curve_passes_the_bi_differential(capsys):
    # the stencil gave 7.9e-4 and 7.1e-3 on this translate of the standard curve
    curve = json.dumps({"branch_points": [48, 49, 50, 51, 52]})
    code, rep = _run_json(capsys, ["verify", "--suite", "full", "--curve", curve])
    entries = [c for c in rep["curves"][0]["checks"] if c["identity"].startswith("omega_stencil_")]
    assert [e["status"] for e in entries] == ["pass", "pass"]
    assert code == 0


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


def test_tol_reaches_every_identity_check(capsys):
    # only the gates, the kappa routes and the expansion residual keep
    # tolerances of their own; every other check with a nonzero defect fails
    # under --tol 1e-30
    own = ("gate_", "kappa_route_", "expansion_residual")
    code, rep = _run_json(capsys, ["verify", "--suite", "full", "--seed", "0", "--tol", "1e-30"])
    assert code == 1
    assert rep["tolerances"]["omega_stencil"] == 1e-30
    passing = [(c["name"], e["identity"]) for c in rep["curves"] for e in c["checks"]
               if e["status"] == "pass" and e.get("defect", 0.0) != 0.0
               and not e["identity"].startswith(own)]
    assert passing == []


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
    *((["verify", "--tol", tol], "ValueError") for tol in ("nan", "inf", "0", "-1")),
])
def test_out_of_range_options_are_reported(capsys, argv, error):
    # below order 4 the genus-2 system has rank 1-2 of 3 and its kappa is
    # not determined; the parent printed one with residual 1e-15
    code, rep = _run_json(capsys, [*argv, "--curve", STANDARD])
    assert code == 2
    assert rep["error"]["type"] == error


def test_scaled_curve_reports_kappa(capsys):
    # the symmetry check of every kappa route is relative to its magnitude
    # (asymmetry 3e-8 absolute, 3e-20 relative here), so kappa_report passes
    # and the expansion, solved after it, refuses: its kappa is wrong by 100%
    # on this curve (cond * eps = 1e3); the absolute route gates failing on
    # this curve are a separate matter
    wide = json.dumps({"branch_points": [-20000, -10000, 0, 10000, 20000]})
    code, rep = _run_json(capsys, ["kappa", "--curve", wide])
    assert code == 2
    assert rep["error"]["type"] == "IncompatibleSystem"
    code, rep = _run_json(capsys, ["verify", "--curve", wide])
    assert code in (0, 1)
    assert rep["curves"][0]["checks"]


@pytest.mark.parametrize("command", ["expand", "kappa"])
@pytest.mark.parametrize("points, order", [
    ([-100, -1, 0, 1, 100], 12),
    ([-20000, -10000, 0, 10000, 20000], 12),
    ([-2, -1, 0, 1, 2], 80),
])
def test_uncertified_expansion_is_refused(capsys, command, points, order):
    # each residual passes the gate (1.4e-13, 3e-11, 2.4e-13) while the
    # solved kappa is off by 100%, 100% and 7.3e-4: cond * eps is 1.3, 1e3
    # and 3.2e-4, over RESIDUAL_TOL
    curve = json.dumps({"branch_points": points})
    code, rep = _run_json(capsys, [command, "--curve", curve, "--order", str(order)])
    assert code == 2
    assert rep["error"]["type"] == "IncompatibleSystem"
    assert "condition number" in rep["error"]["message"]


def test_verify_reports_an_uncertified_expansion(capsys):
    code, rep = _run_json(capsys, ["verify", "--order", "80"])
    assert code == 1
    checks = rep["curves"][0]["checks"]
    entry, = [c for c in checks if c["identity"] == "kappa_route_expansion"]
    assert entry["error"].startswith("IncompatibleSystem: expansion system condition number")
    assert [c["identity"] for c in checks if c["status"] == "fail"] == ["kappa_route_expansion"]


def test_verify_reports_a_refused_curve(capsys, monkeypatch):
    """A refusal anywhere in a curve's battery is that curve's one entry."""
    def refuse(*args):
        raise HomologyConstructionFailure("no chain orientation produced a certified canonical basis")

    monkeypatch.setattr(cli, "compute_periods", refuse)
    code, rep = _run_json(capsys, ["verify"])
    assert code == 1 and rep["status"] == "fail" and rep["failures"] == 1
    (report,) = rep["curves"]
    assert report["failures"] == 1
    assert report["checks"] == [{
        "identity": "curve_pipeline", "status": "fail",
        "error": "HomologyConstructionFailure: no chain orientation produced a certified "
                 "canonical basis"}]
    code, text = _run(capsys, ["verify", "--format", "text"])
    assert code == 1
    assert ("fail  curve_pipeline               HomologyConstructionFailure: no chain "
            "orientation produced a certified canonical basis") in map(str.strip, text.splitlines())


def _entry_line(entry: dict) -> str:
    """The text line of a verify entry, under "  checks:"."""
    tail = f"defect={entry['defect']:.3e}" if "defect" in entry else entry["error"]
    sign = f" sign={entry['sign']:+d}" if "sign" in entry else ""
    return f"    {entry['status']:>4}  {entry['identity']:<28} {tail}{sign}"


@pytest.mark.parametrize("argv", [[], ["--suite", "full", "--seed", "3"], ["--tol", "1e-30"],
                                  ["--order", "80"]])
def test_verify_text_lines_follow_the_json_report(capsys, argv):
    # a passing run, a failing one and one with a refused expansion
    _, rep = _run_json(capsys, ["verify", *argv])
    _, text = _run(capsys, ["verify", "--format", "text", *argv])
    lines, start = text.splitlines(), 0
    for curve in rep["curves"]:
        want = ["  checks:", *map(_entry_line, curve["checks"]), f"  failures: {curve['failures']}"]
        start = lines.index("  checks:", start)
        assert lines[start:start + len(want)] == want, curve["name"]
        start += len(want)
    assert lines.count("  checks:") == len(rep["curves"])


def test_verify_reports_a_refused_stencil(capsys, monkeypatch):
    def refuse(*args):
        raise StencilDegenerate("the two points are too close to each other")

    monkeypatch.setattr(cli, "omega_consistency", refuse)
    code, rep = _run_json(capsys, ["verify"])
    assert code == 1 and rep["failures"] == 1
    checks = rep["curves"][0]["checks"]
    assert [c for c in checks if c["status"] == "fail"] == [{
        "identity": "omega_stencil_1", "status": "fail",
        "error": "StencilDegenerate: the two points are too close to each other"}]
    # the entries after it are still made
    assert [c["identity"] for c in checks[-2:]] == ["omega_a_period_1", "omega_a_period_2"]


@pytest.mark.parametrize("argv, curve", [
    (["periods"], {"branch_points": 5}),
    (["verify"], {"lambda": None}),
    (["periods"], {"branch_points": [True, -1, 0, 1, 2]}),
    (["periods"], {"branch_points": [[-2, False], -1, 0, 1, 2]}),
    (["periods"], {"lambda": [0, True, 0]}),
    (["periods"], {"genus": 2.7, "branch_points": [-2, -1, 0, 1, 2]}),
    (["periods"], {"genus": "2", "branch_points": [-2, -1, 0, 1, 2]}),
    (["periods"], {"genus": True, "lambda": [0, -4, 0]}),
    (["periods"], {"branch_points": [float("nan"), -1, 0, 1, 2]}),
    (["periods"], {"branch_points": [[-2, float("inf")], -1, 0, 1, 2]}),
    (["verify"], {"lambda": [0, float("nan"), 0]}),
])
def test_malformed_curve_is_reported(capsys, argv, curve):
    # invalid input exits 2 before any computation: not as a TypeError with
    # the verification-failure code 1, not read as 1 (true) or 2 (2.7), and
    # not met later as QuadratureNonConvergence or LinAlgError (NaN)
    code, rep = _run_json(capsys, [*argv, "--curve", json.dumps(curve)])
    assert code == 2
    assert rep["error"]["type"] == "ValueError"


def test_genus_mismatch_is_reported(capsys):
    bad = json.dumps({"genus": 2, "lambda": [0, -4, 0]})
    code, rep = _run_json(capsys, ["periods", "--curve", bad])
    assert code == 2


def test_malformed_json_is_reported(capsys):
    code, rep = _run_json(capsys, ["periods", "--curve", "{not json"])
    assert code == 2
    assert "error" in rep


@pytest.mark.parametrize("curve", ["[-2, -1, 0, 1, 2]", '"standard"', "5", "null"])
def test_curve_json_that_is_not_an_object_is_reported(capsys, curve):
    code, rep = _run_json(capsys, ["periods", "--curve", curve])
    assert code == 2
    assert rep["error"] == {"type": "ValueError", "message": "curve JSON must be an object"}


def test_curve_and_curve_file_together_are_reported(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(STANDARD, encoding="utf-8")
    code, rep = _run_json(capsys, ["periods", "--curve", STANDARD, "--curve-file", str(path)])
    assert code == 2
    assert rep["error"] == {"type": "ValueError", "message": "pass --curve or --curve-file, not both"}


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


def _genus2_labels(omega_pairs: int) -> list:
    pairs = [f"{i}{j}" for i, j in itertools.combinations(range(1, 6), 2)]
    rosenhain = []
    for i, j in itertools.combinations(range(1, 7), 2):
        rosenhain.append(f"rosenhain_classical_{i}{j}")
        if j < 6:
            rosenhain.append(f"rosenhain_higher_{i}{j}")
    omega = [f"omega_{kind}_{k}" for k in range(1, omega_pairs + 1)
             for kind in ("symmetry", "stencil")]
    if omega_pairs:
        omega += ["omega_a_period_1", "omega_a_period_2"]
    return (_GATES + ["gate_matching_residual"]
            + [f"kappa_route_even_pair_{p}" for p in pairs] + ["kappa_route_even_sum"]
            + [f"kappa_route_odd_{i}" for i in range(1, 6)] + ["kappa_route_odd_sum"]
            + ["kappa_route_expansion", "expansion_residual"]
            + ["thomae_222", "thomae_122", "thomae_112"]
            + rosenhain + [f"rosenhain_gamma_{i}6" for i in range(1, 6)]
            + [f"jacobi_{name}_{p}" for p in pairs
               for name in ("p22", "p12", "p11", "p11_polar")]
            + omega)


_GATES = ["gate_legendre", "gate_tau_asymmetry", "gate_im_tau_positive",
          "gate_eta_prime_consistency"]

GENUS1_LABELS = _GATES + ["weierstrass_kappa", "weierstrass_eta_sum", "weierstrass_eta_third",
                          "thomae_genus1", "kappa_route_expansion", "expansion_residual"]


@pytest.mark.parametrize("suite, omega_pairs", [("quick", 1), ("full", 2)])
def test_verify_report_keeps_its_shape(capsys, suite, omega_pairs):
    # 4 gates + matching + 17 kappa routes + expansion route and residual +
    # 3 Thomae + 30 Rosenhain + 40 Jacobi per genus-2 curve, and on the
    # first curve 2 per omega pair and the two a-periods; 10 per genus-1 curve
    code, rep = _run_json(capsys, ["verify", "--suite", suite, "--seed", "3"])
    assert code == 0
    got = [[c["identity"] for c in curve["checks"]] for curve in rep["curves"]]
    want = [_genus2_labels(omega_pairs)]
    if suite == "full":
        want += [_genus2_labels(0)] * 3 + [GENUS1_LABELS] * 2
    assert len(want[0]) == 4 + 1 + 17 + 2 + 3 + 30 + 40 + 2 * omega_pairs + 2
    assert [len(w) for w in want[1:]] == ([97] * 3 + [10] * 2 if suite == "full" else [])
    assert got == want
    assert all(len(set(labels)) == len(labels) for labels in got)

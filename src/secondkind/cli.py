"""Command line front end: curve ingestion, computation, verification suites.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 141 when the
reader of stdout has closed it.  JSON output is byte-identical for identical
configuration and seed: numbers are printed with 17 significant digits (-0.0
as 0), complex values as [re, im] pairs, matrices as row-major arrays of
pairs, and key order is fixed by construction.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str  # what json.dumps does to a str

import numpy as np

from .correspondence import MATCH_RESIDUAL_TOL, BranchMatching, bolza_match
from .curves import (
    HyperellipticCurve,
    branch_points,
    branch_scale,
    curve_from_branch_points,
    curve_from_coefficients,
)
from .errors import SecondKindError
from .expansion import DEFAULT_ORDER, RESIDUAL_TOL, expansion_match, match_series
from .identities import (
    DEFAULT_IDENTITY_TOL,
    GENUS1_IDENTITY_TOL,
    KAPPA_ROUTE_TOL,
    OMEGA_SYMMETRY_TOL,
    IdentityEntry,
    identity_entry,
    jacobi_inversion_check,
    kappa_report,
    omega_a_period,
    omega_algebraic,
    omega_consistency,
    rosenhain_defects,
    rosenhain_gamma_pairs,
    thomae_defects,
    thomae_genus1_defect,
    weierstrass_eta,
)
from .periods import DEFAULT_QUAD_TOL, compute_periods
from .theta import DEFAULT_THETA_TOL, half_period, theta_table

STANDARD_BRANCH_POINTS = (-2.0, -1.0, 0.0, 1.0, 2.0)


# ---------------------------------------------------------------- reporting

def _num(x) -> str:
    x = float(x) + 0.0  # normalize -0.0
    return format(x, ".17g")


#: JSON text of each dict key seen, with its colon; keys come from the report
#: builders, never from input, so this stays small
_KEY_TEXT: dict = {}


def _key(k) -> str:
    if type(k) is not str:
        return json.dumps(str(k)) + ":"
    text = _KEY_TEXT.get(k)
    if text is None:
        text = _KEY_TEXT[k] = json.dumps(k) + ":"
    return text


def _dump(obj) -> str:
    """Deterministic JSON with fixed 17-significant-digit floats.

    Dispatches on the exact type of the values the report builders make;
    _dump_other takes the rest (tuples, numpy scalars, subclasses).
    """
    t = type(obj)
    if t is float:
        return f"{obj + 0.0:.17g}"
    if t is list:
        if len(obj) == 2 and type(obj[0]) is float and type(obj[1]) is float:
            return f"[{obj[0] + 0.0:.17g},{obj[1] + 0.0:.17g}]"
        return "[" + ",".join([_dump(v) for v in obj]) + "]"
    if t is dict:
        return "{" + ",".join([_key(k) + _dump(v) for k, v in obj.items()]) + "}"
    if t is str:
        return _json_str(obj)
    if t is int:
        return str(obj)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    return _dump_other(obj)


def _dump_other(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(_key(k) + _dump(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, (int, np.integer)):  # bool has no subclasses, so not a bool here
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _num(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    raise TypeError(f"unserializable value of type {type(obj).__name__}")


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _mat(m) -> list:
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[_pair(v) for v in row] for row in arr]


def _char_ints(ch) -> list:
    return [int(v) for v in ch.top] + [int(v) for v in ch.bottom]


def _entry_dict(e: IdentityEntry) -> dict:
    d = {
        "identity": e.label,
        "lhs": _pair(e.lhs),
        "rhs": _pair(e.rhs),
        "defect": float(e.defect),
    }
    if e.sign is not None:
        d["sign"] = int(e.sign)
    d["status"] = e.status
    return d


def _error_dict(label: str, ex: Exception) -> dict:
    return {
        "identity": label,
        "status": "fail",
        "error": f"{type(ex).__name__}: {ex}",
    }


def _scalar(label: str, value: float, tol: float) -> IdentityEntry:
    v = float(value)
    return IdentityEntry(label, complex(v), 0j, v, None, "pass" if v < tol else "fail")


def _curve_dict(curve: HyperellipticCurve) -> dict:
    return {
        "genus": curve.genus,
        "lambda": [_pair(curve.lam_at(k)) for k in range(2 * curve.genus + 1)],
        "branch_points": [_pair(e) for e in branch_points(curve)],
    }


# ------------------------------------------------------------- curve input

def _is_real(v) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_complex(v) -> complex:
    if _is_real(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_real(t) for t in v):
        return complex(v[0], v[1])
    raise ValueError("numbers must be scalars or [re, im] pairs")


def _numbers(data: dict, key: str) -> list:
    if not isinstance(data[key], list):
        raise ValueError(f"'{key}' must be a list of numbers")
    return [_as_complex(v) for v in data[key]]


def parse_curve(text: str) -> HyperellipticCurve:
    """Curve from JSON: {"branch_points": [...]} or {"genus": g, "lambda": [...]}.

    lambda lists lam_0..lam_2g ascending; the leading coefficient 4 of the
    odd-degree model is implied.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("curve JSON must be an object")
    if "branch_points" in data:
        curve = curve_from_branch_points(_numbers(data, "branch_points"))
    elif "lambda" in data:
        curve = curve_from_coefficients(_numbers(data, "lambda"))
    else:
        raise ValueError("curve JSON needs 'branch_points' or 'lambda'")
    if "genus" in data:
        genus = data["genus"]
        if not isinstance(genus, int) or isinstance(genus, bool):
            raise ValueError(f"'genus' must be an integer, got {genus!r}")
        if genus != curve.genus:
            raise ValueError(f"declared genus {genus} but curve has genus {curve.genus}")
    return curve


def _load_curve(args) -> HyperellipticCurve | None:
    if args.curve and args.curve_file:
        raise ValueError("pass --curve or --curve-file, not both")
    if args.curve:
        return parse_curve(args.curve)
    if args.curve_file:
        with open(args.curve_file, "r", encoding="utf-8") as fh:
            return parse_curve(fh.read())
    return None


def random_curve(rng: np.random.Generator, genus: int = 2, real: bool = False,
                 zero_trace: bool = False) -> HyperellipticCurve:
    """Seeded curve in the annulus 0.3 <= |e| <= 2, pairwise separation >= 0.2.

    zero_trace recenters the sample so the branch points sum to zero, which
    kills the subleading polynomial coefficient (lam_4 for genus 2, lam_2
    for genus 1).
    """
    n = 2 * genus + 1
    for _ in range(1000):
        pts: list[complex] = []
        for _ in range(n):
            for _ in range(200):
                if real:
                    z = complex(rng.uniform(-2.0, 2.0), 0.0)
                else:
                    z = rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform())
                if not 0.3 <= abs(z) <= 2.0:
                    continue
                if all(abs(z - w) >= 0.2 for w in pts):
                    pts.append(complex(z))
                    break
            else:
                break
        if len(pts) < n:
            continue
        if zero_trace:
            c = sum(pts) / n
            pts = [z - c for z in pts]
        try:
            return curve_from_branch_points(pts)
        except SecondKindError:
            continue
    raise RuntimeError("curve sampling failed to satisfy the separation constraints")


# ------------------------------------------------------------ single emits

def _periods_report(curve: HyperellipticCurve, bundle) -> dict:
    return {
        "curve": _curve_dict(curve),
        "quad_tol": float(bundle.quad_tol),
        "omega": _mat(bundle.omega),
        "omega_prime": _mat(bundle.omega_prime),
        "eta": _mat(bundle.eta),
        "eta_prime": _mat(bundle.eta_prime),
        "tau": _mat(bundle.tau),
        "kappa": _mat(bundle.kappa),
        "legendre_defect": float(bundle.legendre_defect),
        "tau_asymmetry": float(bundle.tau_asymmetry),
        "im_tau_min_eigenvalue": float(bundle.im_tau_min_eig),
        "kappa_asymmetry": float(bundle.kappa_asymmetry),
        "eta_prime_consistency": float(bundle.eta_prime_consistency),
    }


def _theta_report(tt) -> dict:
    chars = []
    for ch in tt.characteristics:
        ent = tt.entry(ch)
        chars.append({
            "char": _char_ints(ch),
            "parity": int(ch.parity),
            "value": _pair(ent.value),
            "radius": int(ent.radius),
        })
    return {
        "tau": _mat(tt.tau),
        "theta_tol": float(tt.tol),
        "lattice_radius": int(tt.radius),
        "characteristics": chars,
    }


def _match_report(m: BranchMatching) -> dict:
    pairs = []
    for k in range(1, len(m.chars) + 1):
        pairs.append({
            "branch_index": k,
            "char": _char_ints(m.delta(k)),
            "residual": float(m.residuals[k - 1]),
        })
    return {"gamma": _char_ints(m.gamma), "pairs": pairs}


def _kappa_gap(ex: dict, bundle) -> float:
    return float(np.max(np.abs(ex["kappa"] - bundle.kappa)))


def _kappa_report_g2(curve, bundle, tt, m, order) -> dict:
    rep = kappa_report(curve, bundle, tt, m)
    ex = expansion_match(curve, bundle, tt, m, order=order)
    defects = dict(rep.defect_table)
    defects["expansion"] = _kappa_gap(ex, bundle)
    return {
        "kappa_direct": _mat(rep.kappa_direct),
        "kappa_even_pair": {f"{i}{j}": _mat(v) for (i, j), v in sorted(rep.kappa_by_even_pair.items())},
        "kappa_even_sum": _mat(rep.kappa_even_sum),
        "kappa_odd": {str(i + 1): _mat(rep.kappa_by_odd[m.delta(i + 1)]) for i in range(5)},
        "kappa_odd_sum": _mat(rep.kappa_odd_sum),
        "kappa_expansion": _mat(ex["kappa"]),
        "defects": {k: float(v) for k, v in defects.items()},
    }


def _kappa_report_g1(curve, bundle, tt, order) -> dict:
    ex = expansion_match(curve, bundle, tt, None, order=order)
    checks = [_entry_dict(e) for e in weierstrass_eta(curve, bundle, tt).entries]
    checks.append(_entry_dict(thomae_genus1_defect(tt)))
    return {
        "kappa_direct": _mat(bundle.kappa),
        "kappa_expansion": _mat(ex["kappa"]),
        "defects": {"expansion": _kappa_gap(ex, bundle)},
        "identities": checks,
    }


def _series_dict(s, order: int) -> dict:
    lo = max(s.e0, -2)
    exps = list(range(lo, order + 1))
    return {
        "exponents": exps,
        "coefficients": [_pair(s.coeff(n)) for n in exps],
    }


def _expand_report(curve, bundle, tt, m, order) -> dict:
    ex = expansion_match(curve, bundle, tt, m, order=order)
    series = match_series(ex)
    basis = {f"{a}{b}": _series_dict(s, order) for (a, b), s in sorted(series["basis"].items())}
    theta_side = {ch.label(): _series_dict(s, order) for ch, s in series["theta_side"].items()}
    return {
        "order": int(order),
        "kappa": _mat(ex["kappa"]),
        "residual": float(ex["residual"]),
        "residual_tol": float(RESIDUAL_TOL),
        "algebraic": {"base": _series_dict(series["base"], order), "kappa_basis": basis},
        "theta_side": theta_side,
    }


# -------------------------------------------------------------- verify suite

def _gate_entries(bundle) -> list:
    eig = float(bundle.im_tau_min_eig)
    return [
        _scalar("gate_legendre", bundle.legendre_defect, bundle.legendre_gate),
        _scalar("gate_tau_asymmetry", bundle.tau_asymmetry, bundle.tau_gate),
        IdentityEntry("gate_im_tau_positive", complex(eig), 0j,
                      max(0.0, -eig), None, "pass" if eig > 0 else "fail"),
        _scalar("gate_eta_prime_consistency", bundle.eta_prime_consistency, bundle.eta_prime_gate),
    ]


def _expansion_checks(curve, bundle, tt, m, order: int) -> list:
    try:
        ex = expansion_match(curve, bundle, tt, m, order=order)
    except SecondKindError as exn:
        return [_error_dict("kappa_route_expansion", exn)]
    return [
        _entry_dict(_scalar("kappa_route_expansion", _kappa_gap(ex, bundle), KAPPA_ROUTE_TOL)),
        _entry_dict(_scalar("expansion_residual", ex["residual"], RESIDUAL_TOL)),
    ]


def _omega_points(rng: np.random.Generator, curve: HyperellipticCurve):
    scale = branch_scale(curve.branch_points)
    for _ in range(500):
        x1 = scale * (rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0))
        x2 = scale * (rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0))
        if min(abs(x1 - e) for e in curve.branch_points) < 0.25:
            continue
        if min(abs(x2 - e) for e in curve.branch_points) < 0.25:
            continue
        if abs(x1 - x2) < 0.5:
            continue
        sheet = 1 if rng.uniform() < 0.5 else -1
        return curve.lift(x1), curve.lift(x2, sheet)
    raise RuntimeError("bi-differential point sampling failed")


def _battery_genus2(curve, args, rng, omega_pairs: int) -> list:
    tol = args.tol
    checks: list = []
    bundle = compute_periods(curve, args.quad_tol)
    checks.extend(_entry_dict(e) for e in _gate_entries(bundle))
    tt = theta_table(bundle, tol=args.theta_tol)
    m = bolza_match(tt, curve)
    checks.append(_entry_dict(_scalar("gate_matching_residual", max(m.residuals),
                                      MATCH_RESIDUAL_TOL)))

    rep = kappa_report(curve, bundle, tt, m)
    for name, d in rep.defect_table.items():
        checks.append(_entry_dict(_scalar(f"kappa_route_{name}", d, KAPPA_ROUTE_TOL)))
    checks.extend(_expansion_checks(curve, bundle, tt, m, args.order))

    checks.extend(_entry_dict(e) for e in thomae_defects(curve, bundle, tt, m, tol).entries)

    checks.extend(_entry_dict(e) for e in rosenhain_defects(bundle, tt, m, tol).entries)
    checks.extend(_entry_dict(e) for e in rosenhain_gamma_pairs(bundle, tt, m, tol).entries)

    checks.extend(_entry_dict(e) for e in jacobi_inversion_check(curve, bundle, tt, m, tol).entries)

    if omega_pairs > 0:
        a_vec = half_period(m.chars[0], bundle.tau)
        r_last = None
        for idx in range(1, omega_pairs + 1):
            q, r = _omega_points(rng, curve)
            r_last = r
            checks.append(_entry_dict(identity_entry(
                f"omega_symmetry_{idx}",
                omega_algebraic(curve, bundle, q, r),
                omega_algebraic(curve, bundle, r, q), min(tol, OMEGA_SYMMETRY_TOL))))
            try:
                d = omega_consistency(curve, bundle, tt, q, r, a_vec)
                checks.append(_entry_dict(_scalar(f"omega_stencil_{idx}", d, tol)))
            except SecondKindError as exn:
                checks.append(_error_dict(f"omega_stencil_{idx}", exn))
        for j, ap in enumerate(omega_a_period(curve, bundle, r_last).tolist(), 1):
            checks.append(_entry_dict(identity_entry(f"omega_a_period_{j}", ap, 0.0,
                                                     min(tol, DEFAULT_IDENTITY_TOL))))
    return checks


def _battery_genus1(curve, args) -> list:
    tol = min(args.tol, GENUS1_IDENTITY_TOL)
    checks: list = []
    bundle = compute_periods(curve, args.quad_tol)
    checks.extend(_entry_dict(e) for e in _gate_entries(bundle))
    tt = theta_table(bundle, tol=args.theta_tol)
    checks.extend(_entry_dict(e) for e in weierstrass_eta(curve, bundle, tt, tol).entries)
    checks.append(_entry_dict(thomae_genus1_defect(tt, tol)))
    checks.extend(_expansion_checks(curve, bundle, tt, None, args.order))
    return checks


def _verify(args) -> tuple[dict, int]:
    given = _load_curve(args)
    curves: list[tuple[str, HyperellipticCurve]] = []
    if given is not None:
        curves.append(("given", given))
    else:
        curves.append(("standard_genus2", curve_from_branch_points(STANDARD_BRANCH_POINTS)))
    if args.suite == "full":
        rng_c = np.random.default_rng(args.seed)
        curves.append(("random_genus2_a", random_curve(rng_c)))
        curves.append(("random_genus2_b", random_curve(rng_c)))
        curves.append(("random_genus2_lam4zero", random_curve(rng_c, zero_trace=True)))
        curves.append(("random_genus1_a", random_curve(rng_c, genus=1)))
        curves.append(("random_genus1_real", random_curve(rng_c, genus=1, real=True)))

    rng_pts = np.random.default_rng((args.seed, 1))
    curve_reports = []
    failures = 0
    for pos, (name, curve) in enumerate(curves):
        omega_pairs = 0
        if curve.genus == 2 and pos == 0:
            omega_pairs = 1 if args.suite == "quick" else 2
        try:
            if curve.genus == 2:
                checks = _battery_genus2(curve, args, rng_pts, omega_pairs)
            else:
                checks = _battery_genus1(curve, args)
        except SecondKindError as exn:
            checks = [_error_dict("curve_pipeline", exn)]
        n_fail = sum(1 for c in checks if c["status"] == "fail")
        failures += n_fail
        curve_reports.append({
            "name": name,
            "curve": _curve_dict(curve),
            "checks": checks,
            "failures": n_fail,
        })
    report = {
        "suite": args.suite,
        "seed": int(args.seed),
        "tolerances": {
            "identity": float(args.tol),
            "kappa_route": float(KAPPA_ROUTE_TOL),
            "omega_stencil": float(args.tol),
            "expansion_residual": float(RESIDUAL_TOL),
            "quad": float(args.quad_tol),
            "theta": float(args.theta_tol),
        },
        "curves": curve_reports,
        "failures": failures,
        "status": "pass" if failures == 0 else "fail",
    }
    return report, (0 if failures == 0 else 1)


# ---------------------------------------------------------------- rendering

def _render_text(report: dict, out) -> None:
    def walk(d, prefix=""):
        if isinstance(d, dict) and "identity" in d and "status" in d:
            defect = d.get("defect")
            tail = f"defect={defect:.3e}" if defect is not None else d.get("error", "")
            sign = f" sign={d['sign']:+d}" if "sign" in d else ""
            print(f"{prefix}{d['status']:>4}  {d['identity']:<28} {tail}{sign}", file=out)
            return
        if isinstance(d, dict):
            for k, v in d.items():
                if isinstance(v, (dict, list)):
                    print(f"{prefix}{k}:", file=out)
                    walk(v, prefix + "  ")
                else:
                    print(f"{prefix}{k}: {v}", file=out)
            return
        if isinstance(d, list):
            for v in d:
                if isinstance(v, (dict, list)):
                    walk(v, prefix)
                else:
                    print(f"{prefix}{v}", file=out)
            return
        print(f"{prefix}{d}", file=out)

    walk(report)


def _emit(report: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        print(_dump(report), file=out)
    else:
        _render_text(report, out)


# -------------------------------------------------------------------- main

@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="secondkind",
        description="Period matrices, theta constants and identity verification "
                    "for genus 1 and 2 hyperelliptic curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # level: how deep into the pipeline the subcommand runs; each level reads
    # the options of the levels below it and adds its own
    for name, level, text in [
        ("periods", 0, "first and second kind period matrices with diagnostics"),
        ("theta", 1, "theta-constant table at the curve's tau"),
        ("match", 1, "branch point / odd characteristic correspondence (genus 2)"),
        ("kappa", 2, "kappa by every independent route"),
        ("verify", 3, "run the identity verification suite"),
        ("expand", 2, "projective-connection expansions and kappa recovery"),
    ]:
        q = sub.add_parser(name, help=text)
        q.add_argument("--curve", help="inline curve JSON")
        q.add_argument("--curve-file", help="path to a curve JSON file")
        q.add_argument("--quad-tol", type=float, default=DEFAULT_QUAD_TOL,
                       help="quadrature tolerance (default 1e-12)")
        q.add_argument("--format", choices=("json", "text"), default="json")
        if level >= 1:
            q.add_argument("--theta-tol", type=float, default=DEFAULT_THETA_TOL,
                           help="theta truncation tolerance (default 1e-14)")
        if level >= 2:
            q.add_argument("--order", type=int, default=DEFAULT_ORDER,
                           help="expansion truncation order (default 12)")
        if level == 3:
            q.add_argument("--tol", type=float, default=DEFAULT_IDENTITY_TOL,
                           help="identity tolerance (default 1e-8)")
            q.add_argument("--seed", type=int, default=0,
                           help="seed for randomized suite curves and bi-differential points")
            q.add_argument("--suite", choices=("quick", "full"), default="quick")
    return p


def run(args) -> int:
    if args.command == "verify":
        report, code = _verify(args)
        _emit(report, args.format)
        return code

    curve = _load_curve(args)
    if curve is None:
        raise ValueError(f"'{args.command}' requires --curve or --curve-file")
    bundle = compute_periods(curve, args.quad_tol)
    if args.command == "periods":
        _emit(_periods_report(curve, bundle), args.format)
        return 0
    tt = theta_table(bundle, tol=args.theta_tol)
    if args.command == "theta":
        _emit(_theta_report(tt), args.format)
        return 0
    if args.command == "match":
        if curve.genus != 2:
            raise ValueError("matching is defined for genus-2 curves")
        _emit(_match_report(bolza_match(tt, curve)), args.format)
        return 0
    if args.command == "kappa":
        if curve.genus == 2:
            m = bolza_match(tt, curve)
            _emit(_kappa_report_g2(curve, bundle, tt, m, args.order), args.format)
        else:
            _emit(_kappa_report_g1(curve, bundle, tt, args.order), args.format)
        return 0
    if args.command == "expand":
        m = bolza_match(tt, curve) if curve.genus == 2 else None
        _emit(_expand_report(curve, bundle, tt, m, args.order), args.format)
        return 0
    raise ValueError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            code = run(args)
        except BrokenPipeError:
            raise
        except (SecondKindError, ValueError, OSError) as ex:
            _emit({"error": {"type": type(ex).__name__, "message": str(ex)}}, args.format)
            code = 2
        sys.stdout.flush()  # so that a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # send what is still buffered, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status of a writer killed by SIGPIPE


if __name__ == "__main__":
    sys.exit(main())

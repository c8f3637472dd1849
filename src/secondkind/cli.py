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
    IdentityDefects,
    identity_entries,
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


def _dump(obj) -> str:
    """Deterministic JSON with fixed 17-significant-digit floats.

    Dispatches on the exact type of the values the report builders make;
    _dump_other takes the rest (tuples, numpy scalars, subclasses).  An
    IdentityDefects block in a list is a run of its entries (_dump_block).
    """
    t = type(obj)
    if t is float:
        return f"{obj + 0.0:.17g}"
    if t is list:
        if len(obj) == 2 and type(obj[0]) is float and type(obj[1]) is float:
            return f"[{obj[0] + 0.0:.17g},{obj[1] + 0.0:.17g}]"
        return "[" + ",".join([_dump(v) for v in obj]) + "]"
    if t is dict:
        return "{" + ",".join([_json_str(str(k)) + ":" + _dump(v) for k, v in obj.items()]) + "}"
    if t is IdentityDefects:
        return _dump_block(obj)
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
        return "{" + ",".join(_json_str(str(k)) + ":" + _dump(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, (int, np.integer)):  # bool has no subclasses, so not a bool here
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _num(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    raise TypeError(f"unserializable value of type {type(obj).__name__}")


def _signs(block: IdentityDefects, text: str) -> list:
    """text.format(sign) per entry of a signed block, "" per entry of an unsigned one."""
    if block.sign is None:
        return [""] * len(block.label)
    return [text.format(s) for s in block.sign.tolist()]


def _dump_block(b: IdentityDefects) -> str:
    """The block's entries as JSON objects joined by commas, keys in the order
    identity, lhs, rhs, defect, sign (signed blocks only), status."""
    return ",".join([
        f'{{"identity":{_json_str(label)},"lhs":[{lr + 0.0:.17g},{li + 0.0:.17g}],'
        f'"rhs":[{rr + 0.0:.17g},{ri + 0.0:.17g}],"defect":{d + 0.0:.17g}{sign},'
        f'"status":{_json_str(status)}}}'
        for label, lr, li, rr, ri, d, sign, status in zip(
            b.label, b.lhs.real.tolist(), b.lhs.imag.tolist(), b.rhs.real.tolist(),
            b.rhs.imag.tolist(), b.defect.tolist(), _signs(b, ',"sign":{}'), b.status)])


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _mat(m) -> list:
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[_pair(v) for v in row] for row in arr]


def _char_ints(ch) -> list:
    return [int(v) for v in ch.top] + [int(v) for v in ch.bottom]


def _error_dict(label: str, ex: Exception) -> dict:
    return {
        "identity": label,
        "status": "fail",
        "error": f"{type(ex).__name__}: {ex}",
    }


def _gates(labels, lhs, defect, passed) -> IdentityDefects:
    """Scalar gates as an unsigned block: lhs is the gated value, rhs 0."""
    lhs = np.asarray(lhs, dtype=float)
    return IdentityDefects(tuple(labels), lhs.astype(complex), np.zeros(lhs.shape, complex),
                           np.asarray(defect, dtype=float), None,
                           tuple(np.where(passed, "pass", "fail").tolist()))


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
    return {
        "kappa_direct": _mat(rep.kappa_direct),
        "kappa_even_pair": {f"{i}{j}": _mat(v) for (i, j), v in sorted(rep.kappa_by_even_pair.items())},
        "kappa_even_sum": _mat(rep.kappa_even_sum),
        "kappa_odd": {str(i + 1): _mat(rep.kappa_by_odd[m.delta(i + 1)]) for i in range(5)},
        "kappa_odd_sum": _mat(rep.kappa_odd_sum),
        "kappa_expansion": _mat(ex["kappa"]),
        "defects": {**rep.defect_table, "expansion": _kappa_gap(ex, bundle)},
    }


def _kappa_report_g1(curve, bundle, tt, order) -> dict:
    ex = expansion_match(curve, bundle, tt, None, order=order)
    return {
        "kappa_direct": _mat(bundle.kappa),
        "kappa_expansion": _mat(ex["kappa"]),
        "defects": {"expansion": _kappa_gap(ex, bundle)},
        "identities": [weierstrass_eta(curve, bundle, tt), thomae_genus1_defect(tt)],
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

def _gate_entries(bundle) -> IdentityDefects:
    eig = float(bundle.im_tau_min_eig)
    legendre, tau, eta = bundle.legendre_defect, bundle.tau_asymmetry, bundle.eta_prime_consistency
    return _gates(("gate_legendre", "gate_tau_asymmetry", "gate_im_tau_positive",
                   "gate_eta_prime_consistency"),
                  [legendre, tau, eig, eta], [legendre, tau, max(0.0, -eig), eta],
                  [legendre < bundle.legendre_gate, tau < bundle.tau_gate, eig > 0,
                   eta < bundle.eta_prime_gate])


def _expansion_checks(curve, bundle, tt, m, order: int):
    """The expansion route's gap and residual as a block, or its refusal."""
    try:
        ex = expansion_match(curve, bundle, tt, m, order=order)
    except SecondKindError as exn:
        return _error_dict("kappa_route_expansion", exn)
    v = np.array([_kappa_gap(ex, bundle), ex["residual"]])
    return _gates(("kappa_route_expansion", "expansion_residual"), v, v,
                  v < [KAPPA_ROUTE_TOL, RESIDUAL_TOL])


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
    """The genus-2 checks as IdentityDefects blocks and refusal dicts, in report order."""
    tol = args.tol
    bundle = compute_periods(curve, args.quad_tol)
    tt = theta_table(bundle, tol=args.theta_tol)
    m = bolza_match(tt, curve)
    res = max(m.residuals)
    routes = kappa_report(curve, bundle, tt, m).defect_table
    gaps = np.array(list(routes.values()))
    checks = [
        _gate_entries(bundle),
        _gates(("gate_matching_residual",), [res], [res], [res < MATCH_RESIDUAL_TOL]),
        _gates([f"kappa_route_{name}" for name in routes], gaps, gaps, gaps < KAPPA_ROUTE_TOL),
        _expansion_checks(curve, bundle, tt, m, args.order),
        thomae_defects(curve, bundle, tt, m, tol),
        rosenhain_defects(bundle, tt, m, tol),
        rosenhain_gamma_pairs(bundle, tt, m, tol),
        jacobi_inversion_check(curve, bundle, tt, m, tol),
    ]

    if omega_pairs > 0:
        a_vec = half_period(m.chars[0], bundle.tau)
        for idx in range(1, omega_pairs + 1):
            q, r = _omega_points(rng, curve)
            checks.append(identity_entries(
                (f"omega_symmetry_{idx}",), [omega_algebraic(curve, bundle, q, r)],
                [omega_algebraic(curve, bundle, r, q)], min(tol, OMEGA_SYMMETRY_TOL)))
            try:
                d = omega_consistency(curve, bundle, tt, q, r, a_vec)
            except SecondKindError as exn:
                checks.append(_error_dict(f"omega_stencil_{idx}", exn))
            else:
                checks.append(_gates((f"omega_stencil_{idx}",), [d], [d], [d < tol]))
        ap = omega_a_period(curve, bundle, r)
        checks.append(identity_entries([f"omega_a_period_{j}" for j in range(1, len(ap) + 1)],
                                       ap, np.zeros(len(ap)), min(tol, DEFAULT_IDENTITY_TOL)))
    return checks


def _battery_genus1(curve, args) -> list:
    """The genus-1 checks as IdentityDefects blocks and refusal dicts, in report order."""
    tol = min(args.tol, GENUS1_IDENTITY_TOL)
    bundle = compute_periods(curve, args.quad_tol)
    tt = theta_table(bundle, tol=args.theta_tol)
    return [_gate_entries(bundle), weierstrass_eta(curve, bundle, tt, tol),
            thomae_genus1_defect(tt, tol), _expansion_checks(curve, bundle, tt, None, args.order)]


def _verify(args) -> tuple[dict, int]:
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"identity tolerance must lie in (0, inf), got {args.tol}")
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
        n_fail = sum(c.status.count("fail") if type(c) is IdentityDefects else c["status"] == "fail"
                     for c in checks)
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
        if isinstance(d, IdentityDefects):
            for label, defect, sign, status in zip(d.label, d.defect.tolist(),
                                                   _signs(d, " sign={:+d}"), d.status):
                print(f"{prefix}{status:>4}  {label:<28} defect={defect:.3e}{sign}", file=out)
        elif isinstance(d, dict) and "identity" in d and "status" in d:  # an _error_dict
            print(f"{prefix}{d['status']:>4}  {d['identity']:<28} {d['error']}", file=out)
        elif isinstance(d, dict):
            for k, v in d.items():
                if isinstance(v, (dict, list)):
                    print(f"{prefix}{k}:", file=out)
                    walk(v, prefix + "  ")
                else:
                    print(f"{prefix}{k}: {v}", file=out)
        elif isinstance(d, list):
            for v in d:
                walk(v, prefix)
        else:
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

#!/usr/bin/env python3
"""python3 scripts/compare_verify.py OLD_SRC NEW_SRC: compare the CLI output of
two source trees, one subprocess per tree.

The first pass runs verify --suite quick and --suite full on seeds 0-79.  It
prints exit-code and status changes, sign changes (an entry whose recorded
sign flips while its status stays), the number of reports whose parsed
values differ and the number whose bytes differ, the ten largest defect
differences by label and the unequal omega_*/gate_* labels, and judges
each report whose bytes differ by its largest move, as the second pass
judges an output (``judge``).  The second pass runs periods, theta, match,
kappa, expand and verify on six named curves, each (command, curve) pair
three times: as is, with --format text, and with every option the command
reads set to a non-default value.  It prints each run whose exit code or
output bytes differ and, where both outputs parse as JSON, the largest move
of their numbers, where it sits and the two values, then the largest move
of the pass.  It marks a move beyond ROUNDOFF_MOVE, and outputs that cannot
be compared number by number, so that a roundoff-level move can be
told from a wrong number.  A --format text output prints the numbers of its
JSON twin, the same command and curve with no extra options, so it is judged
by that twin: marked when the twin is marked, or when the twin's bytes are
equal while the text differs.  A library pass computes, on the same six
curves, outputs that no command prints: ``abel_map`` from a lifted point
P to both lifts Q and Q' of another, into and out of every branch point,
``abel_from_infinity`` to every branch point, and the two maps to Q and Q'
again after all the others: where one of them takes the loop route, its
repeat reuses the loop that the first call integrated.  It adds maps whose
legs take deep piece trees (``deep_outputs``): on the six curves, from P to
points beside every branch point, off the line from P by 1e-4 and 1e-6 of
the branch point's distance from P (BESIDE), on both sheets; and ``abel_map``
on the standard curve shifted by +300 (FAR_CURVES) from the far point 40
max|e|^2 exp(i pi / 7), lifted on the principal sheet, whose legs are about
3.6e6 long, to its branch points and to both lifts of P and of Q.  A change of piece layout or of the order
in which pieces are added shows there.  It adds the benchmark's curve_sweep
mix (``sweep_outputs``) on seeded genus-1 and genus-2 draws and their
affine images x -> s x + c (``sweep_draws``), each at the default
tolerances and at quad_tol 1e-13 / theta_tol 1e-15: the ``compute_periods``
bundle (omega, omega', eta, eta', tau, kappa and every gate) and, at genus
2, the 18 matrices and the defects of ``kappa_report``.  Each is written as
JSON [re, im] pairs (or as the refusal it raised) and judged like a named
output.  A number moves by |a - b| relative to the largest modulus of the JSON array
it belongs to, over both outputs: a field of a list of records, such as
the theta command's characteristics, is one array over the records
(``array_scales``); a number in no array is judged against itself.  The
defect fields, and the sides they compare, are judged against the scale of
those sides as ``identities.relative_defect`` judges a defect, and the
residual and defect fields that are relative or absolute already as they
stand, as the verify gates judge them (``field_scales``).  An output whose
exit code changes is marked whatever its text.  Exits 1 on
any exit-code, status or sign change of the first pass, on any report of
the first pass that moves beyond ROUNDOFF_MOVE or whose bytes differ while
its parsed value is equal (a change of number formatting), and on any
marked output of the second or library pass: one that moves beyond
ROUNDOFF_MOVE, cannot be compared number by number, or changes its exit
code.  An output of those passes that moves at roundoff only is printed
but does not fail the comparison.
"""

import cmath
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from secondkind.identities import ABSOLUTE_FLOOR  # noqa: E402

#: Largest move of a number that still reads as roundoff.
ROUNDOFF_MOVE = 1e-12

#: Scalar fields that are defects already, relative or absolute, judged as
#: they stand: the match command's residual, the periods command's defects.
DEFECT_SUFFIXES = ("defect", "residual", "asymmetry", "consistency")

_PERIODS = ["--quad-tol", "1e-11"]
_THETA = _PERIODS + ["--theta-tol", "1e-13"]
_KAPPA = _THETA + ["--order", "10"]

#: Each command with a non-default value for every option it reads.
COMMANDS = {
    "periods": _PERIODS,
    "theta": _THETA,
    "match": _THETA,
    "kappa": _KAPPA,
    "expand": _KAPPA,
    "verify": _KAPPA + ["--tol", "1e-9"],
}

CURVES = {
    "standard": {"branch_points": [-2, -1, 0, 1, 2]},
    "skew": {"branch_points": [[-1.7, 0.4], [-0.6, -0.9], [0.2, 0.8], [1.1, -0.3], [1.8, 0.6]]},
    "lemniscatic": {"lambda": [0, -4, 0]},
    "generic_g1": {"branch_points": [[-1.3, 0.2], [0.5, -0.1], [0.9, -0.3]]},
    "shifted_48": {"branch_points": [48, 49, 50, 51, 52]},
    "unit_square": {"branch_points": [0, 1, [0, 1], [1, 1], [2, 1]]},
}

#: The standard curve shifted by +300: the legs of ``abel_map`` from the
#: far point 40 max|e|^2 exp(i pi / 7) are about 3.6e6 long.
FAR_CURVES = {"shifted_300": {"branch_points": [298, 299, 300, 301, 302]}}

#: How far from a branch point, in units of its distance from P, the
#: points Q of ``deep_outputs`` lie, off the line from P.
BESIDE = (1e-4, 1e-6)

#: The draws of ``sweep_draws`` by genus, each also as an affine image.
SWEEP_DRAWS = {2: 12, 1: 6}

#: Tolerances (quad_tol, theta_tol) of each draw: the defaults, and the
#: refined pair of the benchmark's "fine" curves.
SWEEP_TOLS = {"": (None, None), " fine": (1e-13, 1e-15)}


def sweep_draws(seed: int = 0) -> dict:
    """{name: [branch points as [re, im] pairs, quad_tol, theta_tol]}: for
    each genus, SWEEP_DRAWS points sets in the annulus 0.3 <= |e| <= 2, at
    least 0.2 apart, and the image of each under x -> s x + c with s
    log-uniform in [0.1, 10] and real c, |c| <= min(5, 5 s), each at every
    tolerance pair of SWEEP_TOLS (None for the default)."""
    rng, out = random.Random(seed), {}
    for g, count in SWEEP_DRAWS.items():
        for k in range(count):
            pts = []
            while len(pts) < 2 * g + 1:
                z = rng.uniform(0.3, 2.0) * cmath.exp(2j * math.pi * rng.random())
                if all(abs(z - w) >= 0.2 for w in pts):
                    pts.append(z)
            s = 10.0 ** rng.uniform(-1.0, 1.0)
            c = rng.uniform(-1.0, 1.0) * min(5.0, 5.0 * s)
            for image, zs in (("", pts), (" affine", [s * z + c for z in pts])):
                for label, tols in SWEEP_TOLS.items():
                    out[f"g{g} draw {k}{image}{label}"] = [[[z.real, z.imag] for z in zs], *tols]
    return out


#: Defines library_outputs(curves), deep_outputs(curves, far_curves,
#: beside) and sweep_outputs(draws), each {"curve map": [0, JSON] or [2,
#: error]}.
LIBRARY = """
import cmath
import json
from secondkind import (abel_from_infinity, abel_map, bolza_match, compute_periods,
                        curve_from_branch_points, kappa_report, theta_table)
from secondkind.cli import parse_curve
from secondkind.curves import CurvePoint, branch_scale
from secondkind.errors import SecondKindError
from secondkind.periods import DEFAULT_QUAD_TOL
from secondkind.theta import DEFAULT_THETA_TOL

GATES = ("legendre_defect", "legendre_gate", "eta_prime_gate", "tau_asymmetry", "tau_gate",
         "kappa_asymmetry", "im_tau_min_eig", "eta_prime_consistency")


def _setup(spec):
    curve = parse_curve(json.dumps(spec))
    e = curve.branch_points
    center = sum(e) / len(e)
    r = max(abs(z - center) for z in e)
    p, q = curve.lift(center + r * (0.31 + 0.52j)), center - r * (0.63 + 0.27j)
    return curve, compute_periods(curve), p, q


def _record(out, name, curve, bundle, maps):
    for label, frm, to in maps:
        try:
            v = (abel_from_infinity(curve, bundle, to) if frm is None
                 else abel_map(curve, bundle, frm, to))
            out[f"{name} {label}"] = [0, json.dumps([[z.real, z.imag] for z in v.tolist()])]
        except SecondKindError as ex:
            out[f"{name} {label}"] = [2, f"{type(ex).__name__}: {ex}"]


def library_outputs(curves):
    out = {}
    for name, spec in curves.items():
        curve, bundle, p, q = _setup(spec)
        to_q = [("P -> Q", p, curve.lift(q, -1)), ("P -> Q'", p, curve.lift(q))]
        maps = list(to_q)
        for k, z in enumerate(curve.branch_points):
            branch = CurvePoint(z, 0j)
            maps += [(f"P -> e{k}", p, branch), (f"e{k} -> P", branch, p),
                     (f"oo -> e{k}", None, branch)]
        maps += [(f"{label} again", frm, to) for label, frm, to in to_q]
        _record(out, name, curve, bundle, maps)
    return out


def deep_outputs(curves, far_curves, beside):
    out = {}
    for name, spec in curves.items():
        curve, bundle, p, _ = _setup(spec)
        maps = []
        for delta in beside:
            for k, z in enumerate(curve.branch_points):
                near = z + delta * 1j * (z - p.x)
                maps += [(f"P -> beside e{k} {delta:g}", p, curve.lift(near, -1)),
                         (f"P -> beside e{k} {delta:g}'", p, curve.lift(near))]
        _record(out, name, curve, bundle, maps)
    for name, spec in far_curves.items():
        curve, bundle, p, q = _setup(spec)
        far = curve.lift(40.0 * branch_scale(curve.branch_points) ** 2 * cmath.exp(1j * cmath.pi / 7))
        maps = [(f"far -> e{k}", far, CurvePoint(z, 0j)) for k, z in enumerate(curve.branch_points)]
        maps += [(f"far -> {label}", far, curve.lift(x, sheet))
                 for label, x, sheet in (("P", p.x, 1), ("P'", p.x, -1), ("Q", q, 1), ("Q'", q, -1))]
        _record(out, name, curve, bundle, maps)
    return out


def _pairs(a):
    return [[[z.real, z.imag] for z in row] for row in a.tolist()]


def sweep_outputs(draws):
    out = {}
    for name, (points, quad_tol, theta_tol) in draws.items():
        try:
            curve = curve_from_branch_points([complex(*p) for p in points])
            bundle = compute_periods(curve, quad_tol or DEFAULT_QUAD_TOL)
            rec = {k: _pairs(getattr(bundle, k))
                   for k in ("omega", "omega_prime", "eta", "eta_prime", "tau", "kappa")}
            rec["gates"] = {k: getattr(bundle, k) for k in GATES}
            rec["chain_signs"] = list(bundle.chain_signs)
            if curve.genus == 2:
                tt = theta_table(bundle, tol=theta_tol or DEFAULT_THETA_TOL)
                m = bolza_match(tt, curve)
                rep = kappa_report(curve, bundle, tt, m)
                rec["kappa_direct"] = _pairs(rep.kappa_direct)
                rec["routes"] = {
                    **{f"even_pair_{i}{j}": _pairs(v) for (i, j), v in rep.kappa_by_even_pair.items()},
                    "even_sum": _pairs(rep.kappa_even_sum),
                    **{f"odd_{i}": _pairs(rep.kappa_by_odd[m.delta(i)]) for i in range(1, 6)},
                    "odd_sum": _pairs(rep.kappa_odd_sum)}
                rec["defects"] = rep.defect_table
            out[name] = [0, json.dumps(rec)]
        except SecondKindError as ex:
            out[name] = [2, f"{type(ex).__name__}: {ex}"]
    return out
"""

RUNNER = """
import contextlib, io, json, sys, warnings
from secondkind.cli import main
warnings.simplefilter("ignore")
commands, curves, far_curves, beside, draws = json.loads(sys.argv[1])
out = {}
for suite in ("quick", "full"):
    for seed in range(80):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = main(["verify", "--suite", suite, "--seed", str(seed)])
        out[f"{suite} seed {seed}"] = [code, buf.getvalue()]
named = {}
for command, options in commands.items():
    for name, curve in curves.items():
        for variant, extra in (("", []), (" text", ["--format", "text"]),
                               (" options", options)):
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                code = main([command, "--curve", json.dumps(curve), *extra])
            named[f"{command} {name}{variant}"] = [code, buf.getvalue()]
json.dump([out, named, library_outputs(curves) | deep_outputs(curves, far_curves, beside)
           | sweep_outputs(draws)], sys.stdout)
"""


def reports(src: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = json.dumps([COMMANDS, CURVES, FAR_CURVES, BESIDE, sweep_draws()])
    run = subprocess.run([sys.executable, "-c", LIBRARY + RUNNER, argv],
                         env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(run.stdout)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _moduli(v) -> list:
    """Moduli of the [re, im] pairs nested in v, and of any other number in it."""
    if isinstance(v, list):
        if len(v) == 2 and all(map(_is_number, v)):
            return [abs(complex(*v))]
        return [m for x in v for m in _moduli(x)]
    return [abs(v)] if _is_number(v) else []


def _size(*sides) -> float:
    """Largest modulus in the sides, or 1 below ABSOLUTE_FLOOR, where
    ``identities.relative_defect`` judges absolutely."""
    size = max(m for v in sides for m in _moduli(v))
    return size if size >= ABSOLUTE_FLOOR else 1.0


def field_scales(v0: dict, v1: dict) -> dict:
    """What the moves of the defect fields of a JSON object, and of the
    sides they compare, are judged against, as ``identities.relative_defect``
    judges a defect: the larger side S over both reports.  An identity entry
    (lhs, rhs, defect) has its sides judged against S; its defect is
    |lhs - rhs| already divided by S, so it is judged as it stands.  Each of
    the kappa command's ``defects`` is max |kappa_route - kappa_direct|,
    judged against S = max |kappa_direct|.  A scalar field named by
    DEFECT_SUFFIXES is judged as it stands: the expand command's
    ``residual`` is already divided by max(1, max |b|) of its system, as a
    defect is by its sides, the match command's by max(1, |e_k|), and the
    periods command's defects are absolute, as the verify gates judge
    them."""
    if {"lhs", "rhs", "defect"} <= v0.keys():
        side = _size(v0["lhs"], v0["rhs"], v1["lhs"], v1["rhs"])
        return {"lhs": side, "rhs": side, "defect": 1.0}
    if {"kappa_direct", "defects"} <= v0.keys():
        return {"defects": _size(v0["kappa_direct"], v1["kappa_direct"])}
    return {k: 1.0 for k, v in v0.items() if k.endswith(DEFECT_SUFFIXES) and _is_number(v)}


def _is_array(v) -> bool:
    """Whether v is a JSON array of numbers, nested or not."""
    return isinstance(v, list) and all(_is_array(x) if isinstance(x, list) else _is_number(x)
                                       for x in v)


def array_scales(a: list, b: list) -> dict:
    """What the numbers of two lists of flat records are judged against, by
    field: the largest modulus of that field over every record of both, for
    each field whose values are arrays.  The column of such a table, such as
    the values or the gradients of the theta command's characteristics, is
    one array.  A record is flat when no field holds a record or a list of
    them; {} when the lists hold anything else."""
    records = a + b
    if not records or not all(isinstance(r, dict) and all(
            _is_array(v) or not isinstance(v, (dict, list)) for v in r.values()) for r in records):
        return {}
    fields = set.intersection(*(set(r) for r in records))
    return {k: max([0.0] + [m for r in records for m in _moduli(r[k])])
            for k in fields if all(_is_array(r[k]) for r in records)}


def number_pairs(a, b, path="", scale=None, columns=None):
    """(path, a, b, scale) for each number at the same place in two parsed
    JSON values, or None where their shapes or non-numeric entries differ.
    scale is what the number's move is judged against, None for itself: the
    largest modulus of the outermost array that holds it, over both values,
    or of its field over a list of records (``array_scales``, passed to each
    record as columns), unless ``field_scales`` judges its field."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        scales = dict.fromkeys(a, scale) | (columns or {}) | field_scales(a, b)
        parts = [number_pairs(a[k], b[k], f"{path}.{k}", scales[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        columns = array_scales(a, b)
        if scale is None and not columns and _moduli(a + b):
            scale = max(_moduli(a + b))
        parts = [number_pairs(x, y, f"{path}[{i}]", scale, columns)
                 for i, (x, y) in enumerate(zip(a, b))]
    elif _is_number(a) and _is_number(b):
        return [(path, a, b, scale)]
    else:
        return [] if a == b else None
    if any(part is None for part in parts):
        return None
    return [pair for part in parts for pair in part]


def largest_move(text0: str, text1: str) -> tuple:
    """(move, where): the largest move over the numbers of two JSON outputs,
    |a - b| over its scale (``number_pairs``) or over max(|a|, |b|) where it
    has none, and where it sits with the two values; move is None when the
    outputs cannot be compared number by number."""
    try:
        pairs = number_pairs(json.loads(text0), json.loads(text1))
    except json.JSONDecodeError:
        return None, "not JSON"
    if pairs is None:
        return None, "JSON shapes differ"
    if not pairs:
        return 0.0, "no numbers"
    move, path, a, b = max(
        ((abs(a - b) / (max(abs(a), abs(b)) if scale is None else scale) if a != b else 0.0),
         path, a, b) for path, a, b, scale in pairs)
    return move, f"at {path or '.'} ({a!r} vs {b!r})"


def judge(old: dict, new: dict, what: str) -> tuple:
    """Print each output whose exit code or bytes differ between two runs,
    with its largest move, marked when beyond roundoff or when its exit code
    changed, and the largest move of all with where it sits; a text variant
    is judged by its JSON twin.  Returns (how many differ, how many of them
    are marked)."""
    # a text variant after its JSON twin, which judges it
    diffs = sorted((run for run, result in old.items() if new[run] != result),
                   key=lambda run: run.endswith(" text"))
    flagged, moves = {}, {}
    for run in diffs:
        twin = run.removesuffix(" text")
        (code0, text0), (code1, text1) = old[run], new[run]
        if twin == run:
            move, where = largest_move(text0, text1)
            flagged[run] = move is None or move > ROUNDOFF_MOVE
            moves[run] = (math.inf if move is None else move, where)
            note = f"largest move {'-' if move is None else f'{move:.3e}'} {where}"
        else:
            flagged[run] = flagged.get(twin, True)
            note = f"judged by {twin}" if twin in flagged else f"{twin} has equal bytes"
        if code0 != code1:
            flagged[run] = True
            note += f"; exit code {code0} -> {code1}"
        print(f"output differs: {run}; {note}{' BEYOND ROUNDOFF' if flagged[run] else ''}")
    if moves:
        run, (move, where) = max(moves.items(), key=lambda item: item[1][0])
        print(f"largest move of the {what} outputs {move:.3e}: {run} {where}")
    beyond = sum(flagged.values())
    print(f"{len(diffs)} of {len(old)} {what} outputs differ, "
          f"{beyond} of them beyond roundoff ({ROUNDOFF_MOVE:g})")
    return len(diffs), beyond


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    (old, old_named, old_library), (new, new_named, new_library) = (reports(src) for src in argv)
    changes, flips, moved, unequal, differing, bytes_differ, formatting = [], [], {}, set(), 0, 0, []
    for run, (code0, text0) in old.items():
        code1, text1 = new[run]
        rep0, rep1 = json.loads(text0), json.loads(text1)
        differing += rep0 != rep1
        bytes_differ += text0 != text1
        if text0 != text1 and rep0 == rep1:
            formatting.append(run)
        if code0 != code1:
            changes.append(f"{run}: exit code {code0} -> {code1}")
        for c0, c1 in zip(rep0["curves"], rep1["curves"]):
            for e0, e1 in zip(c0["checks"], c1["checks"]):
                label = e0["identity"]
                if (label, e0["status"]) != (e1["identity"], e1["status"]):
                    changes.append(f"{run} {c0['name']} {label}: {e0['status']} -> {e1['status']}")
                else:
                    if e0.get("sign") != e1.get("sign"):
                        flips.append(f"{run} {c0['name']} {label}: sign {e0.get('sign')} -> "
                                     f"{e1.get('sign')}, status {e0['status']}")
                    if "defect" in e0 and "defect" in e1:
                        moved[label] = max(moved.get(label, 0.0), abs(e0["defect"] - e1["defect"]))
                if e0 != e1 and label.startswith(("omega_", "gate_")):
                    unequal.add(label)
    sys.stdout.writelines(line + "\n" for line in changes + flips)
    for label, d in sorted(moved.items(), key=lambda kv: -kv[1])[:10]:
        print(f"largest defect difference {d:.3e}  {label}")
    print("unequal omega_/gate_ labels:", ", ".join(sorted(unequal)) or "none")
    sys.stdout.writelines(f"bytes differ, parsed value equal: {run}\n" for run in formatting)
    print(f"{len(changes)} exit-code or status changes and {len(flips)} sign changes over "
          f"{len(old)} runs, {differing} reports differ in value, {bytes_differ} in bytes")
    # any output may move at roundoff
    beyond = sum(judge(*runs)[1] for runs in (
        (old, new, "verify (suite, seed)"),
        (old_named, new_named, "(command, curve, variant)"),
        (old_library, new_library, "library (curve, map)")))
    return 1 if changes or flips or formatting or beyond else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""python3 scripts/leg_reference.py [OUT]: 30-digit integrals along straight
Abel legs and s^2 legs into a branch point, written to
tests/data/leg_reference.json (or OUT).

Standard library and mpmath only.  Each case is a straight leg z0 -> z1 on
the curve y^2 = 4 prod (x - e_k), with y = sheet * 2 prod sqrt(z0 - e_k)
(principal roots) at z0 and continued along the leg: each factor keeps its
principal root until the leg crosses that factor's cut (x - e_k real and
negative) and is negated after, as ``paths.CutCrossings`` continues it.
The integrals are those of x^i / y dx, i < g, the u-basis rows of
``periods._u_rows``.

mpmath's tanh-sinh quadrature runs at 40 digits on the leg split at every
cut crossing, at the foot of every branch point on the leg, and at points
graded geometrically away from each foot (its distance from the leg times
2^m), so that every piece sees its nearest branch point at about its own
length.  Each value is computed again at 50 digits and kept to 30 digits
only when the two agree to 1e-30 of the leg's largest integral.

An s^2 leg runs from z0 into the branch point z1 = e along x = e +
(z0 - e) s^2, s from 1 to 0, as ``paths.integrate_rows_to_branch_point``
takes it: x^i / y dx = 2 (z0 - e) x^i / w ds with y = s w, w = sqrt(z0 - e)
2 prod_p sqrt((e - p) + (z0 - e) s^2) over the other branch points p,
smooth through s = 0.  Each factor (e - p) + (z0 - e) u, u in [0, 1], moves
on a segment that keeps clear of 0; its root takes its cut along the ray
from 0 away from the segment's point nearest 0, so it never crosses it, and
w takes the sign that puts s w at s = 1 on the sheet of y at z0.  The other
branch points sit at s = +-sqrt((p - e) / (z0 - e)); the splits are graded
toward the foot of each on [0, 1].

The cases:
- ``random``: legs in the box |Re|, |Im| <= 3 on random genus-1 and
  genus-2 curves (branch points in |Re|, |Im| <= 2, at least 0.3 apart),
  each keeping 0.02 from every branch point;
- ``near_miss``: legs of length 2.5 on a skew genus-2 curve passing 1e-3
  to 1e-6 of their length from a branch point;
- ``far``: long legs of the standard curve (-2, -1, 0, 1, 2) shifted by
  48 and by 300, from the far point 40 max(|e|)^2 exp(i pi / 7) to the
  points 0.35 from e_0, e_2 and e_4 toward it and to 0.5 + 1i + the shift;
- ``branch``: s^2 legs into every branch point of the standard, the skew
  and a genus-1 curve from 1e-3, 0.35 and 3 times the distance to the
  nearest other branch point, on a ray whose segment keeps 0.3 of that
  distance from the others; from the far point of the shifted curves into
  e_0, e_2 and e_4; and into e_3 = 1 of the standard curve from 1e-14 away.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "leg_reference.json"

STANDARD = (-2.0, -1.0, 0.0, 1.0, 2.0)
SKEW = (-1.7 + 0.4j, -0.6 - 0.9j, 0.2 + 0.8j, 1.1 - 0.3j, 1.8 + 0.6j)
GENUS1 = (-1.2 + 0.3j, 0.1 - 0.5j, 0.9 + 0.7j)


def _distance(z0: complex, z1: complex, p: complex) -> float:
    d = z1 - z0
    t = min(1.0, max(0.0, ((p - z0) * d.conjugate()).real / abs(d) ** 2))
    return abs(p - (z0 + t * d))


def _random_cases(rng: random.Random, n: int) -> list:
    out = []
    while len(out) < n:
        k = rng.choice([3, 5])
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(k)]
        if min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]) <= 0.3:
            continue
        z0, z1 = (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2))
        if min(_distance(z0, z1, e) for e in pts) < 0.02:
            continue
        out.append(("random", pts, z0, z1, rng.choice([1, -1])))
    return out


def _near_miss_cases() -> list:
    out = []
    for j, gap in enumerate((1e-3, 1e-4, 1e-5, 1e-6)):
        for k, angle, at in ((2, 0.4, 0.37), (3, 2.1, 0.61)):
            e, u, length = SKEW[k], cmath.exp(1j * angle), 2.5
            z0 = e + (1 if j % 2 else -1) * 1j * u * gap * length - at * length * u
            out.append(("near_miss", list(SKEW), z0, z0 + length * u, (-1) ** (j + k)))
    return out


def _far_cases() -> list:
    out = []
    for shift in (48.0, 300.0):
        pts = [complex(x + shift) for x in STANDARD]
        far = _far_point(pts)
        ends = [pts[k] + 0.35 * (far - pts[k]) / abs(far - pts[k]) for k in (0, 2, 4)]
        out += [("far", pts, far, end, 1) for end in ends + [0.5 + 1j + shift]]
    return out


def _far_point(points) -> complex:
    return 40.0 * max(abs(e) for e in points) ** 2 * cmath.exp(1j * math.pi / 7)


def _branch_cases() -> list:
    out = []
    for points in (STANDARD, SKEW, GENUS1):
        pts = [complex(e) for e in points]
        for k, e in enumerate(pts):
            others = pts[:k] + pts[k + 1:]
            gap = min(abs(e - p) for p in others)
            for j, scale in enumerate((1e-3, 0.35, 3.0)):
                for angle in (0.7, 2.3, 3.9, 5.5):
                    z0 = e + scale * gap * cmath.exp(1j * angle)
                    if min(_distance(z0, e, p) for p in others) >= 0.3 * gap:
                        break
                else:
                    raise RuntimeError(f"no clear ray into {e}")
                out.append(("branch", pts, z0, e, (-1) ** (k + j)))
    for shift in (48.0, 300.0):
        pts = [complex(x + shift) for x in STANDARD]
        out += [("branch", pts, _far_point(pts), pts[k], 1) for k in (0, 2, 4)]
    pts = [complex(x) for x in STANDARD]
    return out + [("branch", pts, pts[3] + 1e-14 * cmath.exp(0.7j), pts[3], 1)]


def _graded(splits: set, foot, gap) -> None:
    """Add to splits the points of (0, 1) graded away from foot: foot +-
    gap 2^m, and foot itself."""
    for m in range(60):
        for s in (foot - gap * 2 ** m, foot + gap * 2 ** m):
            if 0 < s < 1:
                splits.add(s)
    if 0 < foot < 1:
        splits.add(foot)


def branch_integrals(points, z0: complex, e: complex, sheet: int, dps: int) -> list:
    """The integrals of x^i / y dx, i < g, along the s^2 leg from z0 into
    the branch point e, at dps digits."""
    with mp.workdps(dps):
        e, c = mp.mpc(e), mp.mpc(z0) - mp.mpc(e)
        others = [mp.mpc(p) for p in points if complex(p) != complex(e)]
        heads = []  # (e - p, m): the unit m points at the segment's point nearest 0
        for p in others:
            a = e - p
            u = min(1, max(0, -(a * mp.conj(c)).real / abs(c) ** 2))
            near = a + c * u
            heads.append((a, near / abs(near)))

        def w(s):
            out = 2 * mp.sqrt(c)
            for a, m in heads:
                out *= mp.sqrt(m) * mp.sqrt((a + c * s ** 2) / m)
            return out

        y0 = sheet * 2 * mp.fprod(mp.sqrt(mp.mpc(z0) - mp.mpc(p)) for p in points)
        sign = 1 if abs(w(1) - y0) <= abs(w(1) + y0) else -1
        splits = {mp.mpf(0), mp.mpf(1)}
        for p in others:
            tau = mp.sqrt((p - e) / c)
            for t in (tau, -tau):
                _graded(splits, t.real, abs(t.imag))

        def row(i):
            return lambda s: -2 * c * (e + c * s ** 2) ** i / (sign * w(s))

        g = (len(points) - 1) // 2
        return [mp.quad(row(i), sorted(splits)) for i in range(g)]


def leg_integrals(points, z0: complex, z1: complex, sheet: int, dps: int) -> list:
    """The integrals of x^i / y dx, i < g, along the leg, at dps digits."""
    with mp.workdps(dps):
        a, d = mp.mpc(z0), mp.mpc(z1) - mp.mpc(z0)
        es = [mp.mpc(e) for e in points]
        cuts, splits = [], {mp.mpf(0), mp.mpf(1)}
        for e in es:
            w0 = a - e
            t = -w0.imag / d.imag if d.imag != 0 else mp.mpf(-1)
            crossing = 0 < t < 1 and (w0 + d * t).real < 0
            cuts.append(t if crossing else None)
            if crossing:
                splits.add(t)
            foot = ((e - a) * mp.conj(d)).real / abs(d) ** 2
            _graded(splits, foot, abs(e - (a + d * foot)) / abs(d))

        def row(i):
            def f(t):
                x = a + d * t
                y = 2 * sheet
                for e, tc in zip(es, cuts):
                    r = mp.sqrt(x - e)
                    y *= -r if tc is not None and t > tc else r
                return x ** i / y * d
            return f

        g = (len(points) - 1) // 2
        return [mp.quad(row(i), sorted(splits)) for i in range(g)]


def case_record(name, points, z0, z1, sheet) -> dict:
    integrals = branch_integrals if name == "branch" else leg_integrals
    lo, hi = integrals(points, z0, z1, sheet, 40), integrals(points, z0, z1, sheet, 50)
    size = max(abs(v) for v in hi)
    drift = max(abs(u - v) for u, v in zip(lo, hi))
    if drift > mp.mpf(10) ** -30 * max(1, size):
        raise RuntimeError(f"{name} {z0} -> {z1}: 40 and 50 digits differ by {mp.nstr(drift, 3)}")

    def pair(z):
        return [repr(z.real), repr(z.imag)]

    return {
        "kind": name,
        "branch_points": [pair(complex(e)) for e in points],
        "z0": pair(complex(z0)),
        "z1": pair(complex(z1)),
        "sheet": sheet,
        "integrals": [[mp.nstr(v.real, 30), mp.nstr(v.imag, 30)] for v in hi],
    }


def cases() -> list:
    return (_random_cases(random.Random(2601), 12) + _near_miss_cases() + _far_cases()
            + _branch_cases())


def main(argv) -> int:
    out = Path(argv[1]) if len(argv) > 1 else OUT
    records = [case_record(*case) for case in cases()]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"digits": 30, "cases": records}, indent=1) + "\n")
    print(f"{len(records)} legs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

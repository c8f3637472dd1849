#!/usr/bin/env python3
"""python3 scripts/leg_reference.py [OUT]: 30-digit integrals along straight
Abel legs, written to tests/data/leg_reference.json (or OUT).

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

The cases:
- ``random``: legs in the box |Re|, |Im| <= 3 on random genus-1 and
  genus-2 curves (branch points in |Re|, |Im| <= 2, at least 0.3 apart),
  each keeping 0.02 from every branch point;
- ``near_miss``: legs of length 2.5 on a skew genus-2 curve passing 1e-3
  to 1e-6 of their length from a branch point;
- ``far``: long legs of the standard curve (-2, -1, 0, 1, 2) shifted by
  48 and by 300, from the far point 40 max(|e|)^2 exp(i pi / 7) to the
  points 0.35 from e_0, e_2 and e_4 toward it (where ``abel_map``'s route
  into those branch points stages) and to 0.5 + 1i + the shift.
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
        far = 40.0 * max(abs(e) for e in pts) ** 2 * cmath.exp(1j * math.pi / 7)
        ends = [pts[k] + 0.35 * (far - pts[k]) / abs(far - pts[k]) for k in (0, 2, 4)]
        out += [("far", pts, far, end, 1) for end in ends + [0.5 + 1j + shift]]
    return out


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
            gap = abs(e - (a + d * foot)) / abs(d)
            for m in range(60):
                for s in (foot - gap * 2 ** m, foot + gap * 2 ** m):
                    if 0 < s < 1:
                        splits.add(s)
            if 0 < foot < 1:
                splits.add(foot)

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
    lo, hi = leg_integrals(points, z0, z1, sheet, 40), leg_integrals(points, z0, z1, sheet, 50)
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
    return _random_cases(random.Random(2601), 12) + _near_miss_cases() + _far_cases()


def main(argv) -> int:
    out = Path(argv[1]) if len(argv) > 1 else OUT
    records = [case_record(*case) for case in cases()]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"digits": 30, "cases": records}, indent=1) + "\n")
    print(f"{len(records)} legs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

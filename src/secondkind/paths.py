"""Path integration support: branch-point avoidance, analytic continuation
of y = sqrt(P(x)) along polylines, and adaptive Gauss-Legendre quadrature.

The continuation rule is the standard predictor scheme: advance x in steps
small relative to the distance to the nearest branch point, evaluate the
principal square root, and pick the sign closer to the previous value.  A
step is accepted only when the two sheet candidates are well separated from
the drift, so a wrong-sheet jump cannot pass silently.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as nleg

from .curves import HyperellipticCurve
from .errors import PathThroughBranchPoint, QuadratureNonConvergence

_GL_NODES, _GL_WEIGHTS = nleg.leggauss(32)

#: Default clearance (relative to branch scale) for routing paths.
PATH_CLEARANCE = 1e-3

_MAX_DEPTH = 26


def adaptive_gl(f, a: float, b: float, tol: float):
    """Integrate the row-vector function f over [a, b] adaptively.

    f maps an array of nodes to an array (rows, nodes).  Panels are bisected
    until two refinement levels agree within the locally allocated share of
    tol, measured against the overall magnitude of the first estimate.
    """
    whole = _panel(f, a, b)
    scale = max(1.0, float(np.max(np.abs(whole))))
    return _refine(f, a, b, whole, tol * scale / (b - a), 0)


def _panel(f, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _GL_NODES))
    return half * (vals @ _GL_WEIGHTS)


def _refine(f, a, b, whole, tol_density, depth):
    m = 0.5 * (a + b)
    left = _panel(f, a, m)
    right = _panel(f, m, b)
    better = left + right
    if float(np.max(np.abs(better - whole))) <= tol_density * (b - a):
        return better
    if depth >= _MAX_DEPTH:
        raise QuadratureNonConvergence(
            f"panel [{a:.6g}, {b:.6g}] still moving at depth {depth}"
        )
    return _refine(f, a, m, left, tol_density, depth + 1) + _refine(
        f, m, b, right, tol_density, depth + 1
    )


def _segment_foot(z0: complex, z1: complex, p: complex) -> complex:
    """Point of the segment [z0, z1] closest to p."""
    d = z1 - z0
    L2 = abs(d) ** 2
    if L2 == 0:
        return z0
    t = ((p - z0) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return z0 + t * d


def segment_distance(z0: complex, z1: complex, p: complex) -> float:
    """Distance from p to the segment [z0, z1]."""
    return abs(p - _segment_foot(z0, z1, p))


def polyline_with_clearance(z0, z1, obstacles, clearance: float, _depth: int = 0):
    """Waypoints from z0 to z1 keeping interior clearance from obstacles.

    Obstacles closer than the clearance to either endpoint do not trigger
    detours (the endpoints themselves are the caller's responsibility).
    """
    z0, z1 = complex(z0), complex(z1)
    if _depth > 12:
        raise PathThroughBranchPoint("detour recursion exceeded depth 12")
    worst, wdist = None, np.inf
    for e in obstacles:
        e = complex(e)
        if abs(e - z0) < 2 * clearance or abs(e - z1) < 2 * clearance:
            continue
        dist = segment_distance(z0, z1, e)
        if dist < wdist:
            worst, wdist = e, dist
    if worst is None or wdist >= clearance:
        return (z0, z1)
    d = z1 - z0
    away = _segment_foot(z0, z1, worst) - worst
    if abs(away) < 1e-14 * max(1.0, abs(worst)):
        away = 1j * d / abs(d)  # path runs through the point: detour left
    waypoint = worst + away / abs(away) * 2 * clearance
    left = polyline_with_clearance(z0, waypoint, obstacles, clearance, _depth + 1)
    right = polyline_with_clearance(waypoint, z1, obstacles, clearance, _depth + 1)
    return left + right[1:]


class SheetPath:
    """y = sqrt(P(x)) continued along one straight leg, queryable at any t.

    The constructor walks the leg storing checkpoints; ``y_at`` matches the
    principal root against the nearest earlier checkpoint.  Checkpoint
    spacing guarantees the drift between checkpoints stays well below the
    sheet separation, so the matching is unambiguous.
    """

    def __init__(self, curve: HyperellipticCurve, z0: complex, z1: complex, y0: complex):
        self.curve = curve
        self.z0, self.z1 = complex(z0), complex(z1)
        leg = self.z1 - self.z0
        ts = [0.0]
        ys = [complex(y0)]
        t, y = 0.0, complex(y0)
        guard = 0
        while t < 1.0:
            guard += 1
            if guard > 200000:
                raise QuadratureNonConvergence("sheet continuation stalled")
            x_cur = self.z0 + leg * t
            d = min(abs(x_cur - e) for e in curve.branch_points)
            dt = 1.0 - t if abs(leg) == 0 else min(1.0 - t, max(0.2 * d / abs(leg), 1e-7))
            while True:
                x_next = self.z0 + leg * (t + dt)
                cand = np.sqrt(complex(curve.y_squared(x_next)))
                if abs(cand) == 0:
                    raise PathThroughBranchPoint(
                        f"leg passes through branch point at x = {x_next:.6g}"
                    )
                keep = cand if abs(cand - y) <= abs(cand + y) else -cand
                if abs(keep - y) < 0.5 * abs(cand):
                    break
                if dt <= 1e-9:
                    raise PathThroughBranchPoint(
                        f"cannot separate sheets near x = {x_next:.6g}"
                    )
                dt *= 0.5
            t += dt
            y = keep
            ts.append(min(t, 1.0))
            ys.append(y)
        self.ts = np.array(ts)
        self.ys = np.array(ys)

    @property
    def y_end(self) -> complex:
        return complex(self.ys[-1])

    def xy_at(self, t):
        """(x, y) arrays at parameters t in [0, 1]."""
        t = np.asarray(t, dtype=float)
        x = self.z0 + (self.z1 - self.z0) * t
        root = np.sqrt(np.asarray(self.curve.y_squared(x), dtype=complex))
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 1)
        anchor = self.ys[idx]
        pick = np.where(np.abs(root - anchor) <= np.abs(root + anchor), root, -root)
        return x, pick


def integrate_rows_along(curve, points, y0, rows_fn, tol):
    """Integrate rows_fn(x, y) dx along a polyline with sheet tracking.

    rows_fn maps (x_nodes, y_nodes) to an array (rows, nodes); returns the
    integral vector and the continued y at the final point.
    """
    total = None
    y = complex(y0)
    for z0, z1 in zip(points[:-1], points[1:]):
        if z0 == z1:
            continue
        sp = SheetPath(curve, z0, z1, y)
        leg = z1 - z0

        def f(tnodes):
            x, yv = sp.xy_at(tnodes)
            return np.asarray(rows_fn(x, yv)) * leg

        part = adaptive_gl(f, 0.0, 1.0, tol)
        total = part if total is None else total + part
        y = sp.y_end
    if total is None:
        total = np.zeros(np.shape(rows_fn(np.array([complex(points[0])]),
                                          np.array([y0])))[0], dtype=complex)
    return total, y


class BranchLegPath:
    """Continuation along x(s) = e + (x0 - e) s^2 into a branch point.

    Tracks w(s) = y / s = +-sqrt((x0 - e) Q(x(s))) with Q = P / (x - e);
    w is smooth and nonvanishing through s = 0, so the usual checkpoint
    matching works all the way into the singular endpoint.
    """

    def __init__(self, curve: HyperellipticCurve, e_index: int, x0: complex, y0: complex):
        self.curve = curve
        self.e = complex(curve.branch_points[e_index])
        self.others = [p for k, p in enumerate(curve.branch_points) if k != e_index]
        self.x0 = complex(x0)
        w0 = complex(y0)  # y(s=1) = w(1)
        # consistency of the supplied sheet with the factorized root
        q = self._plain_w(np.array([1.0]))[0]
        self.sign0 = 1.0 if abs(q - w0) <= abs(q + w0) else -1.0
        ss = np.linspace(1.0, 0.0, 41)
        ws = [self.sign0 * q]
        for k in range(1, len(ss)):
            cand = self._plain_w(ss[k : k + 1])[0]
            prev = ws[-1]
            ws.append(cand if abs(cand - prev) <= abs(cand + prev) else -cand)
        self.ss = ss[::-1].copy()
        self.ws = np.array(ws[::-1])

    def _plain_w(self, s):
        x = self.e + (self.x0 - self.e) * s ** 2
        q = np.full(x.shape, 4.0, dtype=complex)
        for p in self.others:
            q = q * (x - p)
        return np.sqrt((self.x0 - self.e) * q)

    def xyw_at(self, s):
        s = np.asarray(s, dtype=float)
        x = self.e + (self.x0 - self.e) * s ** 2
        plain = self._plain_w(s)
        idx = np.clip(np.searchsorted(self.ss, s, side="right") - 1, 0, len(self.ss) - 1)
        anchor = self.ws[idx]
        w = np.where(np.abs(plain - anchor) <= np.abs(plain + anchor), plain, -plain)
        return x, s * w, w


def integrate_rows_to_branch_point(curve, e_index, x0, y0, rows_fn, tol):
    """Integral of rows_fn(x, y) dx from (x0, y0) into the branch point e.

    Uses x = e + (x0 - e) s^2, so dx = 2 (x0 - e) s ds and the 1/y endpoint
    singularity cancels against the Jacobian for first-kind rows.  rows_fn
    receives (x, y) with y = s w; it must stay bounded after the s-Jacobian,
    which holds for any numerator/(y) integrand.
    """
    bp = BranchLegPath(curve, e_index, x0, y0)
    jac = 2 * (complex(x0) - bp.e)

    def f(snodes):
        x, y, _ = bp.xyw_at(snodes)
        return np.asarray(rows_fn(x, y)) * (jac * snodes)

    # orientation: s runs 1 -> 0 going into the branch point
    val = adaptive_gl(f, 0.0, 1.0, tol)
    return -val

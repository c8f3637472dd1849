"""Path integration support: branch-point avoidance, analytic continuation
of y = sqrt(P(x)) along polylines, and adaptive Gauss-Legendre quadrature.

y = 2 prod_k sqrt(x - e_k) is continued exactly, factor by factor
(Molin-Neurohr): on a straight leg each factor moves on a line, and its
principal root changes branch only where that line crosses numpy's cut.
So the sheet anywhere on a route, and at its end, follows from the cut
crossings alone, before any quadrature runs.  ``CutCrossings`` is the one
home of that rule; the period chains of ``periods.segment_integral`` use it
too.  The legs take y from that continued product alone, never from a root
of y^2.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as nleg

from .curves import HyperellipticCurve
from .errors import PathThroughBranchPoint, QuadratureNonConvergence

_GL_NODES, _GL_WEIGHTS = nleg.leggauss(32)

#: Default clearance for routing paths: an absolute distance in x, not
#: scaled by the branch points.
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


class CutCrossings:
    """Branch changes of sqrt along factors moving on lines, w0 + dw t.

    numpy's root jumps only across its cut Im w = 0 > Re w, which belongs to
    the upper side (sqrt(-a + 0j) = +i sqrt(a)).  A line meets the cut iff
    Im(conj(w0) dw) Im(dw) < 0; there the root has changed branch at w iff
    w and w0 lie on different closed sides, Im >= 0 and Im < 0.  ``crossed``
    marks the factors (last axis) that have changed branch by w1.
    """

    def __init__(self, w0, dw, w1):
        self.upper0 = np.imag(w0) >= 0
        meets = (np.conj(w0) * dw).imag * np.imag(dw) < 0
        self.crossed = meets & ((np.imag(w1) >= 0) != self.upper0)
        self._k = np.flatnonzero(self.crossed)

    def roots(self, w):
        """sqrt(w_k), each root continued from w0 (one line per factor), at
        points w on the way (one row each).  A line meets the real axis
        once, so only the factors crossed by w1 are looked at."""
        out = np.sqrt(w)
        for k in self._k:
            other_side = np.less if self.upper0[k] else np.greater_equal
            np.negative(out[..., k], out=out[..., k], where=other_side(w[..., k].imag, 0))
        return out

    def product(self, w):
        """2 prod_k sqrt(w_k), each root continued from w0."""
        return 2.0 * self.roots(w).prod(axis=-1)


def _sign_toward(v: complex, target: complex) -> float:
    return 1.0 if abs(v - target) <= abs(v + target) else -1.0


class SheetPath:
    """y = sqrt(P(x)) continued along one straight leg, queryable at any t.

    y = s 2 prod_k sqrt(x - e_k), each root continued across its cut and the
    sign s fixed by y0 at the start.  x is formed from the nearer end of the
    leg, so near an end it carries the rounding of its distance from that
    end, not of the whole leg, and ``xy_at(1)`` is exactly (z1, y_end).
    """

    def __init__(self, curve: HyperellipticCurve, z0: complex, z1: complex, y0: complex):
        self.z0, self.z1 = complex(z0), complex(z1)
        self.e = np.asarray(curve.branch_points, dtype=complex)
        w0, w1 = self.z0 - self.e, self.z1 - self.e
        self.cuts = CutCrossings(w0, self.z1 - self.z0, w1)
        self.sign = _sign_toward(self.cuts.product(w0), complex(y0))
        self.y_end = complex(self.sign * self.cuts.product(w1))

    def xy_at(self, t):
        """(x, y) arrays at parameters t in [0, 1]."""
        t = np.asarray(t, dtype=float)
        d = self.z1 - self.z0
        x = np.where(t <= 0.5, self.z0 + d * t, self.z1 - d * (1.0 - t))
        return x, self.sign * self.cuts.product(x[..., None] - self.e)


def route_end_y(curve: HyperellipticCurve, points, y0: complex) -> complex:
    """y continued from (points[0], y0) to points[-1] along the polyline,
    without quadrature.  Consecutive legs share a vertex, where their
    principal products agree, so y_end is the start sign times 2 prod_k
    sqrt(z_end - e_k) times (-1)^(cut crossings over all legs)."""
    z = np.asarray(points, dtype=complex)[:, None]
    w = z - np.asarray(curve.branch_points, dtype=complex)
    cuts = CutCrossings(w[:-1], z[1:] - z[:-1], w[1:])
    start, end = (2.0 * np.sqrt(v).prod() for v in (w[0], w[-1]))
    return _sign_toward(start, complex(y0)) * (-1) ** int(cuts.crossed.sum()) * end


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
            return np.asarray(rows_fn(*sp.xy_at(tnodes))) * leg

        part = adaptive_gl(f, 0.0, 1.0, tol)
        total = part if total is None else total + part
        y = sp.y_end
    if total is None:
        total = np.zeros(np.shape(rows_fn(np.array([complex(points[0])]),
                                          np.array([y0])))[0], dtype=complex)
    return total, y


class BranchLegPath:
    """Continuation along x(s) = e + (x0 - e) s^2 into a branch point.

    y = s w with w(s) = +-sqrt((x0 - e) Q(x(s))) and Q = P / (x - e); w is
    smooth and nonvanishing through s = 0.  Each factor x(s) - p of Q is
    linear in u = s^2, so w is sqrt(x0 - e) times their product, each root
    continued across its cut from s = 1, where y0 fixes the sign.
    """

    def __init__(self, curve: HyperellipticCurve, e_index: int, x0: complex, y0: complex):
        self.e = complex(curve.branch_points[e_index])
        self.others = np.array([p for k, p in enumerate(curve.branch_points) if k != e_index])
        self.x0 = complex(x0)
        w1, w_e = self._x(np.array([1.0, 0.0]))[:, None] - self.others
        self.cuts = CutCrossings(w1, self.x0 - self.e, w_e)
        lead = np.sqrt(self.x0 - self.e)
        self.lead = lead * _sign_toward(lead * self.cuts.product(w1), complex(y0))  # y(1) = w(1)

    def _x(self, s):
        return self.e + (self.x0 - self.e) * s ** 2

    def xy_at(self, s):
        """(x, y) arrays at parameters s in [0, 1]."""
        s = np.asarray(s, dtype=float)
        x = self._x(s)
        return x, s * (self.lead * self.cuts.product(x[..., None] - self.others))


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
        return np.asarray(rows_fn(*bp.xy_at(snodes))) * (jac * snodes)

    # orientation: s runs 1 -> 0 going into the branch point
    val = adaptive_gl(f, 0.0, 1.0, tol)
    return -val

"""Path integration support: branch-point avoidance, analytic continuation
of y = sqrt(P(x)) along polylines, and adaptive Gauss-Legendre quadrature.

y = 2 prod_k sqrt(x - e_k) is continued exactly, factor by factor
(Molin-Neurohr): on a straight leg each factor moves on a line, and its
principal root changes branch only where that line crosses numpy's cut.
``CutCrossings`` is the one home of that rule; the period chains of
``periods.chain_integrals`` use it too.  A ``Route`` finds the crossings of
all its legs in one pass over its vertices, and with them the sheet of each
leg and of its end, before any quadrature runs; its legs are integrated from
the same arrays, y from that continued product alone, never a root of y^2.

``adaptive_gl`` bisects 32-node Gauss-Legendre panels, one refinement
level per integrand call, and walks the intervals of one call (all chains
of a curve, all legs of a route) as one forest: every integrand here is a
handful of numpy operations on a node array, so one call on all the panels
of a level costs about what one call on a single panel did.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import legendre as nleg

from .curves import HyperellipticCurve
from .errors import PathThroughBranchPoint, QuadratureNonConvergence

_GL_NODES, _GL_WEIGHTS = nleg.leggauss(32)

#: Default clearance for routing paths: an absolute distance in x, not
#: scaled by the branch points; ``polyline_with_clearance`` raises it to
#: 1e-4 of the length of a longer leg.
PATH_CLEARANCE = 1e-3

_MAX_DEPTH = 26

#: Panels one ``adaptive_gl`` call may evaluate, in the manner of QUADPACK's
#: subinterval limit.  The breadth-first walk doubles the panels of a level
#: that keeps moving, so without a budget an integrand that never converges
#: would be evaluated on up to 2^26 panels before the depth limit stops it.
#: The most one call took on working curves was 191 panels (the tier-1
#: tests while the path clearance was absolute; 59 with it relative to the
#: leg) and 47 over the benchmark workloads and verify seeds 0-79.  2048 is
#: more than ten times that, and it stops a call after at most 65,536 nodes.
_MAX_PANELS = 2048


def adaptive_gl(f, a, b, tol: float):
    """Integrate the row-vector function f over each interval [a_k, b_k] adaptively.

    f maps a 1-D array of nodes to an array (rows, nodes).  Panels are
    bisected until two refinement levels agree within the locally allocated
    share of tol, measured against the overall magnitude of the first
    estimate.  The bisection tree is walked one level at a time: the first
    call of f evaluates the whole interval and both halves, and each later
    call the halves of the children of every panel still moving on that
    level, so f receives 32 nodes per panel.  The panels are summed back in
    the tree's order: an accepted panel gives left + right, a refined one
    the sum of its two children.  Raises ``QuadratureNonConvergence`` when a
    panel still moves at depth ``_MAX_DEPTH`` or the next level would take
    its tree past ``_MAX_PANELS`` panels.

    a and b are 1-D arrays of n interval bounds: the n trees are walked as
    one forest, one call of f per level for all of them, and the result is
    (rows, n).  Each tree keeps its own scale, accept test and budget, so
    each column has the bits of a one-interval call on its interval.  f
    receives complex nodes t + 1j k, the parameter t and the index k of its
    interval, both exact.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    m = 0.5 * (a + b)
    tree = np.arange(n)
    est = _panels(f, _interleave(a, a, m), _interleave(b, m, b), np.repeat(tree, 3))
    whole, left, right = est[:, 0::3], est[:, 1::3], est[:, 2::3]
    scale = np.fmax(1.0, np.max(np.abs(whole), axis=0))
    tol_density = tol * scale / (b - a)
    lo, hi = a, b
    levels, spent = [], np.full(n, 3)

    def where(k):
        i = tree[k]
        return f"panel [{lo[k]:.6g}, {hi[k]:.6g}] of interval {i} [{a[i]:.6g}, {b[i]:.6g}]"

    for depth in range(_MAX_DEPTH + 1):
        better = left + right
        moving = ~(np.max(np.abs(better - whole), axis=0) <= tol_density[tree] * (hi - lo))
        levels.append((better, moving))
        if not moving.any():
            break
        if depth >= _MAX_DEPTH:
            k = int(np.argmax(moving))
            raise QuadratureNonConvergence(f"{where(k)} still moving at depth {depth}")
        spent += 4 * np.bincount(tree[moving], minlength=n)
        if (spent > _MAX_PANELS).any():
            # the leftmost panel still moving in the first tree over budget
            k = int(np.argmax(moving & (tree == np.argmax(spent > _MAX_PANELS))))
            raise QuadratureNonConvergence(
                f"panel budget of {_MAX_PANELS} spent: {where(k)} still moving at depth {depth}"
            )
        # children of the moving panels in tree order, each with its whole
        lo, mid, hi = lo[moving], (0.5 * (lo + hi))[moving], hi[moving]
        lo, hi = _interleave(lo, mid), _interleave(mid, hi)
        tree = np.repeat(tree[moving], 2)
        whole = _interleave(left[:, moving], right[:, moving])
        m = 0.5 * (lo + hi)
        est = _panels(f, _interleave(lo, m), _interleave(m, hi), np.repeat(tree, 2))
        left, right = est[:, 0::2], est[:, 1::2]
    total = levels[-1][0]
    for better, moving in reversed(levels[:-1]):
        better[:, moving] = total[:, 0::2] + total[:, 1::2]
        total = better
    return total


def _interleave(*cols):
    """Arrays of one shape with their entries alternating along the last axis."""
    out = np.empty(cols[0].shape[:-1] + (len(cols) * cols[0].shape[-1],), cols[0].dtype)
    for j, c in enumerate(cols):
        out[..., j::len(cols)] = c
    return out


def _panels(f, lo, hi, tree):
    """Gauss-Legendre estimates of f over the panels [lo, hi], (rows, panels),
    from one call of f on all their nodes, which carry the tree index of
    their panel as their imaginary part."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = (mid[:, None] + half[:, None] * _GL_NODES).ravel().astype(complex)
    t.imag = np.repeat(tree, len(_GL_NODES))
    vals = np.asarray(f(t))
    # panel by panel, each a (rows, 32) product with the weights as one panel was
    per_panel = vals.reshape(len(vals), len(lo), len(_GL_NODES)).transpose(1, 0, 2)
    return half * (per_panel @ _GL_WEIGHTS).T


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


def polyline_with_clearance(z0, z1, obstacles):
    """Waypoints from z0 to z1 keeping interior clearance from obstacles.

    The clearance is ``PATH_CLEARANCE``, raised to 1e-4 of the distance from
    z0 to z1 so that a long route keeps a margin relative to its own length.
    Obstacles closer than the clearance to either endpoint do not trigger
    detours (the endpoints themselves are the caller's responsibility).
    """
    z0, z1 = complex(z0), complex(z1)
    return _detour(z0, z1, obstacles, max(PATH_CLEARANCE, 1e-4 * abs(z1 - z0)), 0)


def _detour(z0: complex, z1: complex, obstacles, clearance: float, depth: int):
    """The waypoints of ``polyline_with_clearance`` at a fixed clearance."""
    if depth > 12:
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
    left = _detour(z0, waypoint, obstacles, clearance, depth + 1)
    right = _detour(waypoint, z1, obstacles, clearance, depth + 1)
    return left + right[1:]


class CutCrossings:
    """Branch changes of sqrt along factors moving on lines, w0 + dw t.

    numpy's root jumps only across its cut Im w = 0 > Re w, which belongs to
    the upper side (sqrt(-a + 0j) = +i sqrt(a)).  A line meets the cut iff
    Im(conj(w0) dw) Im(dw) < 0; there the root has changed branch at w iff
    w and w0 lie on different closed sides, Im >= 0 and Im < 0.  ``crossed``
    marks the factors (last axis) that have changed branch by w1.  Leading
    axes hold several sets of lines, one per leg or chain.
    """

    def __init__(self, w0, dw, w1):
        self.upper0 = np.imag(w0) >= 0
        meets = (np.conj(w0) * dw).imag * np.imag(dw) < 0
        self.crossed = meets & ((np.imag(w1) >= 0) != self.upper0)

    def roots(self, w, rows=None):
        """sqrt(w_k), each root continued from w0 (one line per factor), at
        points w on the way (one row each).  With several sets of lines,
        ``rows`` gives the set of each point.  A line meets the real axis
        once, so only the factors crossed by w1 can be flipped."""
        out = np.sqrt(w)
        sel = ... if rows is None else rows
        crossed = self.crossed[sel]
        if crossed.any():
            np.negative(out, out=out, where=crossed & ((np.imag(w) >= 0) != self.upper0[sel]))
        return out

    def product(self, w, rows=None):
        """2 prod_k sqrt(w_k), each root continued from w0."""
        return 2.0 * self.roots(w, rows).prod(axis=-1)


def _sign_toward(v: complex, target: complex) -> float:
    return 1.0 if abs(v - target) <= abs(v + target) else -1.0


def _legs_xy(z0, z1, sign, e, cuts, t, rows):
    """(x, y) at parameters t on straight legs from z0 to z1, each point
    with the z0, z1, sign and ``cuts`` row of its leg: x from the nearer end
    of the leg, y = sign 2 prod_k sqrt(x - e_k) continued along it."""
    d = z1 - z0
    x = np.where(t <= 0.5, z0 + d * t, z1 - d * (1.0 - t))
    return x, sign * cuts.product(x[..., None] - e, rows)


class Route:
    """y = sqrt(P(x)) continued along a polyline from (points[0], y0) in one
    pass over its vertices z, zero-length legs dropped: one ``CutCrossings``
    row per leg.  Consecutive legs share a vertex, where their principal
    products 2 prod_k sqrt(z - e_k) agree, so y at vertex k is sign[k] times
    the principal product there, sign[k] the first vertex's sign times
    (-1)^(the crossings before it), and leg k carries sign[k]; y_end is the
    principal product at the last vertex times its sign (y0 with no leg).
    Negating a root is exact, so these are the bits of continuing leg after
    leg.  ``legs`` is built only when the route is integrated."""

    def __init__(self, curve: HyperellipticCurve, points, y0: complex):
        z = np.asarray(points, dtype=complex)
        self.z = z = z[np.concatenate(([True], z[1:] != z[:-1]))]
        self.e = np.asarray(curve.branch_points, dtype=complex)
        self.y0 = complex(y0)
        w = z[:, None] - self.e
        self.cuts = CutCrossings(w[:-1], (z[1:] - z[:-1])[:, None], w[1:])
        flips = np.concatenate(([0], np.cumsum(self.cuts.crossed.sum(axis=1)))) % 2
        self.sign = _sign_toward(2.0 * np.sqrt(w[0]).prod(), self.y0) * (1.0 - 2.0 * flips)
        self.y_end = complex(self.sign[-1] * (2.0 * np.sqrt(w[-1]).prod())) if len(z) > 1 else self.y0

    @functools.cached_property
    def legs(self) -> list:
        return [SheetPath(self, k) for k in range(len(self.z) - 1)]


class SheetPath:
    """Leg k of a ``Route``, a view of its arrays with no reference back (a
    cycle would outlive the map), queryable at any t.  x is formed from the
    nearer end, so near an end it carries the rounding of its distance from
    that end, not of the whole leg, and ``xy_at(1)`` is exactly (z1, y_end)."""

    def __init__(self, route: Route, k: int):
        self.e, self.cuts, self.k = route.e, route.cuts, k
        self.z0, self.z1, self.sign = route.z[k], route.z[k + 1], route.sign[k]
        self.crossed = route.cuts.crossed[k]

    @property
    def y_end(self) -> complex:
        return complex(self.sign * self.cuts.product(self.z1 - self.e, self.k))

    def xy_at(self, t):
        """(x, y) arrays at parameters t in [0, 1]."""
        t = np.asarray(t, dtype=float)
        return _legs_xy(self.z0, self.z1, self.sign, self.e, self.cuts, t, self.k)


def leg_integrals(route: Route, rows_fn, tol):
    """Integral vector of rows_fn(x, y) dx along each leg of a built
    ``Route``, one column per leg (rows, legs), rows_fn mapping (x_nodes,
    y_nodes) to an array (rows, nodes).  The legs are the trees of one
    ``adaptive_gl`` walk, so each column has the bits of its leg walked
    alone."""
    n = len(route.legs)
    if not n:
        return np.zeros((np.shape(rows_fn(route.z, np.array([route.y0])))[0], 0), dtype=complex)
    z0, z1, sign, e, cuts = route.z[:-1], route.z[1:], route.sign, route.e, route.cuts
    leg = z1 - z0

    def f(nodes):
        k = nodes.imag.astype(int)
        return np.asarray(rows_fn(*_legs_xy(z0[k], z1[k], sign[k], e, cuts, nodes.real, k))) * leg[k]

    return adaptive_gl(f, np.zeros(n), np.ones(n), tol)


def add_legs(parts):
    """The columns of ``leg_integrals`` added from the first; 0 with none."""
    return functools.reduce(np.add, parts.T) if parts.shape[1] else np.zeros(len(parts), dtype=complex)


def integrate_rows_along(route: Route, rows_fn, tol):
    """Integral vector of rows_fn(x, y) dx along a built ``Route``: its
    ``leg_integrals``, added from the first leg."""
    return add_legs(leg_integrals(route, rows_fn, tol))


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

    def f(nodes):
        s = nodes.real
        return np.asarray(rows_fn(*bp.xy_at(s))) * (jac * s)

    # orientation: s runs 1 -> 0 going into the branch point
    return -adaptive_gl(f, np.zeros(1), np.ones(1), tol)[:, 0]

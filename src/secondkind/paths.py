"""Path integration support: branch-point avoidance, analytic continuation
of y = sqrt(P(x)) along polylines, and Gauss-Legendre quadrature.

y = 2 prod_k sqrt(x - e_k) is continued exactly, factor by factor
(Molin-Neurohr): on a straight leg each factor moves on a line, and its
principal root changes branch only where that line crosses numpy's cut.
``_cut_crossing`` is the one home of that rule, on arrays
(``CutCrossings``, which the period chains of ``periods.chain_integrals``
use too) and on Python scalars alike.  A ``Route`` finds the crossings of
all its legs in one pass over its vertices, and with them the sheet of each
leg and of its end, before any quadrature runs; its legs are integrated from
the same arrays, y from that continued product alone, never a root of y^2.

Every rule here is the 32-node Gauss-Legendre panel.  Every Abel leg,
straight (``leg_integrals``) or the s^2 leg into a branch point
(``integrate_rows_to_branch_point``), is split into pieces fixed by the
branch points alone, halving a piece while a branch point lies inside its
Bernstein ellipse (Molin-Neurohr's rule for their Abel-Jacobi map), with
one panel per piece, one integrand call, no error estimate and one gate on
the rounding of x (``_piece_integrals``).  A route has a few vertices, a
leg a few pieces and a curve at most five branch points, fewer than
numpy's cost per call repays: the bookkeeping of vertices and pieces runs
on Python scalars, and the work per node on arrays.  A map integrates
about 140 nodes, so what a call costs apart from its nodes is most of
its time: a piece tests only the branch points inside its parent's
ellipse (``_leg_pieces``), the nodes of a piece are held read-only in a
bounded cache (``_piece_nodes``), and the leg integrand gathers the d
of each node once.  None of this moves a bit.

``adaptive_gl`` bisects panels until two refinement levels agree, one
level per integrand call, and walks the intervals of one call as one
forest; it integrates the period chains only.  Every integrand here is a
handful of numpy operations on a node array, so one call on many panels
costs about what one call on a single panel did.
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

#: The deepest bisection of ``adaptive_gl`` and the most halvings of a leg's
#: piece (``_leg_pieces``).
_MAX_DEPTH = 26

#: Panels one ``adaptive_gl`` call (the period chains) may evaluate, in the
#: manner of QUADPACK's subinterval limit.  The breadth-first walk doubles the panels of a level
#: that keeps moving, so without a budget an integrand that never converges
#: would be evaluated on up to 2^26 panels before the depth limit stops it.
#: The most one call took on working curves was 191 panels (the tier-1
#: tests while the path clearance was absolute; 59 with it relative to the
#: leg) and 47 over the benchmark workloads and verify seeds 0-79.  2048 is
#: more than ten times that, and it stops a call after at most 65,536 nodes.
#: It is also the most pieces one Abel leg may take (``_leg_pieces``): a
#: leg took at most 15 on the ``abel_paths`` inputs and 23 on 3.6e6-long
#: legs into the standard curve shifted by 300.
_MAX_PANELS = 2048


def adaptive_gl(f, a, b, tol: float):
    """Integrate the row-vector function f over each interval [a_k, b_k]
    adaptively: the period chains (``periods.chain_integrals``).

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
    t = _panel_nodes(mid, half).astype(complex)
    t.imag = np.repeat(tree, len(_GL_NODES))
    return _panel_sums(np.asarray(f(t)), half)


def _panel_nodes(mid, half):
    """The 32 nodes of each panel mid +- half, panel after panel."""
    return (mid[:, None] + half[:, None] * _GL_NODES).ravel()


def _panel_sums(vals, half):
    """Gauss-Legendre estimates (rows, panels) from integrand values (rows,
    32 per panel) at ``_panel_nodes``: panel by panel, each a (rows, 32)
    product with the weights as one panel was."""
    per_panel = vals.reshape(len(vals), len(half), len(_GL_NODES)).transpose(1, 0, 2)
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


def _cut_crossing(w0, dw, w1):
    """(upper0, crossed) of factors moving on lines, w0 + dw t, arrays or
    Python scalars alike (``CutCrossings``): upper0 whether w0 lies on the
    closed upper side, crossed whether the root has changed branch by w1.
    Im(conj(w0) dw) is formed from real products and one difference, never
    from a complex product, which numpy may round with a fused multiply-add
    where Python does not; so the arrays and the scalars take the same bits."""
    upper0 = w0.imag >= 0
    meets = (w0.real * dw.imag - w0.imag * dw.real) * dw.imag < 0
    return upper0, meets & ((w1.imag >= 0) != upper0)


class CutCrossings:
    """Branch changes of sqrt along factors moving on lines, w0 + dw t.

    numpy's root jumps only across its cut Im w = 0 > Re w, which belongs to
    the upper side (sqrt(-a + 0j) = +i sqrt(a)).  A line meets the cut iff
    Im(conj(w0) dw) Im(dw) < 0; there the root has changed branch at w iff
    w and w0 lie on different closed sides, Im >= 0 and Im < 0.  ``crossed``
    marks the factors (last axis) that have changed branch by w1.  Leading
    axes hold several sets of lines, one per leg or chain.  ``_cut_crossing``
    is the one home of that rule; ``from_masks`` takes its result when it
    was formed factor by factor on scalars (``Route``).
    """

    def __init__(self, w0, dw, w1):
        self.upper0, self.crossed = _cut_crossing(np.asarray(w0), dw, np.asarray(w1))

    @classmethod
    def from_masks(cls, upper0, crossed):
        """The crossings of the bool arrays upper0 and crossed of ``_cut_crossing``."""
        cuts = cls.__new__(cls)
        cuts.upper0, cuts.crossed = upper0, crossed
        return cuts

    def roots(self, w, rows=None):
        """sqrt(w_k), each root continued from w0 (one line per factor), at
        points w on the way (one row each).  With several sets of lines,
        ``rows`` gives the set of each point.  A line meets the real axis
        once, so only the factors crossed by w1 can be flipped."""
        out = np.sqrt(w)
        if not self.crossed.any():
            return out
        sel = ... if rows is None else rows
        crossed = self.crossed[sel]
        if crossed.any():
            np.negative(out, out=out, where=crossed & ((np.imag(w) >= 0) != self.upper0[sel]))
        return out

    def product(self, w, rows=None):
        """2 prod_k sqrt(w_k), each root continued from w0."""
        return 2.0 * self.roots(w, rows).prod(axis=-1)


def on_sheet(v: complex, target: complex) -> bool:
    """Whether v lies on the sheet of target, nearer it than -target."""
    return abs(v - target) <= abs(v + target)


def _legs_x(z0, z1, d, t, back):
    """x at parameters t on straight legs from z0 to z1, d = z1 - z0, from
    the nearer end of the leg: z0 + d t, or z1 - d back with back = 1 - t."""
    return np.where(t <= 0.5, z0 + d * t, z1 - d * back)


def _legs_xy(z0, z1, sign, e, cuts, t, back, rows):
    """(x, y) at parameters t on straight legs from z0 to z1, each point
    with the z0, z1, sign and ``cuts`` row of its leg: x from the nearer end
    of the leg (``_legs_x``) and y = sign 2 prod_k sqrt(x - e_k) continued
    along it."""
    x = _legs_x(z0, z1, z1 - z0, t, back)
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
    leg.

    A route has a few vertices and a few branch points, fewer than numpy's
    cost per call repays: the factors z - e_k, the crossings of each leg
    (``_cut_crossing``) and the signs are formed vertex by vertex on Python
    scalars, and only the principal products at the two end vertices, and
    the arrays a ``CutCrossings`` holds, go through numpy.  ``legs`` is
    built only when the route is integrated."""

    def __init__(self, curve: HyperellipticCurve, points, y0: complex):
        pts = [complex(p) for p in points]
        z = pts[:1] + [b for a, b in zip(pts, pts[1:]) if b != a]
        self.z = np.array(z, dtype=complex)
        self.e = np.asarray(curve.branch_points, dtype=complex)
        self.y0 = complex(y0)
        e = self.e.tolist()
        ends = (2.0 * np.sqrt(np.array([z[0], z[-1]])[:, None] - self.e).prod(axis=1)).tolist()
        sign = [1.0 if on_sheet(ends[0], self.y0) else -1.0]
        ups, crs = [], []  # upper0 and crossed of each factor, leg after leg
        w0 = [z[0] - ek for ek in e]
        for a, b in zip(z, z[1:]):
            w1, dw = [b - ek for ek in e], b - a
            up, cr = zip(*[_cut_crossing(p, dw, q) for p, q in zip(w0, w1)])
            ups += up
            crs += cr
            sign.append(-sign[-1] if sum(cr) % 2 else sign[-1])
            w0 = w1
        upper0, crossed = (np.array(v, dtype=bool).reshape(len(z) - 1, len(e)) for v in (ups, crs))
        self.cuts = CutCrossings.from_masks(upper0, crossed)
        self.sign = np.array(sign)
        self.y_end = sign[-1] * ends[1] if len(z) > 1 else self.y0

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
        return _legs_xy(self.z0, self.z1, self.sign, self.e, self.cuts, t, 1.0 - t, self.k)


#: K of the piece rule: a piece whose branch points all lie outside its
#: Bernstein ellipse of parameter rho* = (K / quad_tol)^(1/64) takes one
#: 32-node panel (``_leg_pieces``).
_PIECE_K = 1e4


def _leg_pieces(tau, tol: float, where):
    """The pieces of the legs [0, 1] in t, by geometry alone: for each leg
    the list of its pieces (j, depth), [j, j + 1] 2^-depth, from left to
    right.

    tau (legs, points) holds the parameter t of each branch point on the
    line of each leg (on an s^2 leg, both roots s of each).  A piece [a, b]
    is halved while some branch point lies inside its Bernstein ellipse
    E_rho* (foci a and b): with
    u = (2 tau - a - b) / (b - a), the parameter rho = |u + sqrt(u - 1)
    sqrt(u + 1)|, folded to rho >= 1, is below rho* exactly when
    |u - 1| + |u + 1| = rho + 1/rho is below rho* + 1/rho*, which is
    |tau - a| + |tau - b| < (b - a) (rho* + 1/rho*) / 2.  Halving at
    midpoints grades the pieces geometrically toward a near branch point.

    The rule.  1/y has square-root branch points only, so on a piece whose
    nearest branch point has parameter rho the integrand is analytic in
    E_r for every r < rho, and the 32-point Gauss-Legendre error is at most
    (64/15) M r^(-64) / (r^2 - 1), M the largest |integrand| on E_r
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
    Take r = (1 - 1/64) rho: then r^(-64) <= e rho^(-64), and E_r keeps at
    least (rho + 1) / (64 (rho - 1)) of the piece's distance to the branch
    point, so M is at most about 4 times the size of the integrand on the
    piece near rho*; with rho* near 1.8, (64/15) e 4 / (rho*^2 - 1) is
    about 20.  K = 1e4 keeps a factor of about 500 over that for the sum
    over a leg's pieces and for cancellation in the leg's integral, and
    K rho*^(-64) = quad_tol.  Seen from a piece much longer than their
    spread, several branch points act as one stronger singularity, as on
    long legs into translated curves; ``tests/test_leg_reference.py``
    checks such legs against 30-digit integrals, and with K = 100 they
    still pass.

    A leg has a few pieces and a route a few branch points, too few for
    numpy's cost per call: tau is read into Python complex numbers and each
    leg is halved depth first, left half before right.  Piece [j h,
    (j + 1) h], h = 2^-depth, is halved while |c| + |c - 1| < reach for
    some c = tau 2^depth - j, tau - a and tau - b in units of its width.
    A half tests only the branch points inside its parent's ellipse, which
    holds the half's: for z in the half's ellipse, |z - a| + |z - b| <=
    |z - a| + |z - m| + |m - b| < L reach / 2 + L / 2 <= L reach (L the
    parent's width, m its midpoint, reach >= 1).  A point outside the
    parent's ellipse has |2c| + |2c - 1| >= 2 reach - 1 in the half's
    units, a margin of reach - 1 >= 0.065 over the quad_tol range the
    period gates allow and far above the rounding of c, so the layout and
    the refusals are those of testing every branch point at every piece.

    ``where(leg, a, b)`` names a piece.  The legs are laid out in order,
    and the first piece of a leg that breaks a cap refuses it with
    ``QuadratureNonConvergence``: a piece that still has a branch point
    inside its ellipse after ``_MAX_DEPTH`` halvings, or one whose halving
    would give its leg more than ``_MAX_PANELS`` pieces, where the halving
    stops.
    """
    rho = (_PIECE_K / tol) ** (1.0 / 64.0)
    reach = 0.5 * (rho + 1.0 / rho)
    layout = []
    for k, taus in enumerate(tau.tolist()):
        # the pieces still to test, the next one last, each with the
        # branch points inside its parent's ellipse
        pieces, todo = [], [(0.0, 0, taus)]
        while todo:
            j, depth, near = todo.pop()
            s = 2.0 ** depth
            near = [t for t in near if abs(c := t * s - j) + abs(c - 1.0) < reach]
            if not near:
                pieces.append((j, depth))
                continue
            h = 0.5 ** depth
            if depth == _MAX_DEPTH:
                raise QuadratureNonConvergence(
                    f"{where(k, j * h, (j + 1.0) * h)} has a branch point inside its "
                    f"Bernstein ellipse rho* = {rho:.3g} after {depth} halvings")
            if len(pieces) + len(todo) + 2 > _MAX_PANELS:  # its pieces once this one is halved
                raise QuadratureNonConvergence(f"piece budget of {_MAX_PANELS} spent: "
                                               f"{where(k, j * h, (j + 1.0) * h)} "
                                               "still to be halved")
            todo += [(2.0 * j + 1.0, depth + 1, near), (2.0 * j, depth + 1, near)]
        layout.append(pieces)
    return layout


#: Most pieces whose nodes ``_piece_nodes`` holds.  Over the ``abel_paths``
#: inputs of one seed the legs use about 100 to 130 distinct pieces.
_PIECE_NODES_HELD = 256


@functools.lru_cache(maxsize=_PIECE_NODES_HELD)
def _piece_nodes(j: float, depth: int) -> tuple:
    """(t, back, h) at the 32 nodes of piece [j, j + 1] 2^-depth, read-only:
    t = mid + half s by ``_panel_nodes``, back = 1 - t as (1 - mid) - half s
    (exact: 1 - mid is, on dyadic pieces) and the half width h = half."""
    width = 0.5 ** depth
    half, mid = np.array([0.5 * width]), np.array([(j + 0.5) * width])
    nodes = _panel_nodes(mid, half), _panel_nodes(1.0 - mid, -half), np.repeat(half, len(_GL_NODES))
    for v in nodes:
        v.flags.writeable = False
    return nodes


#: The leg index 0 of every node of a layout of one piece.
_ONE_PIECE_LEGS = np.zeros(len(_GL_NODES), dtype=np.intp)
_ONE_PIECE_LEGS.flags.writeable = False

#: eps of float, the unit of the rounding of x in ``_piece_integrals``.
_EPS = float(np.finfo(float).eps)


@functools.cache
def _halves(n: int) -> np.ndarray:
    """n entries 0.5, read-only: 1 / |w| @ _halves(n) is sum_k 1 / (2 |w_k|)."""
    v = np.full(n, 0.5)
    v.flags.writeable = False
    return v


def _add_pieces(layout, est):
    """The integral of each leg (rows, legs) from the estimates est (rows,
    pieces) of the pieces of ``_leg_pieces``' layout, leg after leg, added
    on Python complex numbers as the halving went: a halved piece is its
    left half plus its right half.  Left to right, a piece whose depth is
    that of the last unpaired piece is its right sibling, so the two are
    added into their parent, which may pair in turn."""
    values, columns = iter(est.T.tolist()), []
    for pieces in layout:
        done = []  # (depth, value) of the unpaired pieces, the deepest last
        for _, depth in pieces:
            v = next(values)
            while done and done[-1][0] == depth:
                v = [left + right for left, right in zip(done.pop()[1], v)]
                depth -= 1
            done.append((depth, v))
        columns.append(done[0][1])
    return np.array(columns, dtype=complex).T


def _piece_integrals(tau, tol, where, integrand):
    """The integrals (rows, legs) of legs [0, 1] in t, branch points at the
    parameters tau (legs, points): one 32-node panel per piece of
    ``_leg_pieces``, all pieces in one call of integrand(k, t, back, h),
    added back by ``_add_pieces``, so each column has the bits of its leg
    integrated alone.  Each node carries its leg k, t, back = 1 - t and the
    half width h of its piece, from ``_piece_nodes``; a layout of one piece
    passes its held arrays as they are, read-only.

    integrand returns (vals, dx, w): the integrand with its Jacobian (rows,
    nodes), a bound on the rounding of x in units of eps, and the factors
    x - e_k (nodes, factors) whose roots y takes.  dx moves 1/y by
    |1/y| dx sum_k 1 / (2 |x - e_k|), its logarithmic derivative (the
    numerators' share, g eps relative at most, and the few eps of the
    evaluation are left out).  That density, with the largest |row| for
    |1/y|, is integrated on the same panels; a leg whose total exceeds
    quad_tol max(1, max |integral|) raises ``QuadratureNonConvergence``
    naming it and its piece that moves most, as do ``_leg_pieces``' caps.
    """
    layout = _leg_pieces(tau, tol, where)
    # every piece, leg after leg, in one call of integrand
    flat = [(k, j, depth) for k, pieces in enumerate(layout) for j, depth in pieces]
    leg = np.array([k for k, _, _ in flat])
    if len(flat) == 1:
        t, back, h = _piece_nodes(flat[0][1], flat[0][2])
        k = _ONE_PIECE_LEGS
    else:
        # a list, not a generator: with a generator star-unpacked into zip
        # here, the memory in use grew round after round of abel_paths
        t, back, h = (np.concatenate(v) for v in zip(*[_piece_nodes(j, d) for _, j, d in flat]))
        k = np.repeat(leg, len(_GL_NODES))
    half = np.array([0.5 ** (depth + 1) for _, _, depth in flat])
    vals, dx, w = integrand(k, t, back, h)
    est = _panel_sums(vals, half)
    # a leg of one piece is its piece (a (rows, legs) array of either order)
    total = est if len(flat) == len(layout) else _add_pieces(layout, est)
    drift = np.abs(vals).max(axis=0) * dx * ((1.0 / np.abs(w)) @ _halves(w.shape[1]))
    moves = _EPS * half * (drift.reshape(len(half), len(_GL_NODES)) @ _GL_WEIGHTS)
    bound = np.bincount(leg, weights=moves, minlength=len(layout)).tolist()
    # quad_tol max(1, max |integral|) per leg, on Python floats
    for i, (b, m) in enumerate(zip(bound, np.abs(total).max(axis=0).tolist())):
        if b > tol * max(1.0, m):
            _, j, depth = flat[int(np.argmax(np.where(leg == i, moves, -1.0)))]
            raise QuadratureNonConvergence(
                f"{where(i, j * 0.5 ** depth, (j + 1.0) * 0.5 ** depth)}: the rounding of x "
                f"moves the integral by up to {b:.2e}, above quad_tol {tol:.1e}")
    return total


def leg_integrals(route: Route, rows_fn, tol):
    """Integral vector of rows_fn(x, y) dx along each leg of a built
    ``Route``, one column per leg (rows, legs), rows_fn mapping (x_nodes,
    y_nodes) to an array (rows, nodes), by ``_piece_integrals``.

    x is formed from the nearer end (``_legs_x``).  A node t = mid + h s
    and 1 - t = (1 - mid) - h s carry up to u (h + min(t, 1 - t)) of
    rounding, u = eps / 2, so x = z0 + d t or z1 - d (1 - t) carries up to
    eps (|x| + |d| (min(t, 1 - t) + h / 2)), the dx of the gate.  Each
    node's d is gathered once, for x, the Jacobian and dx.
    """
    if not route.legs:
        return np.zeros((np.shape(rows_fn(route.z, np.array([route.y0])))[0], 0), dtype=complex)
    z0, z1, sign, e, cuts = route.z[:-1], route.z[1:], route.sign, route.e, route.cuts
    d = z1 - z0

    def where(k, a, b):
        return f"piece [{a:.10g}, {b:.10g}] of leg {k} [{z0[k]:.6g}, {z1[k]:.6g}]"

    def integrand(k, t, back, h):
        dk = d[k]
        x = _legs_x(z0[k], z1[k], dk, t, back)
        w = x[:, None] - e
        vals = np.asarray(rows_fn(x, sign[k] * cuts.product(w, k))) * dk
        return vals, np.abs(x) + np.abs(dk) * (np.minimum(t, back) + 0.5 * h), w

    return _piece_integrals((e - z0[:, None]) / d[:, None], tol, where, integrand)


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
    linear in u = s^2 and is formed from the branch point, (e - p) +
    (x0 - e) u, so near e it carries the rounding of (x0 - e) u, not of x;
    w is sqrt(x0 - e) times their product, each root continued across its
    cut from s = 1, where y0 fixes the sign.
    """

    def __init__(self, curve: HyperellipticCurve, e_index: int, x0: complex, y0: complex):
        self.e = complex(curve.branch_points[e_index])
        self.others = np.array([p for k, p in enumerate(curve.branch_points) if k != e_index])
        self.x0 = complex(x0)
        self.gaps = self.e - self.others  # the factors at s = 0
        w1 = self.gaps + (self.x0 - self.e)
        self.cuts = CutCrossings(w1, self.x0 - self.e, self.gaps)
        lead = np.sqrt(self.x0 - self.e)
        y1 = lead * self.cuts.product(w1)  # y(1) = w(1)
        self.lead = lead * (1.0 if on_sheet(y1, complex(y0)) else -1.0)

    def xwy_at(self, s):
        """(x, w, y) at a float array s of parameters in [0, 1], w the
        factors x - p of the other branch points p, one row per s."""
        u = (self.x0 - self.e) * s ** 2
        w = self.gaps + u[..., None]
        return self.e + u, w, s * (self.lead * self.cuts.product(w))

    def xy_at(self, s):
        """(x, y) arrays at parameters s in [0, 1]."""
        x, _, y = self.xwy_at(np.asarray(s, dtype=float))
        return x, y


def integrate_rows_to_branch_point(curve, e_index, x0, y0, rows_fn, tol):
    """Integral of rows_fn(x, y) dx from (x0, y0) into the branch point e.

    Uses x = e + (x0 - e) s^2, so dx = 2 (x0 - e) s ds and the 1/y endpoint
    singularity cancels against the Jacobian for first-kind rows.  rows_fn
    receives (x, y) with y = s w; it must stay bounded after the s-Jacobian,
    which holds for any numerator/(y) integrand.  s in [0, 1] is integrated
    by ``_piece_integrals``, the other branch points p at s = +-sqrt((p - e)
    / (x0 - e)).  Each factor (e - p) + (x0 - e) s^2 carries the rounding
    of its u-term, up to eps |x0 - e| s (s + h) at a node s = mid + h r,
    the dx of the gate; e - p is one rounding of the branch points
    themselves, whatever the path.
    """
    bp = BranchLegPath(curve, e_index, x0, y0)
    c = bp.x0 - bp.e
    tau = np.sqrt((bp.others - bp.e) / c)

    def where(k, a, b):
        return f"piece [{a:.10g}, {b:.10g}] of the s^2 leg from {bp.x0:.6g} into {bp.e:.6g}"

    def integrand(k, s, back, h):
        x, w, y = bp.xwy_at(s)
        vals = np.asarray(rows_fn(x, y)) * (2 * c * s)
        return vals, abs(c) * s * (s + h), w

    # orientation: s runs 1 -> 0 going into the branch point
    return -_piece_integrals(np.concatenate([tau, -tau])[None, :], tol, where, integrand)[:, 0]

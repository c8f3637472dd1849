"""Sheet continuation and leg quadrature against the code they replaced.

``SheetPath`` and ``BranchLegPath`` take y from the product of the factors
sqrt(x - e_k), each continued across its cut, and ``abel_map`` picks its
route from their parity before integrating.  A ``Route`` builds all its
legs in one pass over its vertices, on Python scalars; the leg-by-leg
chain it replaced, each leg with its own crossings, start sign and end
value, is kept here as the reference and must give the same bits, and so
must the same pass formed on arrays over all vertices at once, on random
polylines.  The references below are the stepping continuations they
replaced, kept here verbatim in behaviour, and the pipeline that
integrated every candidate route and kept the first one ending on the
right sheet.  The references take y as the principal root of
y^2 and x from the start of the leg, so the legs must agree with them on
the sheet at every node and in value to rounding, not in bits.

``adaptive_gl`` walks its bisection trees a level at a time, all the
intervals of a call (the chains of a curve, the a-chains) as one forest;
it has no other caller.  The recursion it replaced, one integrand call per 32-node panel and one
call per interval, is kept here as the reference.  Interval by interval,
both evaluate the same nodes and give the same bits.  ``leg_integrals``
integrates the legs of a route on pieces fixed by the branch points (as
the s^2 leg into a branch point is integrated), all in one integrand call, each leg halved depth first and its pieces added
back on Python scalars; a recursion over each leg's pieces on arrays, one
integrand call per piece, is its reference, and gives the same bits.
"""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as nleg

from secondkind import (
    abel_from_infinity,
    abel_map,
    compute_periods,
    curve_from_branch_points,
    paths,
    periods,
)
from secondkind.cli import random_curve
from secondkind.errors import QuadratureNonConvergence
from secondkind.paths import (
    _MAX_DEPTH,
    _MAX_PANELS,
    BranchLegPath,
    CutCrossings,
    Route,
    adaptive_gl,
    polyline_with_clearance,
    segment_distance,
)

STANDARD_POINTS = (-2.0, -1.0, 0.0, 1.0, 2.0)
SKEW_POINTS = (-1.7 + 0.4j, -0.6 - 0.9j, 0.2 + 0.8j, 1.1 - 0.3j, 1.8 + 0.6j)
NODES = 0.5 + 0.5 * nleg.leggauss(32)[0]


class _ReferenceSheetPath:
    """Predictor walk: steps of 0.2 of the distance to the nearest branch
    point, each accepted only when the sheets are well separated; a query
    matches the principal root against the nearest earlier checkpoint."""

    def __init__(self, curve, z0, z1, y0):
        self.curve = curve
        self.z0, self.z1 = complex(z0), complex(z1)
        leg = self.z1 - self.z0
        ts, ys = [0.0], [complex(y0)]
        t, y = 0.0, complex(y0)
        while t < 1.0:
            x_cur = self.z0 + leg * t
            d = min(abs(x_cur - e) for e in curve.branch_points)
            dt = 1.0 - t if abs(leg) == 0 else min(1.0 - t, max(0.2 * d / abs(leg), 1e-7))
            while True:
                x_next = self.z0 + leg * (t + dt)
                cand = np.sqrt(curve.y_squared(x_next))
                keep = cand if abs(cand - y) <= abs(cand + y) else -cand
                if abs(keep - y) < 0.5 * abs(cand):
                    break
                assert dt > 1e-9, "reference walk cannot separate the sheets"
                dt *= 0.5
            t += dt
            y = keep
            ts.append(min(t, 1.0))
            ys.append(y)
        self.ts, self.ys = np.array(ts), np.array(ys)
        self.y_end = complex(self.ys[-1])

    def xy_at(self, t):
        t = np.asarray(t, dtype=float)
        x = self.z0 + (self.z1 - self.z0) * t
        root = np.sqrt(np.array([self.curve.y_squared(v) for v in x]))
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 1)
        anchor = self.ys[idx]
        return x, np.where(np.abs(root - anchor) <= np.abs(root + anchor), root, -root)


class _ReferenceBranchLegPath:
    """w = y / s on x = e + (x0 - e) s^2, matched over 41 checkpoints."""

    def __init__(self, curve, e_index, x0, y0):
        self.e = complex(curve.branch_points[e_index])
        self.others = [p for k, p in enumerate(curve.branch_points) if k != e_index]
        self.x0 = complex(x0)
        q = self._plain_w(np.array([1.0]))[0]
        ws = [q if abs(q - y0) <= abs(q + y0) else -q]
        ss = np.linspace(1.0, 0.0, 41)
        for k in range(1, len(ss)):
            cand = self._plain_w(ss[k:k + 1])[0]
            ws.append(cand if abs(cand - ws[-1]) <= abs(cand + ws[-1]) else -cand)
        self.ss, self.ws = ss[::-1].copy(), np.array(ws[::-1])

    def _plain_w(self, s):
        x = self.e + (self.x0 - self.e) * s ** 2
        q = np.full(x.shape, 4.0, dtype=complex)
        for p in self.others:
            q = q * (x - p)
        return np.sqrt((self.x0 - self.e) * q)

    def xy_at(self, s):
        s = np.asarray(s, dtype=float)
        x = self.e + (self.x0 - self.e) * s ** 2
        plain = self._plain_w(s)
        idx = np.clip(np.searchsorted(self.ss, s, side="right") - 1, 0, len(self.ss) - 1)
        anchor = self.ws[idx]
        w = np.where(np.abs(plain - anchor) <= np.abs(plain + anchor), plain, -plain)
        return x, s * w


class _ChainLeg:
    """One leg as ``SheetPath`` built it before routes were built in one
    pass: its own ``CutCrossings``, its sign from y0 and its y_end from the
    full factor product at z1."""

    def __init__(self, curve, z0, z1, y0):
        self.z0, self.z1 = complex(z0), complex(z1)
        self.e = np.asarray(curve.branch_points, dtype=complex)
        w0, w1 = self.z0 - self.e, self.z1 - self.e
        self.cuts = CutCrossings(w0, self.z1 - self.z0, w1)
        self.crossed = self.cuts.crossed
        self.sign = 1.0 if paths.on_sheet(self.cuts.product(w0), complex(y0)) else -1.0
        self.y_end = complex(self.sign * self.cuts.product(w1))

    def xy_at(self, t):
        t = np.asarray(t, dtype=float)
        return paths._legs_xy(self.z0, self.z1, self.sign, self.e, self.cuts, t, 1.0 - t, None)


def _chain(curve, points, y0):
    """(legs, y_end): the legs of a polyline built one after another, each
    starting from the y_end of the last; zero-length legs are skipped."""
    legs, y = [], complex(y0)
    for z0, z1 in zip(points[:-1], points[1:]):
        if z0 != z1:
            legs.append(_ChainLeg(curve, z0, z1, y))
            y = legs[-1].y_end
    return legs, y


def _leg(curve, z0, z1, y0):
    """The one leg of the route (z0, z1)."""
    (leg,) = Route(curve, (z0, z1), y0).legs
    return leg


def _reference_along(curve, points, y0, rows_fn, tol, path=_ReferenceSheetPath):
    """One walk per leg on ``path``, the parts added from the first."""
    total, y = None, complex(y0)
    for z0, z1 in zip(points[:-1], points[1:]):
        if z0 == z1:
            continue
        sp = path(curve, z0, z1, y)
        leg = z1 - z0
        part = adaptive_gl(lambda z: np.asarray(rows_fn(*sp.xy_at(z.real))) * leg,
                           np.zeros(1), np.ones(1), tol)[:, 0]
        total = part if total is None else total + part
        y = sp.y_end
    return total, y


def _routes(curve, frm, to):
    return list(periods._candidate_routes(curve, frm.x, to.x))


def _reference_abel_map(curve, bundle, frm, to):
    """Integrate every route in turn; keep the first that ends on to's sheet."""
    rows = periods._u_rows(curve)
    for pts in _routes(curve, frm, to):
        total, y_end = _reference_along(curve, pts, frm.y, rows, bundle.quad_tol)
        if abs(y_end - to.y) <= abs(y_end + to.y):
            return bundle.inv_two_omega @ total
    raise AssertionError("no route ends on the sheet of the target")


def _same_y(a, b):
    return abs(a - b) <= 1e-9 * abs(b)


def _assert_same_points(got, want, length, where):
    """The same sheet at every node, x within 1e-14 of the leg length and y
    within 1e-13 relative."""
    (x, y), (x_ref, y_ref) = got, want
    assert np.all(np.abs(y - y_ref) < np.abs(y + y_ref)), where
    assert np.max(np.abs(x - x_ref)) <= 1e-14 * length, where
    assert np.max(np.abs(y - y_ref) / np.abs(y_ref)) < 1e-13, where


def _assert_leg_matches(curve, z0, z1, y0, extra_t=None):
    new, ref = _leg(curve, z0, z1, y0), _ReferenceSheetPath(curve, z0, z1, y0)
    for t in (NODES,) if extra_t is None else (NODES, extra_t):
        _assert_same_points(new.xy_at(t), ref.xy_at(t), abs(z1 - z0), (z0, z1))
    assert _same_y(new.y_end, ref.y_end), (z0, z1, new.y_end, ref.y_end)
    return new


def _random_points(rng, n):
    return rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)


def _random_curve(rng):
    while True:
        pts = _random_points(rng, int(rng.choice([3, 5])))
        if min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]) > 0.3:
            return curve_from_branch_points(pts)


def _random_legs():
    """(curve, z0, z1, y0, extra nodes) of 220 legs keeping 0.02 from the branch points."""
    rng = np.random.default_rng(7301)
    out = []
    while len(out) < 220:
        curve = _random_curve(rng)
        z0, z1 = 1.5 * _random_points(rng, 2)
        if min(segment_distance(z0, z1, e) for e in curve.branch_points) < 0.02:
            continue
        y0 = curve.lift(z0, 1 if rng.uniform() < 0.5 else -1).y
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        out.append((curve, z0, z1, y0, a + (b - a) * NODES))
    return out


def test_sheet_signs_match_the_stepping_walk_on_random_legs():
    for curve, z0, z1, y0, extra_t in _random_legs():
        _assert_leg_matches(curve, z0, z1, y0, extra_t=extra_t)


@pytest.mark.parametrize("z0, z1, crossings", [
    (-3.0, -2.5, 0),              # along the real axis, on the cuts of all five factors
    (0.25, 0.75, 0),              # along the real axis between branch points
    (0.5, 0.5 - 0.75j, 2),        # from a vertex on the cuts of x - 1 and x - 2, downward
    (0.5, 0.5 + 0.75j, 0),        # the same vertex, upward
    (0.5 + 0.75j, 0.5, 0),        # arriving on those cuts from above
    (0.5 - 0.75j, 0.5, 2),        # arriving on them from below
    (-1.5 + 1.0j, -1.5 - 1.0j, 4),  # crossing four cuts at once
])
def test_edge_legs_on_a_real_curve(z0, z1, crossings):
    curve = curve_from_branch_points(STANDARD_POINTS)
    for sheet in (1, -1):
        y0 = curve.lift(z0, sheet).y
        sp = _assert_leg_matches(curve, z0, z1, y0)
        assert int(sp.crossed.sum()) == crossings
        assert _same_y(Route(curve, (z0, z1), y0).y_end, sp.y_end)


def test_leg_crossing_five_cuts_at_different_points():
    curve = curve_from_branch_points(SKEW_POINTS)
    z0, z1 = -2.0 + 1.5j, -2.0 - 1.5j
    sp = _assert_leg_matches(curve, z0, z1, curve.lift(z0).y)
    assert int(sp.crossed.sum()) == 5
    # between consecutive crossings the parity alternates
    t_star = sorted((1.5 - e.imag) / 3.0 for e in SKEW_POINTS)
    mids = np.array([0.5 * (a + b) for a, b in zip(t_star[:-1], t_star[1:])])
    w = -2.0 + (1.5 - 3.0 * mids)[:, None] * 1j - np.asarray(SKEW_POINTS)
    parity = sp.cuts.product(w, 0) / (2.0 * np.sqrt(w).prod(axis=-1))
    assert np.array_equal(parity, [-1, 1, -1, 1])


def test_cut_belongs_to_the_upper_side():
    w0 = np.array([-1.0 + 0j])
    down, up = CutCrossings(w0, -1j, w0 - 1j), CutCrossings(w0, 1j, w0 + 1j)
    assert down.crossed.tolist() == [True] and up.crossed.tolist() == [False]
    # the root stays on its upper value at the cut and continues below it
    assert np.array_equal(down.product(np.array([[-1.0 + 0j], [-1.0 - 0.5j]])),
                          [2j, -2.0 * np.sqrt(-1.0 - 0.5j)])
    arrive = CutCrossings(np.array([-1.0 - 1j]), 1j, w0)
    assert arrive.crossed.tolist() == [True]
    assert CutCrossings(np.array([-1.0 + 1j]), -1j, w0).crossed.tolist() == [False]
    assert CutCrossings(np.array([1.0 + 1j]), -1j, np.array([1.0 - 1j])).crossed.tolist() == [False]
    assert CutCrossings(w0, 2.0, w0 + 2.0).crossed.tolist() == [False]


def _branch_legs():
    """(curve, branch index, x0): 8 chosen legs and 72 keeping 0.2 from the other branch points."""
    rng = np.random.default_rng(7302)
    std, skew = (curve_from_branch_points(p) for p in (STANDARD_POINTS, SKEW_POINTS))
    cases = [(std, 1, x0) for x0 in (-1.4, -0.6, -1.0 + 0.3j, -1.0 - 0.3j, -0.8 - 0.1j)]
    # into 0.2 + 0.8j across the cut of x - (1.8 + 0.6j), and back above it
    cases += [(skew, 2, 0.2 - 0.2j), (skew, 2, 0.2 + 0.5j), (skew, 2, 0.9 + 0.1j)]
    while len(cases) < 80:
        curve = _random_curve(rng)
        k = int(rng.integers(len(curve.branch_points)))
        e = curve.branch_points[k]
        x0 = e + rng.uniform(0.05, 1.5) * np.exp(2j * np.pi * rng.uniform())
        others = [p for j, p in enumerate(curve.branch_points) if j != k]
        if min(segment_distance(x0, e, p) for p in others) > 0.2:
            cases.append((curve, k, x0))
    return cases


def test_branch_leg_signs_match_the_checkpoint_walk():
    crossing = 0
    for curve, k, x0 in _branch_legs():
        for sheet in (1, -1):
            y0 = curve.lift(x0, sheet).y
            new, ref = BranchLegPath(curve, k, x0, y0), _ReferenceBranchLegPath(curve, k, x0, y0)
            _assert_same_points(new.xy_at(NODES), ref.xy_at(NODES),
                                abs(x0 - curve.branch_points[k]), (curve.branch_points, k, x0))
        crossing += bool(new.cuts.crossed.any())
    assert crossing >= 10


def _assert_on_curve(y, factors, where):
    """y^2 = 4 prod_k factors_k to 1e-13 relative at every node."""
    rhs = 4.0 * np.prod(factors, axis=-1)
    assert np.max(np.abs(y ** 2 - rhs) / np.abs(rhs)) < 1e-13, where


def test_leg_y_squares_to_the_branch_point_product():
    """y^2 = 4 prod (x - e_k) on both leg classes.  Into a branch point e the
    factor x - e is (x0 - e) s^2, as the leg defines it: recomputed from the
    rounded x it would carry the rounding of e, far above its own size."""
    for curve, z0, z1, y0, extra_t in _random_legs():
        sp = _leg(curve, z0, z1, y0)
        for t in (NODES, extra_t, np.array([0.0, 0.5, 1.0])):
            x, y = sp.xy_at(t)
            _assert_on_curve(y, x[:, None] - np.asarray(curve.branch_points), (z0, z1))
    for curve, k, x0 in _branch_legs():
        e = curve.branch_points[k]
        for sheet in (1, -1):
            x, y = BranchLegPath(curve, k, x0, curve.lift(x0, sheet).y).xy_at(NODES)
            others = np.delete(np.asarray(curve.branch_points), k)
            factors = np.column_stack([(x0 - e) * NODES ** 2, x[:, None] - others])
            _assert_on_curve(y, factors, (curve.branch_points, k, x0))


def _triples(n, seed):
    """(curve, bundle, P, Q): every candidate route keeps 0.05 from the branch points."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        curve = _random_curve(rng)
        bundle = compute_periods(curve)
        for _ in range(3):
            x0, x1 = 1.2 * _random_points(rng, 2)
            p, q = (curve.lift(x, 1 if rng.uniform() < 0.5 else -1) for x in (x0, x1))
            legs = [leg for r in _routes(curve, p, q) for leg in zip(r[:-1], r[1:])]
            if min(segment_distance(a, b, e) for a, b in legs for e in curve.branch_points) > 0.05:
                out.append((curve, bundle, p, q))
    return out[:n]


@pytest.fixture(scope="module")
def triples():
    return _triples(30, 7303)


def test_route_parity_matches_the_walk_on_every_route(triples):
    for curve, bundle, p, q in triples:
        rows = periods._u_rows(curve)
        for pts in _routes(curve, p, q):
            _, y_ref = _reference_along(curve, pts, p.y, rows, bundle.quad_tol)
            assert _same_y(Route(curve, pts, p.y).y_end, y_ref), (curve.branch_points, pts)


def _bits(*values):
    return np.array(values, dtype=complex).tobytes()


def _assert_route_is_the_chain(curve, pts, y0):
    """Per leg the same z0, z1, sign and crossed, and the same y_end, in bits."""
    route, (chain, y_end) = Route(curve, pts, y0), _chain(curve, pts, y0)
    assert len(route.legs) == len(chain), pts
    for leg, ref in zip(route.legs, chain):
        got, want = ((v.z0, v.z1, v.sign, v.y_end) for v in (leg, ref))
        assert _bits(*got) == _bits(*want), pts
        assert np.array_equal(leg.crossed, ref.crossed), pts
    assert _bits(route.y_end) == _bits(y_end), pts
    return sum(int(ref.crossed.sum()) for ref in chain)


def test_route_pass_equals_the_leg_chain(triples):
    """Every candidate route of the triples, each also with repeated
    vertices (legs of length 0) at its start, inside and at its end, and
    a route of one repeated point: its y_end is y0 and its integral 0."""
    crossings = 0
    for curve, bundle, p, q in triples:
        for pts in _routes(curve, p, q):
            crossings += _assert_route_is_the_chain(curve, pts, p.y)
            _assert_route_is_the_chain(curve, pts[:1] + pts[:2] + pts[1:] + pts[-1:], q.y)
    assert crossings > 100
    std = curve_from_branch_points(STANDARD_POINTS)
    # vertices on the cuts of x - 1 and x - 2, and legs across four cuts at once
    pts = (0.5 + 0.75j, 0.5, 0.5 - 0.75j, -1.5 - 1.0j, -1.5 + 1.0j, 0.25, 0.75, -3.0, -2.5)
    for sheet in (1, -1):
        assert _assert_route_is_the_chain(std, pts, std.lift(pts[0], sheet).y) == 2 + 4
    y0 = std.lift(0.5 + 1.0j).y
    route = Route(std, (0.5 + 1.0j,) * 3, y0)
    assert route.legs == [] and route.y_end == y0 == _chain(std, (0.5 + 1.0j,) * 3, y0)[1]
    got = paths.integrate_rows_along(route, periods._u_rows(std), 1e-12)
    assert got.dtype == complex and np.array_equal(got, [0.0, 0.0])


#: Coordinates on a coarse grid, signed zeros included, so that vertices
#: fall on numpy's cut of some factor (Im w = 0 > Re w) and repeat often.
_COORDS = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
                    st.floats(-3.0, 3.0, allow_nan=False))
_POINTS = st.builds(complex, _COORDS, _COORDS)


def _array_route(e, points, y0):
    """(z, cuts, sign, y_end) of a ``Route`` formed on arrays over all its
    vertices at once: one ``CutCrossings`` over every leg, the signs from
    the running parity of its crossings."""
    z = np.asarray(points, dtype=complex)
    z = z[np.concatenate(([True], z[1:] != z[:-1]))]
    w = z[:, None] - e
    cuts = CutCrossings(w[:-1], (z[1:] - z[:-1])[:, None], w[1:])
    flips = np.concatenate(([0], np.cumsum(cuts.crossed.sum(axis=1)))) % 2
    sign = (1.0 if paths.on_sheet(2.0 * np.sqrt(w[0]).prod(), y0) else -1.0) * (1.0 - 2.0 * flips)
    y_end = complex(sign[-1] * (2.0 * np.sqrt(w[-1]).prod())) if len(z) > 1 else y0
    return z, cuts, sign, y_end


@settings(max_examples=300, deadline=None)
@given(st.lists(_POINTS, min_size=3, max_size=5),
       st.lists(st.tuples(_POINTS, st.integers(1, 3)), min_size=1, max_size=6), _POINTS)
@example([-2.0, -1.0, 0.0, 1.0, 2.0], [(0.5 + 0.75j, 1), (0.5, 2), (complex(0.5, -0.0), 1),
                                       (0.5 - 0.75j, 1), (-3.0, 1), (complex(-3.0, -0.0), 1)], 1.0)
@example([-2.0, -1.0, 0.0], [(complex(-0.5, -0.0), 3)], -1.0j)
def test_route_scalars_equal_the_crossings_on_arrays(branch, runs, y0):
    """``Route`` forms its crossings and signs vertex by vertex on scalars;
    over the same vertices they are the arrays ``CutCrossings`` forms, in
    bits: vertices on a factor's cut from either side and with either
    signed zero, repeated vertices and routes of one vertex included."""
    points = [v for v, times in runs for _ in range(times)]
    route = Route(SimpleNamespace(branch_points=tuple(branch)), points, y0)
    z, cuts, sign, y_end = _array_route(np.asarray(branch, dtype=complex), points, complex(y0))
    assert _bits(*route.z) == _bits(*z)
    for got, want in ((route.cuts.upper0, cuts.upper0), (route.cuts.crossed, cuts.crossed)):
        assert got.dtype == want.dtype == bool and got.shape == want.shape == (len(z) - 1, len(branch))
        assert np.array_equal(got, want)
    assert route.sign.dtype == sign.dtype and route.sign.tobytes() == sign.tobytes()
    assert _bits(route.y_end) == _bits(y_end)


def test_an_integrated_route_is_freed_by_its_last_reference():
    """Its legs hold no reference back to it: a cycle would keep every
    route until the cycle collector ran, and the peak memory of a run of
    Abel maps grew by about 0.5 MB."""
    curve = curve_from_branch_points(STANDARD_POINTS)
    p, q = curve.lift(0.5 + 1.0j), curve.lift(2.6 + 0.3j)
    route = Route(curve, _routes(curve, p, q)[2], p.y)
    paths.integrate_rows_along(route, periods._u_rows(curve), 1e-12)
    assert len(route.legs) >= 10
    gone = weakref.ref(route)
    del route
    assert gone() is None


def test_abel_map_equals_the_every_route_pipeline(triples):
    std = curve_from_branch_points(STANDARD_POINTS)
    std_bundle = compute_periods(std)
    pairs = [(0.5 + 1.0j, 2.6 + 0.3j), (-1.5 + 0.5j, 1.5 - 0.5j), (0.3 - 0.2j, -2.4 + 0.1j)]
    cases = [(std, std_bundle, std.lift(a), std.lift(b, -1)) for a, b in pairs] + triples
    for curve, bundle, p, q in cases:
        got, want = abel_map(curve, bundle, p, q), _reference_abel_map(curve, bundle, p, q)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (curve.branch_points, p, q)


def test_abel_map_integrates_only_the_route_it_keeps(monkeypatch):
    """Only the third route ends on q's sheet.  On a fresh curve the first
    map walks the loop once and the far route's legs once; a second map on
    the same curve walks the far route's legs only.  Both give the bits of
    one walk over the whole loop route."""
    curve = curve_from_branch_points(STANDARD_POINTS)
    bundle = compute_periods(curve)
    p, q = curve.lift(0.5 + 1.0j), curve.lift(2.6 + 0.3j)
    routes = _routes(curve, p, q)
    ends = [Route(curve, pts, p.y).y_end for pts in routes]
    assert [abs(y - q.y) <= abs(y + q.y) for y in ends] == [False, False, True]
    rows = periods._u_rows(curve)
    want = bundle.inv_two_omega @ paths.integrate_rows_along(Route(curve, routes[2], p.y), rows,
                                                             bundle.quad_tol)
    # the loop route is the far route with the loop from the far point spliced in
    held = periods._abel_routes(curve)
    loop = [held.far, *held.loop]
    h = routes[1].index(held.far)
    assert list(routes[2]) == list(routes[1][:h]) + loop + list(routes[1][h + 1:])
    calls = []
    for name in ("integrate_rows_along", "leg_integrals"):
        monkeypatch.setattr(periods, name, lambda route, *args, name=name, walk=getattr(periods, name):
                            calls.append((name, route.z.tolist())) or walk(route, *args))
    first = abel_map(curve, bundle, p, q)
    assert calls == [("leg_integrals", loop), ("leg_integrals", list(routes[1]))]
    del calls[:]
    second = abel_map(curve, bundle, p, q)
    assert calls == [("leg_integrals", list(routes[1]))]
    assert np.array_equal(first, want) and np.array_equal(second, want)
    assert _bits(*first) == _bits(*second) == _bits(*want)


def _one_walk_map(curve, bundle, frm, to):
    """(map, route index): the Abel map along the first candidate route
    ending on to's sheet, all its legs in one walk."""
    for k, pts in enumerate(_routes(curve, frm, to)):
        route = Route(curve, pts, frm.y)
        if abs(route.y_end - to.y) <= abs(route.y_end + to.y):
            total = paths.integrate_rows_along(route, periods._u_rows(curve), bundle.quad_tol)
            return bundle.inv_two_omega @ total, k
    raise AssertionError("no route ends on the sheet of the target")


@pytest.mark.parametrize("points", [STANDARD_POINTS, SKEW_POINTS, "near_miss",
                                    (-1.3 + 0.2j, 0.5 - 0.1j, 0.9 - 0.3j)],
                         ids=["standard", "skew", "near_miss", "genus1"])
def test_warm_loop_maps_equal_one_walk_over_the_loop_route(points, monkeypatch):
    """Every map, with the loop walked on the first loop map of a curve
    object at a tolerance and reused after, has the bits of one walk over
    its route: at two tolerances on one curve object, on a value-equal
    second object, and from and to the far point itself, where the far
    route's head or tail (or both) is empty.  The loop's crossings have odd
    parity on every curve, and no ``Route`` outlives its map without the
    cycle collector."""
    points = NEAR_MISS_CURVE if points == "near_miss" else points
    curve, twin = curve_from_branch_points(points), curve_from_branch_points(points)
    assert twin == curve and twin is not curve
    rng = np.random.default_rng(25)
    xs = []
    while len(xs) < 5:
        x = complex(*rng.uniform(-2.5, 2.5, 2))
        if min(abs(x - e) for e in points) > 0.05:
            xs.append(x)
    built, make = [], periods.Route
    monkeypatch.setattr(periods, "Route", lambda *args: built.append(make(*args)) or built[-1])
    collecting = gc.isenabled()
    gc.disable()  # a route must be freed by its last reference, not by the collector
    try:
        _assert_warm_loop_maps(curve, twin, points, xs, built)
    finally:
        if collecting:
            gc.enable()


def _assert_warm_loop_maps(curve, twin, points, xs, built):
    for c in (curve, twin):
        far = periods._abel_routes(c).far
        for tol in (1e-12, 1e-9):
            bundle = compute_periods(c, tol)
            pairs = [(c.lift(a), c.lift(b, sheet)) for a, b in zip(xs, xs[1:]) for sheet in (1, -1)]
            pairs += [(c.lift(far, s0), c.lift(x, s1)) for x in xs[:2] for s0 in (1, -1)
                      for s1 in (1, -1)]
            pairs += [(c.lift(x), c.lift(far, sheet)) for x in xs[:2] for sheet in (1, -1)]
            pairs += [(c.lift(far), c.lift(far, -1)), (c.lift(far, -1), c.lift(far))]
            kinds = []
            for frm, to in pairs:
                got = abel_map(c, bundle, frm, to)
                gone = [weakref.ref(r) for r in built]
                del built[:]
                assert gone and all(r() is None for r in gone)
                want, kind = _one_walk_map(c, bundle, frm, to)
                assert np.array_equal(got, want), (points, tol, frm.x, to.x)
                kinds.append(kind)
            assert kinds.count(2) >= 6, kinds
        held = periods._abel_routes(c)._loop_legs
        assert sorted(held) == [1e-12, 1e-9] and [p for _, p in held.values()] == [1, 1]


#: A curve on which straight route pieces from the far point passing 1e-3 to
#: 1.3e-3 from a branch point, just outside ``PATH_CLEARANCE`` and so with
#: no detour, made ``abel_map`` raise ``QuadratureNonConvergence`` ("panel
#: [0.73938, 0.73938] still moving at depth 26") while legs matched y
#: against a stepping walk; (P, sheet, Q, sheet) of 12 maps P -> Q that did.
NEAR_MISS_CURVE = (0.0398 - 0.6312j, 0.4050 - 0.8278j, 1.5501 + 0.5467j, 0.4767 - 0.5175j,
                   -1.2053 + 0.2852j)
#: The point the second and third candidate routes go through (``_candidate_routes``).
_CENTER = sum(NEAR_MISS_CURVE) / 5
_RADIUS = 1.6 * max(abs(e - _CENTER) for e in NEAR_MISS_CURVE) + 1.0
NEAR_MISS_FAR = _CENTER + _RADIUS * np.exp(1j * np.pi / 7)
NEAR_MISS_MAPS = [
    (1.8064174808883422 + 1.8826854820829029j, 1, -0.6439688222525555 - 1.571293819903866j, 1),
    (-2.2673339896257043 - 2.1579518222913885j, 1, -0.38396228132939525 - 1.3873052911094912j, -1),
    (-2.1545489463370893 - 2.0504061668131417j, -1, 0.29933117365466666 - 0.9038210607474988j, -1),
    (0.8728537630824578 - 2.1875211896721587j, 1, -1.1939410468041456 - 1.3342085953230667j, 1),
    (2.3123655512152217 + 0.21163250742073725j, -1, -1.0907509081899547 - 1.2753511755314415j, -1),
    (1.6299171383850934 + 0.6789879479836762j, -1, -0.4517367001140338 - 1.4353107917220056j, 1),
    (-0.9332332678317645 + 1.7024913657599114j, 1, -0.28362438760070896 - 1.316320968218772j, -1),
    (-1.4217350366827501 - 0.10873629974755561j, -1, -0.13728047551130196 - 1.2127521586751073j, 1),
    (1.686615249094844 + 1.0040132752384654j, 1, 0.1180521525939211 - 1.0323573227565381j, -1),
    (-1.6121796715049812 - 1.4825256016997117j, -1, -0.6890990965509229 - 1.6035371560508227j, 1),
    (0.7997607916497347 - 0.078704501327302j, -1, 0.15750292445232406 - 1.0043810583615116j, 1),
    (-1.9493891921272182 - 0.7743892517703876j, 1, -0.4109606978856202 - 1.4064893526118736j, -1),
]


def _near_miss_maps(rng, n):
    """n (P, Q) pairs whose piece from the far point to Q passes 1e-3 to
    1.3e-3 from a branch point and ends 0.02 to 1.5 past it."""
    out = []
    while len(out) < n:
        e = NEAR_MISS_CURVE[rng.integers(5)]
        u = (e - NEAR_MISS_FAR) / abs(e - NEAR_MISS_FAR)
        aim = e + rng.choice([1, -1]) * rng.uniform(1.0e-3, 1.3e-3) * 1j * u
        reach = aim - NEAR_MISS_FAR
        q = NEAR_MISS_FAR + reach * (1 + rng.uniform(0.02, 1.5) / abs(reach))
        p = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if min(abs(x - b) for x in (p, q) for b in NEAR_MISS_CURVE) > 0.05:
            out += [(p, rng.choice([1, -1]), q, sheet) for sheet in (1, -1)]
    return out


def test_a_long_leg_keeps_a_clearance_relative_to_its_length():
    """A branch point 50 off a leg 1e6 long, far outside ``PATH_CLEARANCE``,
    is within 1e-4 of the leg's length, so the route detours to keep that
    much from it."""
    e = 5e5 + 50j
    pts = polyline_with_clearance(0j, 1e6 + 0j, [e])
    assert len(pts) > 2
    assert min(segment_distance(a, b, e) for a, b in zip(pts, pts[1:])) >= 100.0


def test_route_pieces_just_outside_the_clearance_integrate():
    """The maps that failed, and 160 more drawn alike, go through: each map
    P -> Q and Q -> P returns, and the two add to a lattice vector."""
    curve = curve_from_branch_points(NEAR_MISS_CURVE)
    bundle = compute_periods(curve)
    via_far = 0
    for x, sp, y, sq in NEAR_MISS_MAPS + _near_miss_maps(np.random.default_rng(7304), 160):
        p, q = curve.lift(x, sp), curve.lift(y, sq)
        direct, via, _ = _routes(curve, p, q)
        there = abel_map(curve, bundle, p, q)
        assert periods.lattice_distance(there + abel_map(curve, bundle, q, p), bundle.tau) < 1e-9, (x, y)
        end = Route(curve, direct, p.y).y_end
        if abs(end - q.y) > abs(end + q.y):
            via_far += 1
            assert NEAR_MISS_FAR in via
            assert 1e-3 < min(segment_distance(NEAR_MISS_FAR, q.x, e) for e in NEAR_MISS_CURVE) < 1.3e-3
    assert via_far >= 80


GL_NODES, GL_WEIGHTS = nleg.leggauss(32)


def _reference_gl(f, a, b, tol):
    """The recursive ``adaptive_gl``: depth first, one call of f per panel.
    Returns the integral and the node arrays f received."""
    nodes = []

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * GL_NODES
        nodes.append(x)
        return half * (np.asarray(f(x)) @ GL_WEIGHTS)

    def refine(a, b, whole, tol_density, depth):
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        better = left + right
        if float(np.max(np.abs(better - whole))) <= tol_density * (b - a):
            return better
        if depth >= _MAX_DEPTH:
            raise QuadratureNonConvergence(f"panel [{a:.6g}, {b:.6g}] still moving at depth {depth}")
        return (refine(a, m, left, tol_density, depth + 1)
                + refine(m, b, right, tol_density, depth + 1))

    whole = panel(a, b)
    scale = max(1.0, float(np.max(np.abs(whole))))
    return refine(a, b, whole, tol * scale / (b - a), 0), nodes


def _indexed(x, k):
    """Real nodes x as the complex nodes x + 1j k of interval k, exactly."""
    z = x.astype(complex)
    z.imag = k
    return z


def _per_interval(f, a, b):
    """(integrand, a, b) of each interval of an ``adaptive_gl`` call as a
    call of its own on real nodes."""
    return [(lambda x, k=k: f(_indexed(x, k)), a[k], b[k]) for k in range(len(a))]


@pytest.fixture
def against_reference(monkeypatch):
    """Every ``adaptive_gl`` call of the package also runs the reference on
    its integrand, once per interval: per interval the same multiset of
    nodes and the same bits, for any number of rows (each panel is still one
    (rows, 32) product with the weights).  Yields (rows, intervals, batched
    calls, reference calls) per call."""
    seen = []
    batched = paths.adaptive_gl

    def both(f, a, b, tol):
        got_nodes = []

        def recorded(x):
            got_nodes.append(x)
            return f(x)

        got = batched(recorded, a, b, tol)
        nodes = np.concatenate(got_nodes)
        assert got.shape[1] == len(a) and np.array_equal(np.unique(nodes.imag), np.arange(len(a)))
        mine = [(nodes.real[nodes.imag == k], got[:, k]) for k in range(len(a))]
        runs = _per_interval(f, a, b)
        reference_calls = 0
        for (g, lo, hi), (own_nodes, value) in zip(runs, mine, strict=True):
            want, want_nodes = _reference_gl(g, lo, hi, tol)
            assert np.array_equal(np.sort(own_nodes), np.sort(np.concatenate(want_nodes)))
            assert np.array_equal(value, want), np.max(np.abs(value - want))
            reference_calls += len(want_nodes)
        seen.append((len(got), len(runs), len(got_nodes), reference_calls))
        return got

    monkeypatch.setattr(paths, "adaptive_gl", both)
    monkeypatch.setattr(periods, "adaptive_gl", both)
    return seen


def test_chain_quadrature_matches_the_recursion(against_reference):
    """All chains of a curve in one walk: one call per ``compute_periods``."""
    rng = np.random.default_rng(11)
    curves = [curve_from_branch_points(STANDARD_POINTS)] + [random_curve(rng) for _ in range(20)]
    compute_periods(curves[0])
    assert len(against_reference) == 1
    for curve in curves[1:]:
        compute_periods(curve)
    assert len(against_reference) == len(curves)
    assert {(rows, n) for rows, n, _, _ in against_reference} == {(4, 4)}
    # two levels a walk here, 42 integrand calls against the recursion's 336
    assert sum(c for _, _, c, _ in against_reference) < 0.15 * sum(c for *_, c in against_reference)


def _reference_legs(route, rows_fn, tol):
    """The legs of a route one after another, each piece by a recursion:
    a piece [a, b] of a leg is halved while some branch point has Bernstein
    parameter rho = |u + sqrt(u - 1) sqrt(u + 1)|, u = (2 tau - a - b) /
    (b - a), folded to rho >= 1, below rho* = (K / tol)^(1/64); a kept
    piece takes one 32-node panel, its nodes also counted back from the
    leg's end, and a halved piece is the sum of its halves.  (rows, legs)."""
    rho_star = (paths._PIECE_K / tol) ** (1.0 / 64.0)
    columns = []
    for leg in route.legs:
        d = leg.z1 - leg.z0
        tau = (leg.e - leg.z0) / d

        def piece(a, b, depth, leg=leg, d=d, tau=tau):
            u = (2.0 * tau - a - b) / (b - a)
            rho = np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0))
            if np.min(np.fmax(rho, 1.0 / rho)) < rho_star:
                assert depth < _MAX_DEPTH
                m = 0.5 * (a + b)
                return piece(a, m, depth + 1) + piece(m, b, depth + 1)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            t, back = mid + half * GL_NODES, (1.0 - mid) - half * GL_NODES
            x, y = paths._legs_xy(leg.z0, leg.z1, leg.sign, leg.e, leg.cuts, t, back, leg.k)
            return half * ((np.asarray(rows_fn(x, y)) * d) @ GL_WEIGHTS)

        columns.append(piece(0.0, 1.0, 0))
    return np.array(columns).T


def test_leg_quadrature_matches_the_recursion(against_reference):
    """One-row numerators over every a-chain take one ``adaptive_gl`` call,
    checked against the recursion; Abel legs, straight and s^2 legs into a
    branch point (out of the one nearest the target of
    ``abel_from_infinity``, and into one by ``abel_map``), genus 2 and
    genus 1, take none.  Every candidate route (the direct one, the one via
    the far point, and that one with its loop) has, leg by leg, the bits of
    the recursion over its pieces."""
    cases = [(curve_from_branch_points(STANDARD_POINTS), (0.5 + 1.0j, 2.6 + 0.3j, -1.5 + 0.5j)),
             (curve_from_branch_points(SKEW_POINTS), (0.3 - 0.2j, -2.4 + 0.1j, 1.1 - 0.3j)),
             (curve_from_branch_points((-1.0, 0.0, 1.0)), (0.5 + 0.7j, 2.0 - 1.0j, -3.0 + 0.1j)),
             (curve_from_branch_points((0.3, -1.0 + 0.5j, 2.0j)), (0.5 + 0.7j, 2.0 - 1.0j, 0.3))]
    pieces, legs, depth = 0, 0, 0
    for curve, (x0, x1, x2) in cases:
        bundle = compute_periods(curve)
        del against_reference[:]
        p, q, r = curve.lift(x0), curve.lift(x1, -1), curve.lift(x2)
        abel_map(curve, bundle, p, q)
        abel_map(curve, bundle, q, r)
        assert len(against_reference) == 0
        abel_from_infinity(curve, bundle, p)
        abel_map(curve, bundle, q, curve.lift(curve.branch_points[1]))
        periods.a_cycle_integrals(bundle, lambda x: (x * x)[None, :])
        rows = [n for n, _, _, _ in against_reference]
        assert rows == [1], rows
        routes = _routes(curve, p, q)
        for tol in (bundle.quad_tol, 1e-6):
            for pts in routes:
                route = Route(curve, pts, p.y)
                got = paths.leg_integrals(route, periods._u_rows(curve), tol)
                want = _reference_legs(route, periods._u_rows(curve), tol)
                assert got.shape == want.shape == (curve.genus, len(pts) - 1), pts
                assert np.array_equal(got, want), (curve.branch_points, pts, tol)
                tau = (route.e - route.z[:-1, None]) / (route.z[1:] - route.z[:-1])[:, None]
                layout = paths._leg_pieces(tau, tol, None)
                # each leg's pieces tile [0, 1] from left to right
                ends = [[(j * 0.5 ** d, (j + 1.0) * 0.5 ** d) for j, d in leg] for leg in layout]
                assert [(a[0][0], a[-1][1]) for a in ends] == [(0.0, 1.0)] * len(route.legs)
                assert all(left[1] == right[0] for a in ends for left, right in zip(a, a[1:]))
                pieces += sum(len(leg) for leg in layout)
                legs, depth = legs + len(route.legs), max([depth] + [d for leg in layout for _, d in leg])
        assert len(routes[1]) - 1 >= 2 and len(routes[2]) - 1 >= 10
    # the halving and the sum in halving order are exercised
    assert pieces > 1.5 * legs and depth >= 3, (pieces, legs, depth)


def test_route_walk_equals_the_leg_by_leg_sum(triples):
    """The legs of a route integrated together give the bits of each leg
    integrated alone, as a one-leg route started from the y_end of the
    last, and their parts add from the first.  A repeated vertex is a leg
    of length 0, skipped."""
    for curve, bundle, p, q in triples[:12]:
        rows = periods._u_rows(curve)
        routes = _routes(curve, p, q)
        for pts in routes + [routes[1][:2] + routes[1][1:]]:
            route = Route(curve, pts, p.y)
            columns = paths.leg_integrals(route, rows, bundle.quad_tol)
            alone, y = [], p.y
            for z0, z1 in zip(pts[:-1], pts[1:]):
                if z0 != z1:
                    leg = Route(curve, (z0, z1), y)
                    alone.append(paths.leg_integrals(leg, rows, bundle.quad_tol)[:, 0])
                    y = leg.y_end
            assert np.array_equal(columns, np.array(alone).T), (curve.branch_points, pts)
            got = paths.integrate_rows_along(route, rows, bundle.quad_tol)
            assert np.array_equal(got, paths.add_legs(np.array(alone).T)) and route.y_end == y
    assert {curve.genus for curve, *_ in triples[:12]} == {1, 2}


def _principal_route(curve, pts):
    e = np.asarray(curve.branch_points, dtype=complex)
    return Route(curve, pts, 2.0 * np.sqrt(pts[0] - e).prod())


def test_a_leg_that_cannot_clear_its_branch_points_is_refused():
    """A leg ending 1e-12 from a branch point, or running through one, still
    has a piece with a branch point inside its ellipse after ``_MAX_DEPTH``
    halvings; the refusal names the piece and its leg."""
    std = curve_from_branch_points(STANDARD_POINTS)
    rows = periods._u_rows(std)
    for pts, k in (((0.5 + 1.0j, 1e-12 + 0.0j), 0), ((0.5 + 1.0j, 0.5 + 0.5j, -0.5 - 0.5j), 1)):
        with pytest.raises(QuadratureNonConvergence,
                           match=rf"^piece \[[0-9.]+, [0-9.]+\] of leg {k} \[.+\] has a branch point "
                                 rf"inside its Bernstein ellipse rho\* = 1\.78 after {_MAX_DEPTH} "
                                 r"halvings$"):
            paths.leg_integrals(_principal_route(std, pts), rows, 1e-12)


def test_the_piece_budget_is_kept_per_leg(monkeypatch):
    """Legs ending 1e-3 from a branch point take 8 pieces and 1e-6 from one
    18; with a budget of 12 a route of two 8-piece legs goes through and a
    leg of 18 is refused by name."""
    std = curve_from_branch_points(STANDARD_POINTS)
    rows = periods._u_rows(std)
    monkeypatch.setattr(paths, "_MAX_PANELS", 12)
    two = _principal_route(std, (0.5 + 1.0j, 1e-3 + 0.0j, -0.5 + 1.0j))
    assert np.all(np.isfinite(paths.leg_integrals(two, rows, 1e-12)))
    three = _principal_route(std, (0.5 + 1.0j, 1e-3 + 0.0j, -0.5 + 1.0j, 1.0 + 1e-6j))
    with pytest.raises(QuadratureNonConvergence,
                       match=r"^piece budget of 12 spent: piece \[[0-9.]+, [0-9.]+\] of leg 2 "
                             r"\[-0\.5\+1j, 1\+1e-06j\] still to be halved$"):
        paths.leg_integrals(three, rows, 1e-12)


def _bumps(z):
    """Two rows on complex nodes t + 1j k; interval 1 a million times larger."""
    t, k = z.real, z.imag
    v = np.where(k == 1, 1e6, 1.0) * np.exp(np.sin(5.0 * t)) / (1.0 + 25.0 * t * t)
    return np.vstack([v, v * t])


def test_forest_columns_are_calls_on_their_own_intervals():
    """Each tree keeps its own scale, accept test and nodes: its column has
    the bits of a one-interval call on its interval."""
    a, b = np.array([0.0, -1.0, 2.0, -3.0]), np.array([1.0, 1.0, 2.5, 3.0])
    got = adaptive_gl(_bumps, a, b, 1e-12)
    assert got.shape == (2, 4)
    for k in range(4):
        alone = adaptive_gl(lambda z, k=k: _bumps(_indexed(z.real, k)), a[k:k + 1], b[k:k + 1], 1e-12)
        assert alone.shape == (2, 1) and np.array_equal(got[:, k], alone[:, 0]), k


def test_budget_and_depth_are_kept_per_tree():
    """A tree that never settles spends its own budget, whatever the others
    refine, and the message names its interval."""
    def noisy(z):
        t, k = z.real, z.imag
        return np.where(k == 2, _hash_noise(t)[0], np.where(k == 0, t ** 2.5, np.cos(t)))[None, :]

    nodes, alone = [], []
    with pytest.raises(QuadratureNonConvergence,
                       match=rf"panel budget of {_MAX_PANELS} spent: panel \[0, [0-9.e-]+\] "
                             r"of interval 2 \[0, 1\] still moving at depth \d+$"):
        adaptive_gl(lambda z: nodes.append(z) or noisy(z), np.zeros(4), np.ones(4), 1e-14)
    with pytest.raises(QuadratureNonConvergence, match="panel budget"):
        adaptive_gl(_counted(lambda z: noisy(_indexed(z.real, 2)), alone), np.zeros(1), np.ones(1), 1e-14)
    k = np.concatenate(nodes).imag
    assert np.count_nonzero(k == 2) == sum(alone) <= 32 * _MAX_PANELS
    assert np.count_nonzero(k == 0) > 8 * 32 and np.count_nonzero(k % 2) == 2 * 3 * 32

    def singular(z):
        return np.where(z.imag == 1, np.abs(z.real - 1.0 / 3.0) ** -0.5, np.cos(z.real))[None, :]

    with pytest.raises(QuadratureNonConvergence,
                       match=rf"^panel \[[0-9.e-]+, [0-9.e-]+\] of interval 1 \[0, 1\] "
                             rf"still moving at depth {_MAX_DEPTH}$"):
        adaptive_gl(singular, np.zeros(2), np.ones(2), 1e-12)


def _hash_noise(x):
    """Per-node noise of relative size 1e-9: no panel ever settles at 1e-14."""
    v = 1.0 + 1e-9 * np.modf(np.abs(43758.5453 * np.sin(1.29898e7 * x)))[0]
    return np.vstack([v, 2.0 * v])


def _counted(f, sizes):
    def g(x):
        sizes.append(len(x))
        return f(x)
    return g


def test_nonconvergent_integrand_fails_within_the_panel_budget():
    sizes = []
    with pytest.raises(QuadratureNonConvergence,
                       match=rf"^panel budget of {_MAX_PANELS} spent: panel \[0, [0-9.e-]+\] "
                             r"of interval 0 \[0, 1\] still moving at depth \d+$"):
        adaptive_gl(_counted(lambda z: _hash_noise(z.real), sizes), np.zeros(1), np.ones(1), 1e-14)
    assert sum(sizes) <= 32 * _MAX_PANELS


def test_singular_integrand_fails_at_the_depth_limit():
    """One panel keeps moving per level: the depth limit stops it, with the
    recursion's message, long before the budget would."""
    def f(x):
        return np.vstack([np.abs(x - 1.0 / 3.0) ** -0.5] * 2)

    sizes = []
    with pytest.raises(QuadratureNonConvergence,
                       match=rf"^panel \[.* of interval 0 \[0, 1\] still moving at depth {_MAX_DEPTH}$"):
        adaptive_gl(_counted(lambda z: f(z.real), sizes), np.zeros(1), np.ones(1), 1e-12)
    with pytest.raises(QuadratureNonConvergence, match=rf"still moving at depth {_MAX_DEPTH}$"):
        _reference_gl(f, 0.0, 1.0, 1e-12)
    assert sum(sizes) < 32 * _MAX_PANELS


def test_clustered_chain_fails_within_the_panel_budget(monkeypatch):
    """(-2, -1, 0, 1e-5, 2) passes every degeneracy gate, but its chain
    (-1, 0) never settles; it must fail after at most the budget's nodes."""
    sizes = []
    batched = paths.adaptive_gl
    monkeypatch.setattr(periods, "adaptive_gl",
                        lambda f, a, b, tol: batched(_counted(f, sizes), a, b, tol))
    with pytest.raises(QuadratureNonConvergence, match="still moving at depth") as err:
        compute_periods(curve_from_branch_points((-2.0, -1.0, 0.0, 1e-5, 2.0)))
    assert sum(sizes) <= 32 * _MAX_PANELS
    # the chains are walked together; the message names the one that spent its budget
    assert f"panel budget of {_MAX_PANELS} spent" in str(err.value)
    assert "of interval 1 [0, 3.14159]" in str(err.value)

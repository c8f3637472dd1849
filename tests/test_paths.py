"""Sheet continuation: the cut-crossing rule against a stepping walk.

``SheetPath`` and ``BranchLegPath`` take y from the product of the factors
sqrt(x - e_k), each continued across its cut, and ``abel_map`` picks its
route from their parity before integrating.  The references below are the
stepping continuations they replaced, kept here verbatim in behaviour, and
the pipeline that integrated every candidate route and kept the first one
ending on the right sheet.  The references take y as the principal root of
y^2 and x from the start of the leg, so the legs must agree with them on
the sheet at every node and in value to rounding, not in bits.
"""

import numpy as np
import pytest
from numpy.polynomial import legendre as nleg

from secondkind import abel_map, compute_periods, curve_from_branch_points, periods
from secondkind.paths import (
    PATH_CLEARANCE,
    BranchLegPath,
    CutCrossings,
    SheetPath,
    adaptive_gl,
    route_end_y,
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
                cand = np.sqrt(complex(curve.y_squared(x_next)))
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
        root = np.sqrt(np.asarray(self.curve.y_squared(x), dtype=complex))
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


def _reference_along(curve, points, y0, rows_fn, tol):
    total, y = None, complex(y0)
    for z0, z1 in zip(points[:-1], points[1:]):
        if z0 == z1:
            continue
        sp = _ReferenceSheetPath(curve, z0, z1, y)
        leg = z1 - z0
        part = adaptive_gl(lambda t: np.asarray(rows_fn(*sp.xy_at(t))) * leg, 0.0, 1.0, tol)
        total = part if total is None else total + part
        y = sp.y_end
    return total, y


def _routes(curve, frm, to):
    return list(periods._candidate_routes(frm.x, to.x, curve.branch_points, PATH_CLEARANCE))


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
    new, ref = SheetPath(curve, z0, z1, y0), _ReferenceSheetPath(curve, z0, z1, y0)
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
        assert int(sp.cuts.crossed.sum()) == crossings
        assert _same_y(route_end_y(curve, (z0, z1), y0), sp.y_end)


def test_leg_crossing_five_cuts_at_different_points():
    curve = curve_from_branch_points(SKEW_POINTS)
    z0, z1 = -2.0 + 1.5j, -2.0 - 1.5j
    sp = _assert_leg_matches(curve, z0, z1, curve.lift(z0).y)
    assert int(sp.cuts.crossed.sum()) == 5
    # between consecutive crossings the parity alternates
    t_star = sorted((1.5 - e.imag) / 3.0 for e in SKEW_POINTS)
    mids = np.array([0.5 * (a + b) for a, b in zip(t_star[:-1], t_star[1:])])
    w = -2.0 + (1.5 - 3.0 * mids)[:, None] * 1j - np.asarray(SKEW_POINTS)
    parity = sp.cuts.product(w) / (2.0 * np.sqrt(w).prod(axis=-1))
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
        sp = SheetPath(curve, z0, z1, y0)
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
            assert _same_y(route_end_y(curve, pts, p.y), y_ref), (curve.branch_points, pts)


def test_abel_map_equals_the_every_route_pipeline(triples):
    std = curve_from_branch_points(STANDARD_POINTS)
    std_bundle = compute_periods(std)
    pairs = [(0.5 + 1.0j, 2.6 + 0.3j), (-1.5 + 0.5j, 1.5 - 0.5j), (0.3 - 0.2j, -2.4 + 0.1j)]
    cases = [(std, std_bundle, std.lift(a), std.lift(b, -1)) for a, b in pairs] + triples
    for curve, bundle, p, q in cases:
        got, want = abel_map(curve, bundle, p, q), _reference_abel_map(curve, bundle, p, q)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (curve.branch_points, p, q)


def test_abel_map_integrates_only_the_route_it_keeps(monkeypatch):
    curve = curve_from_branch_points(STANDARD_POINTS)
    bundle = compute_periods(curve)
    p, q = curve.lift(0.5 + 1.0j), curve.lift(2.6 + 0.3j)
    ends = [route_end_y(curve, pts, p.y) for pts in _routes(curve, p, q)]
    assert [abs(y - q.y) <= abs(y + q.y) for y in ends] == [False, False, True]
    calls = []
    along = periods.integrate_rows_along

    def counted(*args, **kwargs):
        calls.append(args[1])
        return along(*args, **kwargs)

    monkeypatch.setattr(periods, "integrate_rows_along", counted)
    abel_map(curve, bundle, p, q)
    assert calls == [_routes(curve, p, q)[2]]

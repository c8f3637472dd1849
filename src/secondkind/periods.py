"""Period matrices of hyperelliptic curves by self-certifying quadrature.

Homology construction: branch points are sorted canonically and joined by
consecutive segments; the loop around segment k (doubled segment integral)
is the k-th chain cycle.  The basis

    a_k = chain(2k-2),   b_k = chain(2k-1) + chain(2k+1) + ...

is symplectic whenever the chain orientations are coherent.  Orientations
are not assumed: all sign patterns, up to a global sign, are judged in one
array pass, and the first whose period matrices pass the Legendre relation,
tau symmetry, and Im tau > 0 is accepted.  Negating every chain negates all
four period blocks exactly and leaves every gate's bits unchanged, so chain
0 is kept at +1.  These certificates are exactly the properties every
downstream formula relies on, so a certified bundle is correct by
construction regardless of how the branch points sit in the plane.

Segment integrals remove the endpoint square-root singularities with the
substitution x = m + h cos(theta), under which

    integral of N(x)/y dx over the segment
        = -(i/2) * integral_0^pi N(x(theta)) / S(cos theta) dtheta,

where y = 2 i h sin(theta) S(cos theta) on a fixed smooth branch and S is
the product of the square roots of the remaining linear factors, each
continued along the segment by ``paths.CutCrossings.roots``.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .curves import (
    CurvePoint,
    HyperellipticCurve,
    branch_scale,
    canonical_branch_order,
    second_kind_numerators,
)
from .errors import HomologyConstructionFailure, PathThroughBranchPoint
from .paths import (
    CutCrossings,
    Route,
    adaptive_gl,
    add_legs,
    integrate_rows_along,
    integrate_rows_to_branch_point,
    leg_integrals,
    on_sheet,
    polyline_with_clearance,
    segment_distance,
)

#: Default quadrature tolerance.
DEFAULT_QUAD_TOL = 1e-12

_QUAD_TOL_RANGE = (1e-14, 1e-6)

#: Ceiling of the scaled Legendre and eta' gates.  A wrong chain orientation
#: moves the right-hand side of the relation by a multiple of pi/2, so the
#: gate must stay far below that whatever the period scale.
LEGENDRE_GATE_CAP = 1e-3


def _scaled_gate(base: float, magnitude):
    """The base gate grown with the magnitude of what it checks, capped, elementwise."""
    return np.minimum(base * np.maximum(1.0, magnitude), LEGENDRE_GATE_CAP)


@functools.cache
def _cycle_basis(g: int) -> np.ndarray:
    """Rows a_1..a_g, b_1..b_g of the basis over the 2g chains (module
    docstring), read-only."""
    basis = np.zeros((2 * g, 2 * g))
    for j in range(g):
        basis[j, 2 * j] = 1.0
        basis[g + j, 2 * j + 1 :: 2] = 1.0
    basis.flags.writeable = False
    return basis


@functools.cache
def _sign_patterns(g: int) -> tuple:
    """The chain sign patterns with chain 0 at +1, in ``itertools.product``
    order, as tuples and as one read-only float array, a row per pattern."""
    patterns = tuple((1, *signs) for signs in itertools.product((1, -1), repeat=2 * g - 1))
    array = np.array(patterns, dtype=float)
    array.flags.writeable = False
    return patterns, array


@functools.cache
def _halving(g: int) -> np.ndarray:
    """The column of g halves then g negated halves, read-only: it takes the
    rows (2 omega, -2 eta) of a cycle matrix to (omega, eta) exactly."""
    column = np.repeat([0.5, -0.5], g)[:, None]
    column.flags.writeable = False
    return column


@functools.cache
def _branch_codes(g: int) -> np.ndarray:
    """Row k, read-only: the code (a; b) of 2 A(oo -> e_k) mod 2, e_k the
    k-th canonical branch point, so that A(oo -> e_k) is (a + tau b) / 2
    modulo the lattice.  The last branch point has (1, ..., 1; 0) (Mumford,
    Tata Lectures on Theta II, ch. IIIa 5).  Chain k, the loop over (e_k,
    e_{k+1}), is twice the integral along it and row k of the inverse of
    ``_cycle_basis`` in (a; b), so 2 A(oo -> e_k) is 2 A(oo -> e_{k+1})
    plus that row modulo 2, whatever the chain's sign."""
    steps = np.rint(np.linalg.inv(_cycle_basis(g))).astype(int)
    # from the last point back: its code, then the rows of chains 2g - 1 .. 0
    codes = np.cumsum(np.vstack([np.repeat([1, 0], g), steps[::-1]]), axis=0)[::-1] % 2
    codes.flags.writeable = False
    return codes


@dataclass
class PeriodBundle:
    """Half period matrices and everything derived from them.

    omega, omega_prime, eta, eta_prime are the HALF matrices (the full
    period of a cycle is twice the entry).  ``inv_two_omega`` is
    (2 omega)^{-1}, computed once; ``winding`` gives its g columns, (U, V)
    for genus 2.  ``chain_signs`` are the certified orientations of the
    chains of the homology basis: chain k joins canonical branch points k
    and k+1, a_j is chain 2j and b_j is chains 2j+1, 2j+3, ... (module
    docstring).  ``tau_gate``, ``legendre_gate`` and ``eta_prime_gate`` are
    the thresholds the certification applied.
    """

    omega: np.ndarray
    omega_prime: np.ndarray
    eta: np.ndarray
    eta_prime: np.ndarray
    tau: np.ndarray
    kappa: np.ndarray
    inv_two_omega: np.ndarray
    legendre_defect: float
    legendre_gate: float
    eta_prime_gate: float
    tau_asymmetry: float
    tau_gate: float
    kappa_asymmetry: float
    im_tau_min_eig: float
    eta_prime_consistency: float
    chain_signs: tuple
    canonical_points: tuple
    quad_tol: float

    @property
    def genus(self) -> int:
        return self.omega.shape[0]

    @property
    def two_omega(self) -> np.ndarray:
        return 2.0 * self.omega

    @property
    def winding(self) -> tuple:
        return tuple(self.inv_two_omega.T)


@functools.cache
def _symplectic_j(g: int) -> tuple:
    """J = [[0, -I], [I, 0]] of size 2g and (i pi / 2) J, read-only."""
    jj = np.block(
        [[np.zeros((g, g)), -np.eye(g)], [np.eye(g), np.zeros((g, g))]]
    ).astype(complex)
    out = (jj, (0.5j * np.pi) * jj)
    for a in out:
        a.flags.writeable = False
    return out


def _block_legendre_defect(m):
    """Max-norm Legendre defect of each (2g, 2g) matrix [[omega, omega'],
    [eta, eta']] stacked on leading axes."""
    jj, half_pi_jj = _symplectic_j(m.shape[-1] // 2)
    return np.abs(m @ jj @ m.mT + half_pi_jj).reshape(*m.shape[:-2], -1).max(axis=-1)


def legendre_defect(bundle: PeriodBundle) -> float:
    """Max-norm deviation of the generalized Legendre relation."""
    return float(_block_legendre_defect(np.block(
        [[bundle.omega, bundle.omega_prime], [bundle.eta, bundle.eta_prime]])))


def _chain_integrand(points, segments, numerators_fn):
    """The integrand of the segments (e_a, e_b), (a, b) in ``segments``, at
    complex nodes theta + 1j k, k the index of the segment.

    The branch of y on each segment is the substitution branch of the module
    docstring; its global sign is calibrated downstream.  numerators_fn maps
    an x array to an array (rows, nodes).
    """
    m, h, c0 = [], [], []
    for a_idx, b_idx in segments:
        ea, eb = points[a_idx], points[b_idx]
        m.append(0.5 * (ea + eb))
        h.append(0.5 * (eb - ea))
        c0.append(m[-1] - np.array([e for k, e in enumerate(points) if k not in (a_idx, b_idx)]))
    m, h, c0 = np.array(m), np.array(h), np.array(c0)
    cuts = CutCrossings(c0 - h[:, None], 2.0 * h[:, None], c0 + h[:, None])

    def f(nodes):
        k = nodes.imag.astype(int)
        hu = h[k] * np.cos(nodes.real)
        # a running product of the columns: np.prod rounds differently
        s = functools.reduce(np.multiply, cuts.roots(c0[k] + hu[:, None], k).T)
        return np.asarray(numerators_fn(m[k] + hu)) * (-0.5j / s)

    return f


def chain_integrals(points, segments, numerators_fn, quad_tol: float) -> np.ndarray:
    """Integrals of numerators(x)/y dx over the open segments (e_a, e_b), one
    column per (a, b) in ``segments``, all in one quadrature walk."""
    n = len(segments)
    return adaptive_gl(_chain_integrand(points, segments, numerators_fn),
                       np.zeros(n), np.full(n, np.pi), quad_tol)


def _period_numerators(curve: HyperellipticCurve):
    """The numerators of the chain integrands at an x array, one row each:
    the first kind 1, ..., x^(g-1), then the second kind q_j(x) / 4 of
    ``curves.second_kind_numerators``.  The q_j are evaluated together by
    Horner's rule over their coefficients zero-padded to one length, with
    the bits of ``numpy.polynomial.polynomial.polyval`` on each: a padded
    leading zero gives (0 + 0 x) x, which is x * 0 bit for bit."""
    g = curve.genus
    qs = second_kind_numerators(curve)
    coeffs = np.zeros((len(qs[0]), g, 1), dtype=complex)
    for j, q in enumerate(qs):
        coeffs[: len(q), j, 0] = q
    coeffs = coeffs[::-1]

    def rows(x):
        out = np.empty((2 * g, len(x)), dtype=complex)
        out[0], out[1:g] = 1.0, x
        acc = coeffs[0] + x * 0
        for c in coeffs[1:]:
            acc *= x
            acc += c
        np.divide(acc, 4.0, out=out[g:])
        return out

    return rows


def compute_periods(curve: HyperellipticCurve, quad_tol: float = DEFAULT_QUAD_TOL) -> PeriodBundle:
    """Compute 2omega, 2omega', 2eta, 2eta', tau, kappa with certification.

    Raises HomologyConstructionFailure when no chain orientation passes the
    Legendre/symmetry/positivity gates (pathological configurations), with
    |det 2 omega| or the gates of the pattern closest to passing, and
    QuadratureNonConvergence when a segment integral cannot reach quad_tol.
    """
    if not (_QUAD_TOL_RANGE[0] <= quad_tol <= _QUAD_TOL_RANGE[1]):
        raise ValueError(f"quad_tol must lie in {_QUAD_TOL_RANGE}")
    g = curve.genus
    if g not in (1, 2):
        raise ValueError("periods implemented for genus 1 and 2 only")
    pts = canonical_branch_order(curve.branch_points)
    scale = branch_scale(pts)
    n_chains = 2 * g
    for k in range(n_chains):
        for j, e in enumerate(pts):
            if j in (k, k + 1):
                continue
            d = segment_distance(pts[k], pts[k + 1], e)
            if d < 1e-6 * scale:
                raise HomologyConstructionFailure(
                    f"branch point {j} sits on segment ({k}, {k + 1}) (distance {d:.2e})")
    rows = _period_numerators(curve)
    chains = 2.0 * chain_integrals(pts, [(k, k + 1) for k in range(n_chains)], rows, quad_tol)

    # the tau symmetry gate grows with max |tau|, the base Legendre gate with
    # the magnitudes it checks (``_scaled_gate``); the bundle records each gate
    sym_gate, leg_base = max(1e-10, 100.0 * quad_tol), max(1e-9, 1000.0 * quad_tol)

    # every sign pattern at once (``_sign_patterns``); columns a_1..a_g,
    # b_1..b_g and rows (2 omega, -2 eta) over them, one stack entry per pattern
    patterns, signs = _sign_patterns(g)
    cyc = (chains * signs[:, None, :]) @ _cycle_basis(g).T
    two_w, two_wp, two_e, two_ep = cyc[:, :g, :g], cyc[:, :g, g:], -cyc[:, g:, :g], -cyc[:, g:, g:]
    # a pattern only negates columns of 2 omega, which leaves |det| unchanged
    det = abs(np.linalg.det(two_w[0]))
    if det < 1e-12:
        raise HomologyConstructionFailure("no chain orientation produced a certified canonical "
                                          f"basis; |det 2 omega| = {det:.2e} against 1e-12")
    tau = np.linalg.solve(two_w, two_wp)
    n = len(patterns)
    tau_asym = np.abs(tau - tau.mT).reshape(n, -1).max(axis=1)
    tau_gate = sym_gate * np.maximum(1.0, np.abs(tau).reshape(n, -1).max(axis=1))
    tau_sym = 0.5 * (tau + tau.mT)
    eig_min = np.linalg.eigvalsh(tau_sym.imag)[:, 0]
    # halving cyc and negating its eta rows gives [[omega, omega'], [eta, eta']] exactly
    defect = _block_legendre_defect(cyc * _halving(g))
    # the relation is bilinear in (omega, omega') and (eta, eta'), so its
    # roundoff grows with the product of their magnitudes
    w_hat = 0.5 * np.abs(cyc[:, :g]).reshape(n, -1).max(axis=1)
    e_hat = 0.5 * np.abs(cyc[:, g:]).reshape(n, -1).max(axis=1)
    leg_gate = _scaled_gate(leg_base, w_hat * e_hat)
    passed = (tau_asym <= tau_gate) & (eig_min > 0.0) & (defect <= leg_gate)
    k = int(np.argmax(passed))
    if not passed[k]:
        k = int(np.argmin(defect / leg_gate))
        raise HomologyConstructionFailure(
            "no chain orientation produced a certified canonical basis; closest signs "
            f"{patterns[k]}: Legendre defect {defect[k]:.2e} against gate {leg_gate[k]:.2e}, tau "
            f"asymmetry {tau_asym[k]:.1e} against {tau_gate[k]:.2e}, min eig Im tau {eig_min[k]:.2g}")
    two_w, two_wp, two_e, two_ep = two_w[k], two_wp[k], two_e[k], two_ep[k]
    inv_two_w = np.linalg.inv(two_w)
    kappa_raw = (two_e / 2) @ inv_two_w
    kappa_asym = float(np.abs(kappa_raw - kappa_raw.T).max())
    kappa = 0.5 * (kappa_raw + kappa_raw.T)
    eta_p_pred = kappa @ two_wp - 1j * np.pi * inv_two_w.T
    eta_p_cons = float(np.abs(eta_p_pred - two_ep / 2).max())
    # the roundoff of the consistency grows with |eta'| as the
    # Legendre roundoff grows with the products of the periods
    eta_p_gate = float(_scaled_gate(leg_base, 0.5 * float(np.abs(two_ep).max())))
    return PeriodBundle(
        omega=two_w / 2,
        omega_prime=two_wp / 2,
        eta=two_e / 2,
        eta_prime=two_ep / 2,
        tau=tau_sym[k],
        kappa=kappa,
        inv_two_omega=inv_two_w,
        legendre_defect=float(defect[k]),
        legendre_gate=float(leg_gate[k]),
        eta_prime_gate=eta_p_gate,
        tau_asymmetry=float(tau_asym[k]),
        tau_gate=float(tau_gate[k]),
        kappa_asymmetry=kappa_asym,
        im_tau_min_eig=float(eig_min[k]),
        eta_prime_consistency=eta_p_cons,
        chain_signs=patterns[k],
        canonical_points=pts,
        quad_tol=quad_tol,
    )


def lattice_distance(v: np.ndarray, tau: np.ndarray) -> float:
    """Distance from v to the lattice Z^g + tau Z^g, in coefficient max-norm.

    Solves v = alpha + tau beta for real alpha, beta and measures how far
    (alpha, beta) is from the nearest integer pair.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    g = tau.shape[0]
    m = np.block([[np.eye(g), tau.real], [np.zeros((g, g)), tau.imag]])
    ab = np.linalg.solve(m, np.concatenate([v.real, v.imag]))
    return float(np.max(np.abs(ab - np.round(ab))))


def _u_rows(curve: HyperellipticCurve):
    g = curve.genus

    def rows(x, y):
        return np.array([x ** i / y for i in range(g)])

    return rows


#: The ``_AbelRoutes`` of every live curve ``abel_map`` has seen, by ``id``;
#: an entry is dropped when its curve is collected.
_ABEL_ROUTES: dict = {}


class _AbelRoutes:
    """What ``abel_map`` keeps of one curve for as long as the curve lives
    (``_abel_routes``): the branch spread d = max |e_i - e_j| of
    ``_y_squared_size``; the far point and the loop around every branch
    point of ``_candidate_routes``; and, per quadrature tolerance, the
    integrals along the loop's 8 legs at sign +1 with the parity p of the
    loop's cut crossings (``loop_legs``).  It holds numbers and arrays
    only, never the curve, which would then never be collected, nor a
    ``Route``."""

    def __init__(self, branch):
        self.spread = max(abs(a - b) for a in branch for b in branch)
        center = sum(branch) / len(branch)
        rad = 1.6 * max(abs(e - center) for e in branch) + 1.0
        self.far = center + rad * np.exp(1j * np.pi / 7)
        self.loop = tuple(
            center + rad * np.exp(1j * (np.pi / 7 + 2.0 * np.pi * k / 8.0)) for k in range(1, 8)
        ) + (self.far,)
        self._loop_legs = {}

    def loop_legs(self, curve: HyperellipticCurve, rows, tol: float) -> tuple:
        """(columns, p): the integrals of the u-basis ``rows`` along the legs
        of the loop from the far point round every branch point and back,
        one read-only column per leg, with y continued from the principal
        product 2 prod sqrt(far - e_k) (sign +1), and the parity p of the
        loop's cut crossings.  The loop is integrated once per tolerance."""
        legs = self._loop_legs.get(tol)
        if legs is None:
            y0 = 2.0 * np.sqrt(self.far - np.asarray(curve.branch_points, dtype=complex)).prod()
            route = Route(curve, (self.far,) + self.loop, y0)
            columns = leg_integrals(route, rows, tol)
            columns.flags.writeable = False
            legs = self._loop_legs[tol] = (columns, int(route.cuts.crossed.sum()) % 2)
        return legs


def _abel_routes(curve: HyperellipticCurve) -> _AbelRoutes:
    """The ``_AbelRoutes`` of this curve object, made on first use.  It is
    keyed by identity: a value-equal curve made elsewhere has its own."""
    routes = _ABEL_ROUTES.get(id(curve))
    if routes is None:
        routes = _ABEL_ROUTES[id(curve)] = _AbelRoutes(curve.branch_points)
        weakref.finalize(curve, _ABEL_ROUTES.pop, id(curve), None)
    return routes


def _y_squared_size(curve: HyperellipticCurve, x: complex, spread: float) -> float:
    """4 prod (|x - e_k| + d), d = max |e_i - e_j| the branch spread
    (``_AbelRoutes.spread``): the scale of y^2 = 4 prod (x - e_k) at x.
    Like y^2 it takes a factor |s|^(2g+1) when x and the branch points are
    scaled by s and none when they are translated, so a gate on y^2
    relative to it is invariant under both."""
    size = 4.0
    for ek in curve.branch_points:
        size *= abs(x - ek) + spread
    return size


def _branch_index(curve: HyperellipticCurve, p: CurvePoint, spread: float):
    """Refuse p unless y^2 matches P(x) to 1e-9 of the scale of y^2 at its x
    (``_y_squared_size``); then the index in ``curve.branch_points`` of the
    branch point p lies on, or None.  p lies on one when |y|^2 is at most
    1e-20 of that scale.  Both tests move with the branch points as y^2
    does under scaling and translation."""
    size = _y_squared_size(curve, p.x, spread)
    if abs(p.y ** 2 - curve.y_squared(p.x)) > 1e-9 * size:
        raise ValueError(f"point ({p.x:.6g}, {p.y:.6g}) is not on the curve")
    if abs(p.y) ** 2 > 1e-20 * size:
        return None
    return int(np.argmin([abs(p.x - e) for e in curve.branch_points]))


def abel_map(curve: HyperellipticCurve, bundle: PeriodBundle, frm: CurvePoint, to: CurvePoint):
    """(2 omega)^{-1} integral of the u-basis from ``frm`` to ``to``, at the
    bundle's quadrature tolerance.

    The path is the first of ``_candidate_routes`` along which y, continued
    analytically from ``frm``, ends on the sheet of ``to``; the choice needs
    no quadrature (``paths.Route.y_end``).  A direct route or a route via
    the far point is integrated alone, from the arrays its choice built.
    The loop route is the route via the far point with a loop spliced in
    there, so only the far route's legs are integrated, all in one
    integrand call, and the loop's legs come from the curve's
    ``_AbelRoutes``: they are integrated once per (curve, tolerance) and
    held while the curve lives (``_route_integral``).  Straight legs are
    integrated on pieces fixed by the branch points, one 32-node panel each
    (``paths.leg_integrals``), and refused by name where the pieces cannot
    reach the tolerance.
    An endpoint lying on a branch point (``_branch_index``) is integrated
    with the regularized s^2 substitution.
    """
    routes = _abel_routes(curve)
    frm_idx, to_idx = (_branch_index(curve, p, routes.spread) for p in (frm, to))
    rows = _u_rows(curve)
    if frm_idx is not None and to_idx is not None:
        raise PathThroughBranchPoint("both endpoints on branch points; split the path")
    if frm_idx is not None:
        # reverse the regularized direction: integral from e to x equals
        # minus the integral from x into e on the same sheet
        total = -_integral_into_branch(curve, to, frm_idx, rows, bundle.quad_tol)
    elif to_idx is not None:
        total = _integral_into_branch(curve, frm, to_idx, rows, bundle.quad_tol)
    else:
        total = _route_integral(curve, routes, frm, to, rows, bundle.quad_tol)
    return bundle.inv_two_omega @ total


def _route_integral(curve, routes: _AbelRoutes, frm: CurvePoint, to: CurvePoint, rows, tol):
    """Integral of the u-basis along the first of ``_candidate_routes`` that
    ends on the sheet of ``to``, with the bits of integrating all its legs
    in one ``paths.leg_integrals`` call.

    The loop route is head + loop + tail, the far route head + tail.  Its
    loop legs carry s times the loop's own signs, s the sign the far route
    brings into the far point, and its tail legs the far route's times
    (-1)^p; negating a column is exact and each column of a call has the
    bits of its leg integrated alone (its pieces and their sum depend on
    that leg only), so the far route's columns and the loop's, added in
    the route's leg order, are the sum of one call over the loop route.
    """
    for pts in itertools.islice(_candidate_routes(curve, frm.x, to.x), 2):
        route = Route(curve, pts, frm.y)
        if on_sheet(route.y_end, to.y):
            return integrate_rows_along(route, rows, tol)
    loop, p = routes.loop_legs(curve, rows, tol)
    # the loop route ends at the far route's y_end times (-1)^p, so past
    # this test p is odd and the tail legs are the far route's negated
    if not on_sheet(-route.y_end if p else route.y_end, to.y):
        raise PathThroughBranchPoint("endpoint sheet does not match continuation "
                                     "along any route")
    parts = leg_integrals(route, rows, tol)
    h = int(np.argmax(route.z == routes.far))  # the head's legs
    return add_legs(np.concatenate(
        (parts[:, :h], loop if route.sign[h] > 0 else -loop, -parts[:, h:]), axis=1))


def _candidate_routes(curve: HyperellipticCurve, z0: complex, z1: complex):
    """Routes from z0 to z1 in successively adjusted homotopy classes.

    First the direct polyline; then a route via a point far outside the
    branch points; then the same route with a loop inserted at the far
    point around ALL branch points.  The loop winds around an odd number of
    them (2g + 1), so its cut crossings have odd parity p and it is
    guaranteed to swap sheets relative to the second route, and it runs
    far from every obstacle.  The far point and the loop depend on the
    curve alone and are held with its ``_AbelRoutes``; ``abel_map``
    integrates the loop once per tolerance and splices it into the second
    route (``_route_integral``).
    """
    branch, routes = curve.branch_points, _abel_routes(curve)
    yield polyline_with_clearance(z0, z1, branch)
    head = polyline_with_clearance(z0, routes.far, branch)
    tail = polyline_with_clearance(routes.far, z1, branch)
    yield head + tail[1:]
    yield head + routes.loop + tail[1:]


def _integral_into_branch(curve, start: CurvePoint, e_index: int, rows, tol):
    """Integral of the u-basis from ``start`` into e: straight legs along
    ``polyline_with_clearance`` to its last waypoint, then the s^2 leg."""
    e = curve.branch_points[e_index]
    others = [p for k, p in enumerate(curve.branch_points) if k != e_index]
    route = Route(curve, polyline_with_clearance(start.x, e, others)[:-1], start.y)
    return (integrate_rows_along(route, rows, tol)
            + integrate_rows_to_branch_point(curve, e_index, route.z[-1], route.y_end, rows, tol))


def abel_from_infinity(curve: HyperellipticCurve, bundle: PeriodBundle, to: CurvePoint) -> np.ndarray:
    """(2 omega)^{-1} integral of u from infinity to ``to`` modulo the lattice,
    at the bundle's quadrature tolerance: h_k = (a + tau b) / 2, (a; b) the
    code of e_k (``_branch_codes``), e_k the branch point nearest ``to``, plus
    the s^2 leg ``abel_map``(e_k -> ``to``) unless ``to`` lies on e_k."""
    g, on = bundle.genus, _branch_index(curve, to, _abel_routes(curve).spread)
    k = int(np.argmin([abs(to.x - e) for e in curve.branch_points])) if on is None else on
    code = _branch_codes(g)[bundle.canonical_points.index(curve.branch_points[k])]
    half = 0.5 * (code[:g] + bundle.tau @ code[g:])
    if on is not None:
        return half
    rows, tol = _u_rows(curve), bundle.quad_tol
    return half - bundle.inv_two_omega @ _integral_into_branch(curve, to, k, rows, tol)


def a_cycle_integrals(bundle: PeriodBundle, numerators_fn) -> np.ndarray:
    """Loop integrals of numerators(x)/y dx over the cycles a_1 .. a_g, one
    column per cycle, all in one quadrature walk over the a-chains.

    Only the part of the integrand odd in y contributes to a loop integral
    (the even part cancels between the two sheets), and that part doubles,
    so the integral over a_j is 2 x (sign) x (segment integral) of chain
    2j - 2, at the bundle's quadrature tolerance.
    """
    g = bundle.genus
    signs = np.asarray(bundle.chain_signs[: 2 * g : 2], dtype=float)
    return 2.0 * signs * chain_integrals(
        bundle.canonical_points, [(2 * j, 2 * j + 1) for j in range(g)], numerators_fn,
        bundle.quad_tol)

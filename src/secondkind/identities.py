"""Theta-constant representations of kappa and related identities.

kappa = eta (2 omega)^{-1} is computed here through several independent
routes: even-characteristic Hessians (one per branch pair and their sum),
odd-characteristic third derivatives (one per admissible branch point and
their sum), and compared against the quadrature value from the period
bundle.  The module also evaluates Thomae-type derivative relations,
classical and higher Rosenhain formulas, genus-1 Weierstrass formulas,
Jacobi inversion values, and the two realizations of the symmetric
bi-differential.

Each family gathers its theta constants from the ThetaTable arrays at the
rows of the matching's code index (odd_codes, even_quads) and meets its
sides in one identity_entries call, which returns the family as one block
of columns (IdentityDefects).  The directional derivatives Theta_a,
Theta_ab, Theta_abc, contractions of plain z-derivatives of theta at z = 0
with the winding vectors (columns of (2 omega)^{-1}), are ThetaTable.directional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvePoint, HyperellipticCurve, branch_scale, kleinian_polar
from .errors import StencilDegenerate
from .correspondence import BRANCH_ROWS, ODD_PAIRS, ODD_REST, BranchMatching
from .paths import PATH_CLEARANCE
from .periods import PeriodBundle, a_cycle_integrals, abel_map
from .theta import ThetaTable, char, theta_jet

#: Below this magnitude on both sides a defect is reported absolutely.
ABSOLUTE_FLOOR = 1e-6

#: Default tolerance of the genus-2 theta-constant identities.
DEFAULT_IDENTITY_TOL = 1e-8

#: Built-in tolerance of the genus-1 Weierstrass and Thomae formulae.
GENUS1_IDENTITY_TOL = 1e-10

#: Built-in tolerance of the symmetry omega(q, r) = omega(r, q).
OMEGA_SYMMETRY_TOL = 1e-12

#: The 10 branch pairs {i, j} (0-based), the three branch points left by
#: each, and the pairs as 1-based label tuples.
_BRANCH_PAIRS, _BRANCH_REST = ODD_PAIRS[BRANCH_ROWS], ODD_REST[BRANCH_ROWS, :3]
_PAIR_LABELS = tuple((i + 1, j + 1) for i, j in _BRANCH_PAIRS.tolist())

#: jacobi_inversion_check's labels: pair by pair, and p22, p12, p11 and the
#: polar form of p11 within each pair.
_JACOBI_LABELS = [f"jacobi_{name}_{i}{j}" for i, j in _PAIR_LABELS
                  for name in ("p22", "p12", "p11", "p11_polar")]

#: rosenhain_defects' (15, 2) classical and higher entries that it keeps, and
#: their labels: row-major, so each pair's classical entry precedes its higher.
_ROSENHAIN_KEEP = np.stack([np.ones(15, bool), BRANCH_ROWS], axis=1)
_ROSENHAIN_LABELS = [f"rosenhain_{family}_{i + 1}{j + 1}" for i, j in ODD_PAIRS.tolist()
                     for family in ("classical", "higher")[: 1 + (j < 5)]]


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, bit for bit as Python's abs of a complex (np.abs is not)."""
    return np.hypot(z.real, z.imag)


def relative_defect(lhs, rhs) -> np.ndarray:
    """|lhs - rhs| relative to the larger side, elementwise; absolute where
    both sides are below ABSOLUTE_FLOOR."""
    lhs, rhs = np.asarray(lhs, dtype=complex), np.asarray(rhs, dtype=complex)
    big, d = np.maximum(_modulus(lhs), _modulus(rhs)), _modulus(lhs - rhs)
    small = big < ABSOLUTE_FLOOR
    return np.where(small, d, d / np.where(small, 1.0, big))


@dataclass(frozen=True)
class IdentityEntry:
    """One verified identity: two sides, their defect, optional sign choice."""

    label: str
    lhs: complex
    rhs: complex
    defect: float
    sign: int | None = None
    status: str = "pass"


@dataclass(frozen=True, eq=False)
class IdentityDefects:
    """An identity family as columns, one row per entry, addressable by label;
    sign is None for an unsigned family."""

    label: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    defect: np.ndarray
    sign: np.ndarray | None
    status: tuple

    @property
    def entries(self) -> tuple:
        """One IdentityEntry per row, in order."""
        signs = [None] * len(self.label) if self.sign is None else self.sign.tolist()
        return tuple(map(IdentityEntry, self.label, self.lhs.tolist(), self.rhs.tolist(),
                         self.defect.tolist(), signs, self.status))

    def __getitem__(self, label: str) -> IdentityEntry:
        return dict(zip(self.label, self.entries))[label]

    def labels(self):
        return self.label

    def max_defect(self) -> float:
        """Largest defect of the applicable entries; NaN if any of them is NaN."""
        d = self.defect[np.array(self.status) != "n/a"]
        return float(d.max()) if d.size else 0.0


@dataclass(frozen=True, eq=False)
class KappaReport:
    """kappa by every route, with max-norm deviations from the direct value;
    the matrices are read-only views into one stack (``kappa_report``)."""

    kappa_direct: np.ndarray
    kappa_by_even_pair: dict
    kappa_even_sum: np.ndarray
    kappa_by_odd: dict
    kappa_odd_sum: np.ndarray
    defect_table: dict


def identity_entries(labels, lhs, rhs, tol, signed=False, applicable=True) -> IdentityDefects:
    """The block of one entry per label from the arrays of both sides,
    compared by relative_defect.

    With signed, each entry is lhs = +/- rhs: it compares s lhs with rhs for
    the sign s in {1, -1} that fits better (1 on a tie) and records s.
    applicable holds a flag per entry (or one for all); an entry whose flag
    is false gets status n/a.
    """
    lhs, rhs = np.asarray(lhs, dtype=complex), np.asarray(rhs, dtype=complex)
    sign = None
    if signed:
        sign = np.where(_modulus(lhs - rhs) <= _modulus(-lhs - rhs), 1, -1)
        lhs = sign * lhs
    d = relative_defect(lhs, rhs)
    status = np.where(applicable, np.where(d < tol, "pass", "fail"), "n/a")
    return IdentityDefects(tuple(labels), lhs, rhs, d, sign, tuple(status.tolist()))


def _branch_pairs(bundle: PeriodBundle):
    """e_i, e_j and the symmetric function e_i e_j (k + m + n) + k m n of the
    10 branch pairs {i, j} of _BRANCH_PAIRS; k, m, n are the three remaining
    branch points."""
    e = np.asarray(bundle.canonical_points)
    (ei, ej), rest = e[_BRANCH_PAIRS.T], e[_BRANCH_REST]
    return ei, ej, ei * ej * rest.sum(axis=-1) + rest.prod(axis=-1)


def _odd_ratios(tt: ThetaTable, m: BranchMatching) -> np.ndarray:
    """Theta_abc / Theta_2 of delta_1 .. delta_5, shape (5, 2, 2, 2)."""
    dgrad, _, dthird = tt.directional
    return dthird[m.odd_codes[:5]] / dgrad[m.odd_codes[:5], 1, None, None, None]


def _odd_ratio_sums(r: np.ndarray):
    """(s112, s122, s222): the sums over the admissible odds of the ratios
    Theta_abc / Theta_2 of ``_odd_ratios``."""
    s = r.sum(axis=0)
    return s[0, 0, 1], s[0, 1, 1], s[1, 1, 1]


def _even_ratio_sum(tt: ThetaTable) -> np.ndarray:
    """The matrix of sums of Theta_ab / Theta over the even characteristics."""
    return (tt.directional[1][tt.even_codes] / tt.values[tt.even_codes, None, None]).sum(axis=0)


def _genus1_ratios(tt: ThetaTable) -> tuple:
    """theta_1'''/theta_1' and the sum of theta''/theta over the evens, genus 1."""
    odd, even = tt.odd_codes[0], tt.even_codes
    return (complex(tt.thirds[odd, 0, 0, 0]) / complex(tt.grads[odd, 0]),
            sum(h / v for h, v in zip(tt.hessians[even, 0, 0].tolist(), tt.values[even].tolist())))


def kappa_odd_sum_reduced(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                          m: BranchMatching) -> np.ndarray:
    """The lam4 = 0 display of the odd-sum formula, implemented verbatim.

    Only meaningful for curves with lam4 = 0; agreement with the odd-sum
    route of kappa_report to machine precision is a consistency check of
    the two displays.
    """
    lam2, lam3 = curve.lam_at(2), curve.lam_at(3)
    lead = np.array([[3 * lam2, lam3], [lam3, 0.0]]) / 40.0
    s112, s122, s222 = _odd_ratio_sums(_odd_ratios(tt, m))
    acc = np.array([[2.0 * s112, s122], [s122, (2.0 / 3.0) * s222]])
    return lead - acc / 20.0


#: Gate on each kappa route: the largest absolute entry of its difference
#: from the direct kappa (a ``kappa_report`` defect, or the expansion route's).
KAPPA_ROUTE_TOL = 1e-7

#: kappa_report's route names, in the order of its defect table.
_KAPPA_ROUTES = ([f"even_pair_{i}{j}" for i, j in _PAIR_LABELS] + ["even_sum"]
                 + [f"odd_{i}" for i in range(1, 6)] + ["odd_sum"])


def kappa_report(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                 m: BranchMatching) -> KappaReport:
    """kappa by every route and each route's deviation from the direct value.

    The routes fill one read-only (18, 2, 2) stack in place, and every
    matrix of the report is a view into it: the direct kappa; the even
    characteristic of each branch pair, from its plain z-Hessian conjugated
    by (2 omega)^{-1}, so independently of the directional table; the sum
    over the 10 evens; the admissible odd characteristic of each branch
    point; and the sum over those 5 odds.  The odd routes share one gather
    of the ratios Theta_abc / Theta_2.  The defects are the max-norm
    deviations from the direct kappa, in one reduction.
    """
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    out = np.empty((18, 2, 2), dtype=complex)
    out[0] = bundle.kappa
    pairs, even_sum, singles = out[1:11], out[11], out[12:17]

    ei, ej, sym11 = _branch_pairs(bundle)
    pairs[:, 0, 0], pairs[:, 1, 1] = sym11, ei + ej
    pairs[:, 0, 1] = pairs[:, 1, 0] = -ei * ej
    pairs *= -0.5
    codes = m.even_quads[BRANCH_ROWS, 3]
    w = bundle.inv_two_omega
    pairs -= 0.5 * (w.T @ (tt.hessians[codes] / tt.values[codes, None, None]) @ w)

    even_sum[...] = [[4 * lam2, lam3], [lam3, 4 * lam4]]
    even_sum /= 80.0
    even_sum -= _even_ratio_sum(tt) / 20.0

    ei = np.asarray(bundle.canonical_points)
    r = _odd_ratios(tt, m)
    r112, r122, r222 = r[:, 0, 0, 1], r[:, 0, 1, 1], r[:, 1, 1, 1]
    singles[:, 1, 1] = lam4 / 24.0 - ei / 6.0 - r222 / 6.0
    singles[:, 0, 1] = singles[:, 1, 0] = (
        -lam4 * ei / 24.0 - ei ** 2 / 3.0 - ei * r222 / 12.0 - r122 / 4.0)
    singles[:, 0, 0] = (
        -(lam3 / 8.0) * ei
        - (5.0 / 24.0) * lam4 * ei ** 2
        - (7.0 / 6.0) * ei ** 3
        - 0.5 * r112
        - 0.5 * ei * r122
        - (ei ** 2 / 6.0) * r222
    )

    s112, s122, s222 = _odd_ratio_sums(r)
    k22 = lam4 / 20.0 - s222 / 30.0
    k12 = lam3 / 40.0 - lam4 ** 2 / 800.0 - s122 / 20.0 + lam4 * s222 / 1200.0
    k11 = (
        (3.0 / 40.0) * lam2
        - lam4 * lam3 / 400.0
        + lam4 ** 3 / 8000.0
        - s112 / 10.0
        + lam4 * s122 / 200.0
        - lam4 ** 2 * s222 / 12000.0
    )
    out[17] = [[k11, k12], [k12, k22]]

    out.flags.writeable = False
    defects = np.abs(out[1:] - out[0]).reshape(17, 4).max(axis=1)
    return KappaReport(
        kappa_direct=out[0],
        kappa_by_even_pair=dict(zip(_PAIR_LABELS, out[1:11])),
        kappa_even_sum=out[11],
        kappa_by_odd=dict(zip(m.chars, out[12:17])),
        kappa_odd_sum=out[17],
        defect_table=dict(zip(_KAPPA_ROUTES, defects.tolist())),
    )


def _subleading_vanishes(lam: complex, points) -> bool:
    """Whether lam_2g (lam4 at genus 2, lam2 at genus 1) is zero at the branch scale."""
    return abs(lam) < 1e-10 * branch_scale(points)


def thomae_defects(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                   m: BranchMatching, tol: float = DEFAULT_IDENTITY_TOL) -> IdentityDefects:
    """Thomae-type relations between odd third and even second derivatives.

    The 222 relation holds for every curve; the 122 and 112 relations
    require lam4 = 0 and are reported n/a otherwise.
    """
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    lam4_zero = _subleading_vanishes(lam4, bundle.canonical_points)
    s112, s122, s222 = _odd_ratio_sums(_odd_ratios(tt, m))
    (e11, e12), (_, e22) = _even_ratio_sum(tt)
    return identity_entries(
        ("thomae_222", "thomae_122", "thomae_112"),
        [s222, 4.0 * s122 - 4.0 * e12, 4.0 * s112 - 2.0 * e11], [1.5 * e22, lam3, lam2],
        tol, applicable=[True, lam4_zero, lam4_zero])


def thomae_genus1_defect(tt: ThetaTable, tol: float = GENUS1_IDENTITY_TOL) -> IdentityDefects:
    """Genus-1 analog: theta1'''/theta1' equals the sum of theta_k''/theta_k,
    as the one-entry block thomae_genus1."""
    if tt.genus != 1:
        raise ValueError("genus-1 table required")
    ratio3, sum2 = _genus1_ratios(tt)
    return identity_entries(("thomae_genus1",), [ratio3], [sum2], tol)


def _rosenhain_sides(bundle: PeriodBundle, tt: ThetaTable, m: BranchMatching) -> tuple:
    """prod_4 Theta[eps] of each of the 15 pairs, det((2 omega)^{-1}), and
    Theta_2 and Theta_222 of delta_1 .. delta_5, gamma.

    The four even characteristics eps of the pair {i, j} are delta_i +
    delta_j + delta_k over the remaining k: its row of even_quads.
    """
    dgrad, _, dthird = tt.directional
    odd = m.odd_codes
    return (tt.values[m.even_quads].prod(axis=1), np.linalg.det(bundle.inv_two_omega),
            dgrad[odd, 1], dthird[odd, 1, 1, 1])


def rosenhain_defects(bundle: PeriodBundle, tt: ThetaTable, m: BranchMatching,
                      tol: float = DEFAULT_IDENTITY_TOL) -> IdentityDefects:
    """Classical formula for all 15 odd pairs, higher formula for the 10 admissible.

    For the pair {i, j} the four even characteristics are delta_i + delta_j
    + delta_k over the remaining k.  Each formula carries an undetermined
    overall sign; the minimizing sign is recorded in the entry.  The
    classical entry of each pair comes first, followed by its higher entry.

    The higher entries carry the constant pi^2 det((2 omega)^{-1}) of a
    pair of admissible characteristics, so they are emitted for i < j <= 5
    only; the five pairs {i, 6} involving gamma carry twice that constant
    and are checked by rosenhain_gamma_pairs.
    """
    prod, det_w, t2, t222 = _rosenhain_sides(bundle, tt, m)
    (gi, gj), (i, j) = tt.grads[m.odd_codes][ODD_PAIRS.T], ODD_PAIRS.T
    lhs = np.stack([np.pi ** 2 * prod, np.pi ** 2 * det_w * prod], axis=1)
    rhs = np.stack([gi[:, 0] * gj[:, 1] - gi[:, 1] * gj[:, 0],
                    t222[i] * t2[j] - t222[j] * t2[i]], axis=1)
    return identity_entries(_ROSENHAIN_LABELS, lhs[_ROSENHAIN_KEEP], rhs[_ROSENHAIN_KEEP],
                            tol, signed=True)


def rosenhain_gamma_pairs(bundle: PeriodBundle, tt: ThetaTable, m: BranchMatching,
                          tol: float = DEFAULT_IDENTITY_TOL) -> IdentityDefects:
    """Higher derivative formula for the five pairs involving gamma.

    The third-derivative formula with constant pi^2 det((2 omega)^{-1})
    holds when both characteristics are admissible; when one of them is
    gamma the constant is exactly twice that:

        Theta_222[gamma] Theta_2[delta_i]
            = -/+ 2 pi^2 det((2 omega)^{-1}) prod_4 Theta[eps].

    The factor 2 is forced by Riemann's vanishing theorem.  With
    u_1 = int dx/y and u_2 = int x dx/y, theta[gamma] vanishes identically
    on v(P) = (2 omega)^{-1} int_inf^P for P near infinity.  In the local
    parameter x = xi^{-2} the curve y^2 = 4 x^5 + ... gives
    u_1 = -xi^3/3 + O(xi^5) and u_2 = -xi + O(xi^3); theta[gamma] is odd,
    so its even-order derivatives vanish at 0 and the orders xi and xi^3 give

        Theta_2[gamma] = 0,    Theta_222[gamma] = -2 Theta_1[gamma].

    Hence Theta_222[delta_i] Theta_2[gamma] - Theta_222[gamma] Theta_2[delta_i]
    = 2 Theta_1[gamma] Theta_2[delta_i], which is -2 times the u-gradient
    determinant Theta_1[delta_i] Theta_2[gamma] - Theta_2[delta_i]
    Theta_1[gamma].  That determinant is det((2 omega)^{-1}) times the
    z-gradient determinant of the classical formula, which equals
    +/- pi^2 prod_4 Theta[eps].  The sigma expansion sigma(u) = u_1 - u_2^3/3
    + ... of Buchstaber, Enolski and Leykin, "Kleinian functions,
    hyperelliptic Jacobians and applications" (1997), encodes the same
    relation.
    """
    prod, det_w, t2, t222 = _rosenhain_sides(bundle, tt, m)
    return identity_entries([f"rosenhain_gamma_{i}6" for i in range(1, 6)],
                            2.0 * np.pi ** 2 * det_w * prod[~BRANCH_ROWS],
                            t222[5] * t2[:5], tol, signed=True)


def weierstrass_eta(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                    tol: float = GENUS1_IDENTITY_TOL) -> IdentityDefects:
    """Genus-1 formulas for eta via theta constants.

    The kappa formula holds for every lam2; the two plain eta forms require
    lam2 = 0 and are n/a otherwise.
    """
    if curve.genus != 1:
        raise ValueError("genus-1 curve required")
    lam2 = curve.lam_at(2)
    lam2_zero = _subleading_vanishes(lam2, curve.branch_points)
    w = bundle.omega[0, 0]
    eta = bundle.eta[0, 0]
    ratio3, sum2 = _genus1_ratios(tt)
    return identity_entries(
        ("weierstrass_kappa", "weierstrass_eta_sum", "weierstrass_eta_third"),
        [eta / (2.0 * w), eta, eta],
        [lam2 / 24.0 - ratio3 / (24.0 * w ** 2), -sum2 / (12.0 * w), -ratio3 / (12.0 * w)],
        tol, applicable=[True, lam2_zero, lam2_zero])


def jacobi_inversion_check(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                           m: BranchMatching, tol: float = DEFAULT_IDENTITY_TOL) -> IdentityDefects:
    """Kleinian p-function values at the divisors of the 10 branch pairs {i, j}.

    p_ab = -2 kappa_ab - Theta_ab[eps]/Theta[eps], where eps = delta_i +
    delta_j + gamma is the last column of the pair's row of even_quads; p22,
    p12 and p11 are compared against e_i + e_j, -e_i e_j and the symmetric
    function of _branch_pairs, and p11 also against the two-point polar
    F(e_i, e_j) / (4 (e_i - e_j)^2).  Four entries per pair, pair by pair.
    """
    codes = m.even_quads[BRANCH_ROWS, 3]
    ei, ej, sym11 = _branch_pairs(bundle)
    p = -2.0 * bundle.kappa - tt.directional[1][codes] / tt.values[codes, None, None]
    polar11 = kleinian_polar(curve, ei, ej) / (4.0 * (ei - ej) ** 2)
    lhs = np.stack([p[:, 1, 1], p[:, 0, 1], p[:, 0, 0], p[:, 0, 0]], axis=1)
    rhs = np.stack([ei + ej, -ei * ej, sym11, polar11], axis=1)
    return identity_entries(_JACOBI_LABELS, lhs.ravel(), rhs.ravel(), tol)


def _polar_part(curve: HyperellipticCurve, kappa: np.ndarray, x: np.ndarray, z: complex):
    """F(x, z) / (4 (x - z)^2) + 2 (1, x)^T kappa (1, z) at each x of an array:
    y(x) y(z) times the bi-differential, less 1/(2 (x - z)^2) of it.

    Over y(x) y(z) it is the part of the bi-differential odd in y(x), the
    only part that an a-cycle integral keeps.
    """
    g = curve.genus
    kz = kappa @ np.array([z ** t for t in range(g)])
    xs = np.vstack([x ** t for t in range(g)])
    return kleinian_polar(curve, x, z) / (4.0 * (x - z) ** 2) + 2.0 * np.einsum("i,in->n", kz, xs)


def omega_algebraic(curve: HyperellipticCurve, bundle: PeriodBundle,
                    q: CurvePoint, r: CurvePoint) -> complex:
    """Coefficient of the symmetric bi-differential against dx dz:
    _polar_part / (y_q y_r) + 1/(2 (x_q - x_r)^2)."""
    polar = complex(_polar_part(curve, bundle.kappa, np.array([q.x]), r.x)[0])
    return polar / (q.y * r.y) + 1.0 / (2.0 * (q.x - r.x) ** 2)


def omega_consistency(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                      q: CurvePoint, r: CurvePoint, a_vec: np.ndarray) -> float:
    """Relative defect between the two realizations of the bi-differential.

    The theta side is the mixed x_q, x_r derivative of ln theta(z), taken
    exactly from one theta jet:

        -v(q)^T [H/theta - g g^T/theta^2](z) v(r),    z = a_vec + A(r -> q),

    with v(p) = (2 omega)^{-1} (1, x)^T / y the derivative of the Abel map
    and g, H the termwise gradient and Hessian of theta[0] at z.  a_vec must
    be a non-singular point of the theta divisor (an odd half-period).  v
    divides by y and omega_algebraic by (x_q - x_r)^2, so both points keep
    PATH_CLEARANCE from the branch points and from each other.
    """
    for p in (q, r):
        if min(abs(p.x - e) for e in curve.branch_points) < PATH_CLEARANCE:
            raise StencilDegenerate(f"point x = {p.x:.6g} too close to a branch point")
    if abs(q.x - r.x) < PATH_CLEARANCE:
        raise StencilDegenerate("the two points are too close to each other")
    g = tt.genus
    z = a_vec + abel_map(curve, bundle, r, q)
    value, grad, hess, _ = theta_jet(z, tt.tau, char((0,) * g, (0,) * g), tol=tt.tol)
    vq, vr = (bundle.inv_two_omega @ np.array([p.x ** t for t in range(g)]) / p.y for p in (q, r))
    mixed = -vq @ (hess / value - np.outer(grad, grad) / value ** 2) @ vr
    return float(relative_defect(omega_algebraic(curve, bundle, q, r), mixed))


def omega_a_period(curve: HyperellipticCurve, bundle: PeriodBundle, r: CurvePoint) -> np.ndarray:
    """Integrals of the bi-differential at r over the cycles a_1 .. a_g, all
    in one quadrature walk.

    The part of the integrand even in y cancels between the sheets; the odd
    part, _polar_part / (y y_r), is integrated by the regular segment
    quadrature.  Each entry must vanish for a normalized bi-differential.
    """
    return a_cycle_integrals(
        bundle, lambda x: (_polar_part(curve, bundle.kappa, x, r.x) / r.y)[None, :])[0]

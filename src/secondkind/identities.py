"""Theta-constant representations of kappa and related identities.

kappa = eta (2 omega)^{-1} is computed here through several independent
routes: even-characteristic Hessians (one per branch pair and their sum),
odd-characteristic third derivatives (one per admissible branch point and
their sum), and compared against the quadrature value from the period
bundle.  The module also evaluates Thomae-type derivative relations,
classical and higher Rosenhain formulas, genus-1 Weierstrass formulas,
Jacobi inversion values, and the two realizations of the symmetric
bi-differential.

Directional derivatives Theta_a, Theta_ab, Theta_abc are contractions of
plain z-derivatives of theta at z = 0 with the winding vectors (columns of
(2 omega)^{-1}); they live in the ThetaTable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvePoint, HyperellipticCurve, branch_scale, kleinian_polar
from .errors import StencilDegenerate
from .correspondence import BranchMatching, even_char_for_pair
from .paths import PATH_CLEARANCE
from .periods import PeriodBundle, a_cycle_integral, abel_map
from .theta import ThetaTable, char, char_add, theta_jet

#: Below this magnitude on both sides a defect is reported absolutely.
ABSOLUTE_FLOOR = 1e-6

#: Default tolerance of the genus-2 theta-constant identities.
DEFAULT_IDENTITY_TOL = 1e-8

#: Built-in tolerance of the genus-1 Weierstrass and Thomae formulae.
GENUS1_IDENTITY_TOL = 1e-10

#: Built-in tolerance of the symmetry omega(q, r) = omega(r, q).
OMEGA_SYMMETRY_TOL = 1e-12


def relative_defect(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| relative to the larger side; absolute when both tiny."""
    big = max(abs(lhs), abs(rhs))
    d = abs(lhs - rhs)
    return d if big < ABSOLUTE_FLOOR else d / big


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
    """Ordered collection of identity entries, addressable by label."""

    entries: tuple

    def __getitem__(self, label: str) -> IdentityEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def labels(self):
        return tuple(e.label for e in self.entries)

    def max_defect(self) -> float:
        vals = [e.defect for e in self.entries if e.status != "n/a"]
        return max(vals) if vals else 0.0


@dataclass(frozen=True, eq=False)
class KappaReport:
    """kappa by every route, with max-norm deviations from the direct value."""

    kappa_direct: np.ndarray
    kappa_by_even_pair: dict
    kappa_even_sum: np.ndarray
    kappa_by_odd: dict
    kappa_odd_sum: np.ndarray
    defect_table: dict


def identity_entry(label, lhs, rhs, tol, sign=None, applicable=True) -> IdentityEntry:
    """Entry comparing two sides by relative_defect; status n/a when not applicable."""
    lhs, rhs = complex(lhs), complex(rhs)
    d = relative_defect(lhs, rhs)
    if not applicable:
        status = "n/a"
    else:
        status = "pass" if d < tol else "fail"
    return IdentityEntry(label, lhs, rhs, d, sign, status)


def _signed_entry(label, lhs, rhs, tol) -> IdentityEntry:
    """Entry for lhs = +/- rhs, with the sign that fits better recorded."""
    sign = 1 if abs(lhs - rhs) <= abs(-lhs - rhs) else -1
    return identity_entry(label, sign * lhs, rhs, tol, sign=sign)


def _branch_pair(bundle: PeriodBundle, i: int, j: int):
    """e_i, e_j and the symmetric function e_i e_j (k + m + n) + k m n of the pair.

    k, m, n are the three remaining branch points.
    """
    e = bundle.canonical_points
    ei, ej = e[i - 1], e[j - 1]
    k, mm, n = (e[t - 1] for t in range(1, 6) if t not in (i, j))
    return ei, ej, ei * ej * (k + mm + n) + k * mm * n


def _odd_ratio_sums(tt: ThetaTable, m: BranchMatching):
    """(s112, s122, s222): sums of Theta_abc / Theta_2 over the admissible odds."""
    dgrad, _, dthird = tt.directional
    codes = [ch.code for ch in m.chars]
    s = (dthird[codes] / dgrad[codes, 1, None, None, None]).sum(axis=0)
    return s[0, 0, 1], s[0, 1, 1], s[1, 1, 1]


def _even_ratio_sum(tt: ThetaTable) -> np.ndarray:
    """The matrix of sums of Theta_ab / Theta over the even characteristics."""
    codes = [ch.code for ch in tt.even]
    return (tt.directional[1][codes] / tt.values[codes, None, None]).sum(axis=0)


def _genus1_ratios(tt: ThetaTable) -> tuple:
    """theta_1'''/theta_1' and the sum of theta''/theta over the evens, genus 1."""
    odd = tt.odd[0]
    return (tt.d(odd, 0, 0, 0) / tt.d(odd, 0),
            sum(tt.d(eps, 0, 0) / tt.value(eps) for eps in tt.even))


def kappa_even_pair(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                    m: BranchMatching, i: int, j: int) -> np.ndarray:
    """kappa from the even characteristic of the branch pair {i, j}.

    Uses the plain z-Hessian of theta conjugated by (2 omega)^{-1}, so the
    route is independent of the directional table.
    """
    ei, ej, sym11 = _branch_pair(bundle, i, j)
    sym = np.array([[sym11, -ei * ej], [-ei * ej, ei + ej]])
    eps = even_char_for_pair(m, i, j)
    ent = tt.entry(eps)
    hess = ent.hess / ent.value
    w = bundle.inv_two_omega
    return -0.5 * sym - 0.5 * (w.T @ hess @ w)


def kappa_even_sum(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable) -> np.ndarray:
    """kappa from the sum over all 10 even characteristics."""
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    lead = np.array([[4 * lam2, lam3], [lam3, 4 * lam4]]) / 80.0
    return lead - _even_ratio_sum(tt) / 20.0


def kappa_odd_single(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                     m: BranchMatching, i: int) -> np.ndarray:
    """kappa from the admissible odd characteristic of branch label i in 1..5."""
    ch, ei = m.delta(i), bundle.canonical_points[i - 1]
    lam3, lam4 = curve.lam_at(3), curve.lam_at(4)
    t2 = tt.D(ch, "2")
    r222 = tt.D(ch, "222") / t2
    r122 = tt.D(ch, "122") / t2
    r112 = tt.D(ch, "112") / t2
    k22 = lam4 / 24.0 - ei / 6.0 - r222 / 6.0
    k12 = -lam4 * ei / 24.0 - ei ** 2 / 3.0 - ei * r222 / 12.0 - r122 / 4.0
    k11 = (
        -(lam3 / 8.0) * ei
        - (5.0 / 24.0) * lam4 * ei ** 2
        - (7.0 / 6.0) * ei ** 3
        - 0.5 * r112
        - 0.5 * ei * r122
        - (ei ** 2 / 6.0) * r222
    )
    return np.array([[k11, k12], [k12, k22]])


def kappa_odd_sum(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                  m: BranchMatching) -> np.ndarray:
    """kappa from sums of third-derivative ratios over the 5 admissible odds."""
    lam2, lam3, lam4 = (curve.lam_at(k) for k in (2, 3, 4))
    s112, s122, s222 = _odd_ratio_sums(tt, m)
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
    return np.array([[k11, k12], [k12, k22]])


def kappa_odd_sum_reduced(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                          m: BranchMatching) -> np.ndarray:
    """The lam4 = 0 display of the odd-sum formula, implemented verbatim.

    Only meaningful for curves with lam4 = 0; agreement with kappa_odd_sum
    to machine precision is a consistency check of the two displays.
    """
    lam2, lam3 = curve.lam_at(2), curve.lam_at(3)
    lead = np.array([[3 * lam2, lam3], [lam3, 0.0]]) / 40.0
    s112, s122, s222 = _odd_ratio_sums(tt, m)
    acc = np.array([[2.0 * s112, s122], [s122, (2.0 / 3.0) * s222]])
    return lead - acc / 20.0


#: Gate on each kappa route: the largest absolute entry of its difference
#: from the direct kappa (a ``kappa_report`` defect, or the expansion route's).
KAPPA_ROUTE_TOL = 1e-7


def kappa_report(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                 m: BranchMatching) -> KappaReport:
    """Assemble every kappa route and its deviation from the direct value."""
    direct = bundle.kappa
    by_pair = {}
    defects = {}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            kp = kappa_even_pair(curve, bundle, tt, m, i, j)
            by_pair[(i, j)] = kp
            defects[f"even_pair_{i}{j}"] = float(np.max(np.abs(kp - direct)))
    ks = kappa_even_sum(curve, bundle, tt)
    defects["even_sum"] = float(np.max(np.abs(ks - direct)))
    by_odd = {}
    for i in range(1, 6):
        ko = kappa_odd_single(curve, bundle, tt, m, i)
        by_odd[m.delta(i)] = ko
        defects[f"odd_{i}"] = float(np.max(np.abs(ko - direct)))
    kos = kappa_odd_sum(curve, bundle, tt, m)
    defects["odd_sum"] = float(np.max(np.abs(kos - direct)))
    mats = np.array([direct, ks, kos, *by_pair.values(), *by_odd.values()])
    big = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    asym = np.abs(mats - mats.transpose(0, 2, 1)).max(axis=(1, 2))
    assert np.all(asym < 1e-9 * big), "kappa must be symmetric"
    return KappaReport(
        kappa_direct=direct,
        kappa_by_even_pair=by_pair,
        kappa_even_sum=ks,
        kappa_by_odd=by_odd,
        kappa_odd_sum=kos,
        defect_table=defects,
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
    s112, s122, s222 = _odd_ratio_sums(tt, m)
    (e11, e12), (_, e22) = _even_ratio_sum(tt)
    entries = (
        identity_entry("thomae_222", s222, 1.5 * e22, tol),
        identity_entry("thomae_122", 4.0 * s122 - 4.0 * e12, lam3, tol, applicable=lam4_zero),
        identity_entry("thomae_112", 4.0 * s112 - 2.0 * e11, lam2, tol, applicable=lam4_zero),
    )
    return IdentityDefects(entries)


def thomae_genus1_defect(tt: ThetaTable, tol: float = GENUS1_IDENTITY_TOL) -> IdentityEntry:
    """Genus-1 analog: theta1'''/theta1' equals the sum of theta_k''/theta_k."""
    if tt.genus != 1:
        raise ValueError("genus-1 table required")
    return identity_entry("thomae_genus1", *_genus1_ratios(tt), tol)


def _odd_labels(m: BranchMatching):
    # label 6 is the Riemann-constant characteristic
    return {**{i: m.chars[i - 1] for i in range(1, 6)}, 6: m.gamma}


def _even_product(tt: ThetaTable, labels: dict, i: int, j: int) -> complex:
    """prod Theta[delta_i + delta_j + delta_k] over the four k not in {i, j},
    the even theta constants of the Rosenhain formulas for the pair {i, j}."""
    evens = [char_add(labels[i], char_add(labels[j], labels[k]))
             for k in range(1, 7) if k not in (i, j)]
    assert len(set(evens)) == 4 and all(eps.parity == 0 for eps in evens)
    prod = 1.0 + 0.0j
    for eps in evens:
        prod *= tt.value(eps)
    return prod


def rosenhain_defects(bundle: PeriodBundle, tt: ThetaTable, m: BranchMatching,
                      tol: float = DEFAULT_IDENTITY_TOL) -> IdentityDefects:
    """Classical formula for all 15 odd pairs, higher formula for the 10 admissible.

    For the pair {i, j} the four even characteristics are delta_i + delta_j
    + delta_k over the remaining k.  Each formula carries an undetermined
    overall sign; the minimizing sign is recorded in the entry.

    The higher entries carry the constant pi^2 det((2 omega)^{-1}) of a
    pair of admissible characteristics, so they are emitted for i < j <= 5
    only; the five pairs {i, 6} involving gamma carry twice that constant
    and are checked by rosenhain_gamma_pairs.
    """
    labels = _odd_labels(m)
    det_w = np.linalg.det(bundle.inv_two_omega)
    entries = []
    for i in range(1, 7):
        for j in range(i + 1, 7):
            di, dj = labels[i], labels[j]
            prod = _even_product(tt, labels, i, j)
            entries.append(_signed_entry(
                f"rosenhain_classical_{i}{j}", np.pi ** 2 * prod,
                tt.d(di, 0) * tt.d(dj, 1) - tt.d(di, 1) * tt.d(dj, 0), tol))
            if j == 6:
                continue
            entries.append(_signed_entry(
                f"rosenhain_higher_{i}{j}", np.pi ** 2 * det_w * prod,
                tt.D(di, "222") * tt.D(dj, "2") - tt.D(dj, "222") * tt.D(di, "2"), tol))
    return IdentityDefects(tuple(entries))


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
    labels = _odd_labels(m)
    det_w = np.linalg.det(bundle.inv_two_omega)
    entries = []
    for i in range(1, 6):
        di = labels[i]
        prod = _even_product(tt, labels, i, 6)
        entries.append(_signed_entry(f"rosenhain_gamma_{i}6", 2.0 * np.pi ** 2 * det_w * prod,
                                     tt.D(m.gamma, "222") * tt.D(di, "2"), tol))
    return IdentityDefects(tuple(entries))


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
    entries = (
        identity_entry("weierstrass_kappa", eta / (2.0 * w), lam2 / 24.0 - ratio3 / (24.0 * w ** 2), tol),
        identity_entry("weierstrass_eta_sum", eta, -sum2 / (12.0 * w), tol, applicable=lam2_zero),
        identity_entry("weierstrass_eta_third", eta, -ratio3 / (12.0 * w), tol, applicable=lam2_zero),
    )
    return IdentityDefects(entries)


def jacobi_inversion_check(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                           m: BranchMatching, i: int, j: int,
                           tol: float = DEFAULT_IDENTITY_TOL) -> IdentityDefects:
    """Kleinian p-function values at the divisor of the branch pair {i, j}.

    p_ab = -2 kappa_ab - Theta_ab[eps_ij]/Theta[eps_ij]; compared against
    the symmetric functions of e_i, e_j and against the two-point polar.
    """
    ei, ej, sym11 = _branch_pair(bundle, i, j)
    eps = even_char_for_pair(m, i, j)
    th = tt.value(eps)
    kap = bundle.kappa
    p22 = -2.0 * kap[1, 1] - tt.D(eps, "22") / th
    p12 = -2.0 * kap[0, 1] - tt.D(eps, "12") / th
    p11 = -2.0 * kap[0, 0] - tt.D(eps, "11") / th
    polar11 = kleinian_polar(curve, ei, ej) / (4.0 * (ei - ej) ** 2)
    entries = (
        identity_entry(f"jacobi_p22_{i}{j}", p22, ei + ej, tol),
        identity_entry(f"jacobi_p12_{i}{j}", p12, -ei * ej, tol),
        identity_entry(f"jacobi_p11_{i}{j}", p11, sym11, tol),
        identity_entry(f"jacobi_p11_polar_{i}{j}", p11, polar11, tol),
    )
    return IdentityDefects(entries)


def omega_algebraic(curve: HyperellipticCurve, bundle: PeriodBundle,
                    q: CurvePoint, r: CurvePoint) -> complex:
    """Coefficient of the symmetric bi-differential against dx dz."""
    g = curve.genus
    xs = np.array([q.x ** t for t in range(g)])
    zs = np.array([r.x ** t for t in range(g)])
    f = kleinian_polar(curve, q.x, r.x)
    core = (2.0 * q.y * r.y + f) / (4.0 * (q.x - r.x) ** 2)
    return (core + 2.0 * xs @ bundle.kappa @ zs) / (q.y * r.y)


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
    return relative_defect(omega_algebraic(curve, bundle, q, r), mixed)


def omega_a_period(curve: HyperellipticCurve, bundle: PeriodBundle, j: int,
                   r: CurvePoint) -> complex:
    """Integral of the bi-differential over the a_j cycle (j 1-based).

    The part of the integrand even in y cancels between the sheets; the odd
    part is integrated by the regular segment quadrature.  The result must
    vanish for a normalized bi-differential.
    """
    g = curve.genus
    if not 1 <= j <= g:
        raise ValueError("cycle label must be in 1..genus")
    kap = bundle.kappa
    zs = np.array([r.x ** t for t in range(g)])
    kz = kap @ zs

    def rows(x):
        f = kleinian_polar(curve, x, r.x)
        xs = np.vstack([x ** t for t in range(g)])
        val = (f / (4.0 * (x - r.x) ** 2) + 2.0 * np.einsum("i,in->n", kz, xs)) / r.y
        return val[None, :]

    return complex(a_cycle_integral(curve, bundle, j - 1, rows)[0])

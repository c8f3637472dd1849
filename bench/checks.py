"""Correctness checks made apart from the program.

Every check recomputes a property the method must have, or an independent
reference, from the numbers the program returned.  None of them compares
against a stored copy of earlier output, and none calls the program: they
use numpy, scipy.integrate and mpmath only.  Each returns a list of
problem strings, empty when the output is correct.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

#: Legendre, tau and kappa recomputation, relative to the matrices' scale.
PERIOD_TOL = 1e-9
#: -Theta_1/Theta_2 against the branch points, relative to max(1, |e|).
BRANCH_TOL = 1e-7
#: Gamma: |Theta_2| below this share of the largest odd |Theta_2|.
GAMMA_SHARE = 1e-6
#: Kappa routes against the recomputed direct kappa, relative.
KAPPA_TOL = 1e-7
#: Affine covariance of tau and 2 omega, relative.
AFFINE_TOL = 1e-10
#: a-periods of real curves against scipy quad, relative.
QUAD_TOL = 1e-9
#: Klein j against the Weierstrass invariants, relative.
KLEINJ_TOL = 1e-8
#: Theta constants against the brute-force sum, relative to max(1, |entry|).
THETA_TOL = 1e-10
#: Abel loop distance from the period lattice, in lattice coordinates.
LATTICE_TOL = 1e-10


def _scale(*arrays) -> float:
    return max(1.0, *(float(np.max(np.abs(a))) for a in arrays))


# ------------------------------------------------------------------ periods

def check_periods(omega, omega_p, eta, eta_p, tau, kappa) -> list:
    """Legendre relation, tau and kappa, recomputed from the half periods."""
    omega, omega_p, eta, eta_p, tau, kappa = (
        np.atleast_2d(np.asarray(a, dtype=complex))
        for a in (omega, omega_p, eta, eta_p, tau, kappa)
    )
    g = omega.shape[0]
    out = []
    m = np.block([[omega, omega_p], [eta, eta_p]])
    zero, one = np.zeros((g, g)), np.eye(g)
    j = np.block([[zero, -one], [one, zero]])
    legendre = float(np.max(np.abs(m @ j @ m.T + 0.5j * np.pi * j)))
    if legendre > PERIOD_TOL * _scale(m) ** 2:
        out.append(f"Legendre relation defect {legendre:.3e}")
    tau_re = np.linalg.solve(omega, omega_p)
    if float(np.max(np.abs(tau_re - tau_re.T))) > PERIOD_TOL * _scale(tau_re):
        out.append("recomputed tau is not symmetric")
    if float(np.max(np.abs(tau_re - tau))) > PERIOD_TOL * _scale(tau):
        out.append("returned tau differs from (2 omega)^-1 (2 omega')")
    if float(np.linalg.eigvalsh(0.5 * (tau.imag + tau.imag.T))[0]) <= 0.0:
        out.append("Im tau is not positive definite")
    kap = direct_kappa(omega, eta)
    if float(np.max(np.abs(kap - kappa))) > PERIOD_TOL * _scale(kap):
        out.append("returned kappa differs from eta (2 omega)^-1")
    return out


def direct_kappa(omega, eta) -> np.ndarray:
    """eta (2 omega)^-1, symmetrized."""
    omega = np.atleast_2d(np.asarray(omega, dtype=complex))
    eta = np.atleast_2d(np.asarray(eta, dtype=complex))
    k = eta @ np.linalg.inv(2.0 * omega)
    return 0.5 * (k + k.T)


def check_kappa_routes(kap, routes: dict) -> list:
    """Every kappa route against the reference ``kap``, relative to its scale."""
    kap = np.asarray(kap, dtype=complex)
    tol = KAPPA_TOL * _scale(kap)
    out = []
    for name, mat in routes.items():
        d = float(np.max(np.abs(np.asarray(mat, dtype=complex) - kap)))
        if not d <= tol:
            out.append(f"kappa route {name} off by {d:.3e}")
    return out


def check_branch_recovery(points, omega, odd_grads: list) -> list:
    """-Theta_1/Theta_2 of the odd characteristics gives every branch point.

    odd_grads are the z-gradients of the six odd theta constants; the
    directional derivatives are taken along the columns of (2 omega)^-1.
    """
    w = np.linalg.inv(2.0 * np.asarray(omega, dtype=complex))
    grads = np.asarray(odd_grads, dtype=complex)
    th1, th2 = grads @ w[:, 0], grads @ w[:, 1]
    big = float(np.max(np.abs(th2)))
    gamma = [k for k in range(len(grads)) if abs(th2[k]) < GAMMA_SHARE * big]
    if len(gamma) != 1:
        return [f"{len(gamma)} characteristics with vanishing Theta_2"]
    ratios = [-th1[k] / th2[k] for k in range(len(grads)) if k != gamma[0]]
    pts = [complex(e) for e in points]
    out = []
    used = set()
    for r in ratios:
        d = [abs(r - e) / max(1.0, abs(e)) for e in pts]
        k = int(np.argmin(d))
        if d[k] > BRANCH_TOL or k in used:
            out.append(f"-Theta_1/Theta_2 = {r:.6g} recovers no new branch point")
        used.add(k)
    return out


def check_affine(base: dict, image: dict, s: float, c: float) -> list:
    """x -> s x + c: tau is unchanged and 2 omega transforms as u = (dx, x dx)/y."""
    tau_b = np.atleast_2d(np.asarray(base["tau"], dtype=complex))
    tau_i = np.atleast_2d(np.asarray(image["tau"], dtype=complex))
    w_b = np.atleast_2d(np.asarray(base["omega"], dtype=complex))
    w_i = np.atleast_2d(np.asarray(image["omega"], dtype=complex))
    g = w_b.shape[0]
    if g == 2:
        t = s ** -1.5 * np.array([[1.0, 0.0], [c, s]])
    else:
        t = s ** -0.5 * np.eye(1)
    out = []
    if float(np.max(np.abs(tau_i - tau_b))) > AFFINE_TOL * _scale(tau_b):
        out.append("tau of the affine image differs from its base")
    pred = t @ w_b
    if float(np.max(np.abs(w_i - pred))) > AFFINE_TOL * _scale(pred):
        out.append("2 omega of the affine image breaks covariance")
    return out


def check_real_a_periods(points, omega) -> list:
    """a-period columns of a real curve against scipy quad, up to {+-1, +-i}.

    a_j is the loop around the canonical segment (e_{2j-1}, e_{2j}); its
    period is twice the segment integral of (1, x)/y, and on a real segment
    1/y is a unit in {+-1, +-i} times 1/sqrt|P|.  The endpoint singularities
    are taken by quad's algebraic weight.
    """
    from scipy.integrate import quad

    e = sorted(float(complex(z).real) for z in points)
    omega = np.atleast_2d(np.asarray(omega, dtype=complex))
    g = omega.shape[0]
    out = []
    for j in range(g):
        a, b = e[2 * j], e[2 * j + 1]
        others = [z for k, z in enumerate(e) if k not in (2 * j, 2 * j + 1)]

        def h(x, k):
            return x ** k / np.sqrt(abs(4.0 * np.prod([x - z for z in others])))

        ref = np.array([
            2.0 * quad(h, a, b, args=(k,), weight="alg", wvar=(-0.5, -0.5),
                       epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            for k in range(g)
        ])
        col = 2.0 * omega[:, j]
        unit = col[0] / ref[0]
        near = min(abs(unit - u) for u in (1, -1, 1j, -1j))
        if near > QUAD_TOL:
            out.append(f"a_{j + 1} period is {unit:.6g} times the real integral")
        elif float(np.max(np.abs(col - unit * ref))) > QUAD_TOL * _scale(ref):
            out.append(f"a_{j + 1} period column disagrees with scipy quad")
    return out


def weierstrass_j(points) -> complex:
    """1728 g2^3 / (g2^3 - 27 g3^2) of y^2 = 4 prod (x - e_k), genus 1."""
    e = np.asarray(points, dtype=complex)
    e = e - e.mean()
    g2 = -4.0 * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2])
    g3 = 4.0 * e[0] * e[1] * e[2]
    return complex(1728.0 * g2 ** 3 / (g2 ** 3 - 27.0 * g3 ** 2))


def check_kleinj(points, tau) -> list:
    """Klein's j of tau (mpmath) against the curve's Weierstrass invariants."""
    import mpmath

    t = complex(np.asarray(tau, dtype=complex).reshape(-1)[0])
    j_tau = 1728.0 * complex(mpmath.kleinj(mpmath.mpc(t.real, t.imag)))
    j_curve = weierstrass_j(points)
    if abs(j_tau - j_curve) > KLEINJ_TOL * max(1.0, abs(j_curve)):
        return [f"j(tau) = {j_tau:.10g} but the curve has j = {j_curve:.10g}"]
    return []


# -------------------------------------------------------------------- theta

def theta_brute(tau, top, bottom, radius: int) -> tuple:
    """theta[top; bottom](0; tau) and its z-derivatives up to order 3.

    top and bottom are the characteristic as integer doubles; the sum runs
    over the full box |n_k| <= radius.  Returns (value, grad, hess, third).
    """
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    g = tau.shape[0]
    eps = np.asarray(top, dtype=float) / 2.0
    eps_p = np.asarray(bottom, dtype=float) / 2.0
    axis = np.arange(-radius, radius + 1, dtype=float)
    q = np.array(list(itertools.product(axis, repeat=g))) + eps
    terms = np.exp(1j * np.pi * np.einsum("ni,ij,nj->n", q, tau, q)
                   + 2j * np.pi * (q @ eps_p))
    f = 2j * np.pi * q
    return (complex(terms.sum()),
            np.einsum("n,ni->i", terms, f),
            np.einsum("n,ni,nj->ij", terms, f, f),
            np.einsum("n,ni,nj,nk->ijk", terms, f, f, f))


def check_theta_entries(tau, entries: list) -> list:
    """Theta constants against a brute-force sum at twice their radius.

    entries hold "char" (top + bottom integer doubles), "radius", "value"
    and optionally "grad", "hess", "third".
    """
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    g = tau.shape[0]
    out = []
    for ent in entries:
        ch = ent["char"]
        ref = theta_brute(tau, ch[:g], ch[g:], 2 * int(ent["radius"]))
        for name, r in zip(("value", "grad", "hess", "third"), ref):
            if name not in ent:
                continue
            got = np.asarray(ent[name], dtype=complex)
            if float(np.max(np.abs(got - r))) > THETA_TOL * _scale(r):
                out.append(f"theta {ch} {name} differs from the brute-force sum")
    return out


# ---------------------------------------------------------------- Abel map

def lattice_coordinates(v, tau) -> np.ndarray:
    """Real (alpha, beta) with v = alpha + tau beta."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    # v.imag = Im(tau) beta, then alpha = v.real - Re(tau) beta
    beta = np.linalg.solve(tau.imag, v.imag)
    alpha = v.real - tau.real @ beta
    return np.concatenate([alpha, beta])


def check_abel_loop(pq, qr, pr, tau) -> list:
    """abel(P->Q) + abel(Q->R) - abel(P->R) lies on Z^g + tau Z^g."""
    v = np.asarray(pq, dtype=complex) + np.asarray(qr, dtype=complex) - np.asarray(pr, dtype=complex)
    ab = lattice_coordinates(v, tau)
    d = float(np.max(np.abs(ab - np.round(ab))))
    if d > LATTICE_TOL:
        return [f"Abel loop is {d:.3e} off the period lattice"]
    return []


# ------------------------------------------------------------ verify report

#: Check counts of one curve of the verify battery, by (genus, omega pairs).
#: Genus 2: 4 gates, matching, 17 kappa routes, expansion route and
#: residual, 3 Thomae, 25 Rosenhain with 5 gamma pairs, 40 Jacobi, and per
#: omega pair a symmetry and a stencil entry plus 2 a-periods.  Genus 1:
#: 4 gates, 3 Weierstrass, Thomae, expansion route and residual.
def expected_check_count(genus: int, omega_pairs: int) -> int:
    if genus == 1:
        return 10
    return 4 + 1 + 17 + 2 + 3 + 30 + 40 + (2 * omega_pairs + 2 if omega_pairs else 0)


def _tolerance(label: str, tols: dict) -> float:
    if label.startswith("gate_legendre") or label.startswith("gate_eta_prime"):
        return max(1e-9, 1e3 * tols["quad"])
    if label == "gate_tau_asymmetry":
        return max(1e-10, 100.0 * tols["quad"])
    if label == "gate_matching_residual":
        return 1e-6
    if label.startswith("kappa_route_"):
        return tols["kappa_route"]
    if label == "expansion_residual":
        return tols["expansion_residual"]
    if label.startswith("omega_stencil_"):
        return tols["omega_stencil"]
    if label.startswith("omega_symmetry_"):
        return 1e-12
    if label.startswith("weierstrass_") or label == "thomae_genus1":
        return 1e-10
    return tols["identity"]


def _pair(v) -> complex:
    return complex(v[0], v[1])


def _check_entry(c: dict, tols: dict) -> list:
    label, status = c["identity"], c["status"]
    if "error" in c:
        return [] if status == "fail" else [f"{label}: error entry marked {status}"]
    lhs, rhs, stated = _pair(c["lhs"]), _pair(c["rhs"]), float(c["defect"])
    if label == "gate_im_tau_positive":
        recomputed = max(0.0, -lhs.real)
        ok = lhs.real > 0.0
    else:
        big = max(abs(lhs), abs(rhs))
        relative = abs(lhs - rhs) if big < 1e-6 else abs(lhs - rhs) / big
        # scalar entries carry the defect itself as lhs against rhs 0
        scalar = abs(lhs) if rhs == 0 else relative
        recomputed = min((relative, scalar), key=lambda d: abs(d - stated))
        ok = stated < _tolerance(label, tols)
    # 17 printed digits round-trip exactly, so the recomputation is exact
    if abs(recomputed - stated) > 1e-9 * abs(stated):
        return [f"{label}: stated defect {stated:.3e}, recomputed {recomputed:.3e}"]
    if status == "n/a":
        return []
    if status != ("pass" if ok else "fail"):
        return [f"{label}: status {status} disagrees with defect {stated:.3e}"]
    return []


def check_verify_report(text: str, suite: str, seed: int, code: int) -> list:
    """Structure and internal consistency of one verify report.

    Recomputes each defect from its two sides, the status from the defect
    and the tolerance, the check count of each curve, the failure totals
    and the exit code.
    """
    rep = json.loads(text)
    out = []
    if rep.get("suite") != suite or rep.get("seed") != seed:
        out.append("report suite or seed differs from the command")
    curves = rep["curves"]
    if len(curves) != (6 if suite == "full" else 1):
        out.append(f"{len(curves)} curves in a {suite} report")
    tols = rep["tolerances"]
    total = 0
    for pos, cr in enumerate(curves):
        genus = cr["curve"]["genus"]
        pairs = (2 if suite == "full" else 1) if pos == 0 and genus == 2 else 0
        checks = cr["checks"]
        if len(checks) != expected_check_count(genus, pairs):
            out.append(f"curve {cr['name']}: {len(checks)} checks")
        labels = [c["identity"] for c in checks]
        if len(set(labels)) != len(labels):
            out.append(f"curve {cr['name']}: repeated check labels")
        n_fail = 0
        for c in checks:
            out.extend(_check_entry(c, tols))
            n_fail += c["status"] == "fail"
        if n_fail != cr["failures"]:
            out.append(f"curve {cr['name']}: failure count {cr['failures']} != {n_fail}")
        total += n_fail
    if total != rep["failures"]:
        out.append("report failure total disagrees with its curves")
    status = "pass" if total == 0 else "fail"
    if rep["status"] != status or code != (0 if status == "pass" else 1):
        out.append(f"report status {rep['status']} with exit code {code}")
    return out

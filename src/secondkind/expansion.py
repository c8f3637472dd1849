"""Local expansions at infinity and recovery of kappa by series matching.

The local parameter at the infinite point is xi with x = 1/xi^2, under
which y = 2 xi^-(2g+1) sqrt(T(xi)) for an even polynomial T with unit
constant term.  Both projective-connection representations are expanded in
xi: the algebraic side (Schwarzian of x, the y''/y term, the Baker pairing,
and the kappa quadratic form) and the theta side (built from H, Q, T
contractions of theta derivatives with the normalized differentials).
Equating coefficients yields an affine system for the kappa entries.

The branch of y at infinity is fixed to the + square root.  Flipping it
negates every g_a and h_a simultaneously, which leaves both connection
series unchanged (all terms are quadratic in the frame), so the convention
is unobservable downstream; it is tested, not assumed.
"""

from __future__ import annotations

import numpy as np

from .curves import HyperellipticCurve, second_kind_numerators, t_coefficients
from .errors import GammaCharacteristic, IncompatibleSystem
from .periods import PeriodBundle
from .series import TruncatedSeries, schwarzian
from .theta import Characteristic, ThetaTable

#: Default truncation order for connection expansions.
DEFAULT_ORDER = 12

#: Relative residual gate for the affine coefficient system; it also bounds
#: the roundoff cond(A) * eps that the least-squares solve may amplify.
RESIDUAL_TOL = 1e-6


def local_frame(curve: HyperellipticCurve, order: int) -> dict:
    """Series of x, y and the integrands of u_i and r_j at infinity.

    g[a] is u_(a+1)/dxi and h[a] is r_(a+1)/dxi, both to the working order.
    """
    g = curve.genus
    work = order + 4 * g + 8
    x = TruncatedSeries.exact(-2, [1.0])
    xp = x.diff()
    t = TruncatedSeries.exact(0, t_coefficients(curve)).truncate(work)
    sqrt_t = t.sqrt()
    y = 2.0 * TruncatedSeries.exact(-(2 * g + 1), [1.0]) * sqrt_t
    inv_sqrt_t = sqrt_t.reciprocal()
    gs = [
        -TruncatedSeries.exact(2 * (g - a), [1.0]) * inv_sqrt_t
        for a in range(1, g + 1)
    ]
    hs = []
    for q in second_kind_numerators(curve):
        qx = TruncatedSeries.constant(0.0)
        for k, coef in enumerate(q):
            if coef != 0:
                qx = qx + complex(coef) * _x_power(k)
        hs.append(qx * xp / (4.0 * y))
    return {"x": x, "xp": xp, "y": y, "g": gs, "h": hs, "order": order}


def _x_power(k: int) -> TruncatedSeries:
    return TruncatedSeries.exact(-2 * k, [1.0])


def skw_series(curve: HyperellipticCurve, kappa=None, order: int = DEFAULT_ORDER):
    """Algebraic projective connection as a xi-series.

    With a numeric kappa returns the full series.  With kappa None returns
    (base, basis): the kappa-independent part and a dict mapping the entry
    label (a, b), a <= b 1-based, to the series multiplying kappa_ab.  The
    xi^-2 coefficients of the base cancel between the three terms; the
    cancellation is left in place as a numerical structural check.
    """
    g = curve.genus
    fr = local_frame(curve, order)
    x, xp, y, gs, hs = fr["x"], fr["xp"], fr["y"], fr["g"], fr["h"]

    sx = schwarzian(x)
    y_x = y.diff() / xp
    y_xx = y_x.diff() / xp
    base = sx - 1.5 * (y_xx / y) * (xp * xp)
    for a in range(g):
        base = base + 6.0 * gs[a] * hs[a]
    base = base.truncate(order)

    basis = {}
    for a in range(1, g + 1):
        for b in range(a, g + 1):
            mult = 12.0 if a == b else 24.0
            basis[(a, b)] = (mult * gs[a - 1] * gs[b - 1]).truncate(order)
    if kappa is None:
        return base, basis
    kappa = np.asarray(kappa)
    out = base
    for (a, b), s in basis.items():
        out = out + complex(kappa[a - 1, b - 1]) * s
    return out.truncate(order)


def sfw_series(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
               m, odd_char: Characteristic, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Theta-side projective connection expanded at infinity.

    H, Q, T are degree-1..3 contractions of the theta derivatives at the
    half-period of odd_char with the normalized differential frame.  The
    characteristic must satisfy the admissibility condition (H does not
    vanish at infinity); gamma violates it.
    """
    if m is not None and odd_char == getattr(m, "gamma", None):
        raise GammaCharacteristic("H vanishes at infinity for the Riemann-constant characteristic")
    g = curve.genus
    fr = local_frame(curve, order)
    gs = fr["g"]
    w = bundle.inv_two_omega
    ent = tt.entry(odd_char)
    grad_w = w.T @ ent.grad_arr()
    hess_w = w.T @ ent.hess_arr() @ w
    third_w = np.einsum("ijk,ia,jb,kc->abc", ent.third_arr(), w, w, w)

    big = float(np.max(np.abs(grad_w)))
    if abs(grad_w[-1]) < 1e-8 * max(big, 1e-300):
        raise GammaCharacteristic("leading H coefficient vanishes; characteristic inadmissible")

    h = TruncatedSeries.constant(0.0)
    for a in range(g):
        h = h + complex(grad_w[a]) * gs[a]
    q = TruncatedSeries.constant(0.0)
    t3 = TruncatedSeries.constant(0.0)
    for a in range(g):
        for b in range(g):
            q = q + complex(hess_w[a, b]) * gs[a] * gs[b]
            for c in range(g):
                t3 = t3 + complex(third_w[a, b, c]) * gs[a] * gs[b] * gs[c]

    h1 = h.diff()
    h2 = h1.diff()
    ratio = h1 / h
    out = h2 / h - 1.5 * (ratio * ratio) + 1.5 * (q / h) * (q / h) - 2.0 * (t3 / h)
    return out.truncate(order)


def _admissible_chars(tt: ThetaTable, m) -> list:
    if tt.genus == 1:
        return list(tt.odd)
    return [ch for ch in m.chars]


def expansion_match(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                    m=None, order: int = DEFAULT_ORDER) -> dict:
    """Assemble and solve the coefficient-matching system for kappa.

    Equations are collected at even exponents from xi^-2 up to the
    truncation order, across every admissible odd characteristic, and
    solved by least squares.  Returns the base and kappa-basis series, the
    theta-side series per characteristic, the solved kappa, the relative
    residual and the condition number of the system, without gating.
    """
    g = curve.genus
    base, basis = skw_series(curve, kappa=None, order=order)
    keys = sorted(basis.keys())
    rows = []
    rhs = []
    sides = {}
    for ch in _admissible_chars(tt, m):
        sfw = sfw_series(curve, bundle, tt, m, ch, order=order)
        sides[ch] = sfw
        for n in range(-2, order + 1, 2):
            rows.append([basis[k].coeff(n) for k in keys])
            rhs.append(sfw.coeff(n) - base.coeff(n))
    a = np.asarray(rows)
    b = np.asarray(rhs)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.max(np.abs(a @ sol - b)))
    scale = max(1.0, float(np.max(np.abs(b))))
    kappa = np.zeros((g, g), dtype=complex)
    for k, (aa, bb) in enumerate(keys):
        kappa[aa - 1, bb - 1] = sol[k]
        kappa[bb - 1, aa - 1] = sol[k]
    return {
        "base": base,
        "basis": basis,
        "theta_side": sides,
        "kappa": kappa,
        "residual": resid / scale,
        "condition": float(np.linalg.cond(a)),
        "order": order,
    }


def kappa_from_expansion(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                         m=None, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Solve for kappa by matching the two connection expansions.

    IncompatibleSystem when the relative least-squares residual exceeds the
    gate (signals an upstream inconsistency, not a roundoff issue), or when
    the system is so ill-conditioned that roundoff alone, cond * eps, could
    exceed it: a small residual then certifies nothing about kappa.
    """
    out = expansion_match(curve, bundle, tt, m, order=order)
    if out["residual"] > RESIDUAL_TOL:
        raise IncompatibleSystem(
            f"expansion matching residual {out['residual']:.2e} exceeds {RESIDUAL_TOL:.0e}"
        )
    if out["condition"] * np.finfo(float).eps > RESIDUAL_TOL:
        raise IncompatibleSystem(
            f"expansion system condition number {out['condition']:.2e} "
            f"leaves no certified digits at {RESIDUAL_TOL:.0e}"
        )
    return out["kappa"]

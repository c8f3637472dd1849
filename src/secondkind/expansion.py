"""Local expansions at infinity and recovery of kappa by coefficient matching.

The local parameter at the infinite point is xi with x = 1/xi^2, under
which y = 2 xi^-(2g+1) S(xi), S = sqrt(T), for an even polynomial T with
unit constant term.  Both projective-connection representations are
expanded in xi: the algebraic side (Schwarzian of x, the y''/y term, the
Baker pairing, and the kappa quadratic form; ``_skw_rows``) and the theta
side (built from H and T, contractions of theta derivatives with the
normalized differentials; ``_sfw_rows``).  Equating coefficients yields an
affine system for the kappa entries, which ``expansion_match`` solves.

``local_frame`` is built once per curve and order.  It holds dense
coefficient arrays on the window xi^0..xi^(order+2): S, s = 1/S, the
differentials g_a = u_a/dxi = -xi^(2(g-a)) s stacked as G, their products
g_a g_b and g_a g_b g_c, and the Baker pairing.  Every quantity is a power
series there, so products and reciprocals are known on the whole window;
the Laurent factors xi^-2 are exact, and the two derivatives of H cost the
two extra orders.  All of it is formed by the row kernels of ``series``
(``mul_rows``, ``sqrt_coeffs``, ``reciprocal_coeffs``).  The theta side
takes all admissible characteristics at once: H and T are matrix products
of the table's directional derivatives with G and GGG, and 1/H = -S/P is
closed form, P being a polynomial of degree at most 2 in xi^2.
``expansion_match`` returns coefficient rows; ``match_series`` wraps them
as ``TruncatedSeries``, each cut at ``order``, for the report that prints
them.

The branch of y at infinity is fixed to the + square root.  Flipping it
negates every g_a and h_a simultaneously, which leaves both connection
series unchanged (every term is even in the frame), so the convention is
unobservable downstream.
"""

from __future__ import annotations

import numpy as np

from .curves import HyperellipticCurve, second_kind_numerators, t_coefficients
from .errors import GammaCharacteristic, IncompatibleSystem
from .periods import PeriodBundle
from .series import TruncatedSeries, mul_rows, reciprocal_coeffs, sqrt_coeffs
from .theta import ThetaTable

#: Default truncation order for connection expansions.
DEFAULT_ORDER = 12

#: Relative residual gate for the affine coefficient system; it also bounds
#: the roundoff cond(A) * eps that the least-squares solve may amplify.
RESIDUAL_TOL = 1e-6


def _fit(c: np.ndarray, n: int, shift: int = 0) -> np.ndarray:
    """xi^shift c on the window xi^0..xi^(n-1)."""
    out = np.zeros(n, dtype=complex)
    c = c[: max(n - shift, 0)]
    out[shift : shift + len(c)] = c
    return out


def local_frame(curve: HyperellipticCurve, order: int) -> dict:
    """Dense power series at infinity on xi^0..xi^(order+2).

    "S" is sqrt(T) and "s" its reciprocal; "g" stacks g_a = u_a/dxi, "gg"
    and "ggg" the products g_a g_b and g_a g_b g_c (row-major in a, b, c),
    and "gh" is xi^2 sum_a g_a h_a with h_a = r_a/dxi.
    """
    g = curve.genus
    n = order + 3
    big_s = sqrt_coeffs(_fit(t_coefficients(curve), n))
    s = reciprocal_coeffs(big_s)
    gs = np.stack([-_fit(s, n, 2 * (g - a)) for a in range(1, g + 1)])
    gg = mul_rows(gs[:, None], gs[None, :]).reshape(g * g, n)
    ggg = mul_rows(gg[:, None], gs[None, :]).reshape(g ** 3, n)
    # g_a h_a = xi^-2 Q_a s^2 / 4 with Q_a(xi) = xi^(4g-2a) q_a(xi^-2), a
    # polynomial because the top entry of q_a carries lam_(2g+2) = 0
    q_sum = np.zeros(4 * g + 1, dtype=complex)
    for a, q in enumerate(second_kind_numerators(curve), start=1):
        q_sum[: 2 * (2 * g - a) + 1 : 2] += q[2 * g - a :: -1]
    gh = 0.25 * mul_rows(_fit(q_sum, n), mul_rows(s, s))
    return {"S": big_s, "s": s, "g": gs, "gg": gg, "ggg": ggg, "gh": gh, "order": order}


def _skw_rows(fr: dict):
    """Base and kappa basis of the algebraic side on xi^-2..xi^order.

    With y = 2 xi^-m S, m = 2g+1, and the Euler operator E = xi d/dxi:
    {x, xi} = -3/2 xi^-2 and (y_xx / y) x'^2 = xi^-2 [(E+2-m)(E-m) S] / S.
    """
    g = fr["g"].shape[0]
    k = np.arange(len(fr["S"]))
    m = 2 * g + 1
    base = 6.0 * fr["gh"] - 1.5 * mul_rows((k + 2 - m) * (k - m) * fr["S"], fr["s"])
    base[0] -= 1.5
    basis = {}
    for a in range(1, g + 1):
        for b in range(a, g + 1):
            mult = 12.0 if a == b else 24.0
            basis[(a, b)] = _fit(mult * fr["gg"][(a - 1) * g + b - 1], len(k), 2)
    return base, basis


def _reciprocal_h(grad: np.ndarray, big_s: np.ndarray) -> np.ndarray:
    """1/H = -S/P on the window of S, one row per row of the gradient.

    H = sum_a Theta_a g_a with g_a = -xi^(2(g-a)) s is -P s, where
    P = sum_a Theta_a xi^(2(g-a)).  At g = 1, 1/P is 1/Theta_1; at g = 2 it
    is the geometric series (1/Theta_2) sum_j (-Theta_1/Theta_2)^j xi^(2j).
    """
    rows, g = grad.shape
    lead = grad[:, -1]
    steps = np.empty((rows, (len(big_s) + 1) // 2), dtype=complex)
    steps[:, 0] = 1.0 / lead
    steps[:, 1:] = (-grad[:, 0] / lead)[:, None] if g == 2 else 0.0
    inv_p = np.zeros((rows, len(big_s)), dtype=complex)
    inv_p[:, ::2] = np.cumprod(steps, axis=1)
    return -mul_rows(inv_p, big_s)


def _sfw_rows(fr: dict, tt: ThetaTable, chars) -> np.ndarray:
    """Theta-side connection on xi^0..xi^order, one row per characteristic.

    H and T are the degree-1 and degree-3 contractions of the theta
    derivatives at the half-period of each characteristic with the
    normalized differential frame, and the connection is
    H''/H - 3/2 (H'/H)^2 - 2 T/H.  The degree-2 contraction Q would add
    3/2 (Q/H)^2, but the Hessian of an odd theta function vanishes at z = 0.
    1/H = -S/P is closed form (``_reciprocal_h``); it needs genus <= 2, as
    ``compute_periods`` refuses any higher genus, and Theta_g != 0, which the
    admissibility gate below guarantees.
    """
    dgrad, _, dthird = tt.directional
    codes = [ch.code for ch in chars]
    grad = dgrad[codes]

    big = np.max(np.abs(grad), axis=1)
    if np.any(np.abs(grad[:, -1]) < 1e-8 * np.maximum(big, 1e-300)):
        raise GammaCharacteristic("leading H coefficient vanishes; characteristic inadmissible")

    n = fr["order"] + 1
    # einsum, not @: at these sizes a complex BLAS call costs resident memory, not time
    h = np.einsum("ca,ak->ck", grad, fr["g"])
    t3 = np.einsum("ca,ak->ck", dthird[codes].reshape(len(codes), -1), fr["ggg"])
    k = np.arange(1, h.shape[1])
    h1 = h[:, 1:] * k
    h2 = h1[:, 1:] * k[:-1]
    inv_h = _reciprocal_h(grad, fr["S"][:n])
    ratio, rest = mul_rows(np.stack([h1[:, :n], h2 - 2.0 * t3[:, :n]]), inv_h)
    return rest - 1.5 * mul_rows(ratio, ratio)


def expansion_match(curve: HyperellipticCurve, bundle: PeriodBundle, tt: ThetaTable,
                    m=None, order: int = DEFAULT_ORDER) -> dict:
    """Assemble and solve the coefficient-matching system for kappa.

    Equations are collected at even exponents from xi^-2 up to the
    truncation order, across every admissible odd characteristic, and
    solved by least squares.  Returns coefficient rows, not series: the
    base and each kappa-basis entry on xi^-2..xi^order, the theta side per
    characteristic on xi^0..xi^order (``match_series`` wraps them), and the
    solved kappa, the relative residual, and the rank and condition number
    of the system.  Raises ValueError for a negative order or a genus-2
    curve without its matching m, and IncompatibleSystem unless the system
    certifies kappa: below order 4(g-1) a column is zero (the kappa_ab
    series starts at xi^(2(2g-a-b))) and the rank falls short of g(g+1)/2; a
    relative residual over RESIDUAL_TOL signals an upstream inconsistency;
    and when cond * eps exceeds that gate, roundoff alone could too, so a
    small residual certifies nothing about kappa.
    """
    if order < 0:
        raise ValueError(f"expansion order must be >= 0, got {order}")
    g = curve.genus
    if g == 2 and m is None:
        raise ValueError("a genus-2 expansion needs the bolza_match result, got m=None")
    fr = local_frame(curve, order)
    base, basis = _skw_rows(fr)
    keys = sorted(basis.keys())
    chars = list(tt.odd) if g == 1 else list(m.chars)
    sides = _sfw_rows(fr, tt, chars)
    # even exponents xi^-2, xi^0, ..., xi^order; the theta side has no xi^-2 term
    even = slice(0, None, 2)
    cols = np.stack([basis[k][even] for k in keys], axis=1)
    a = np.broadcast_to(cols, (len(chars),) + cols.shape).reshape(-1, len(keys))
    b = np.zeros((len(chars), len(cols)), dtype=complex)
    b[:, 1:] = sides[:, even]
    b = (b - base[even]).ravel()
    if not cols.any(axis=0).all():
        raise IncompatibleSystem(
            f"expansion system has rank below {len(keys)} at order {order}"
        )
    sol, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.max(np.abs(a @ sol - b))) / max(1.0, float(np.max(np.abs(b))))
    if resid > RESIDUAL_TOL:
        raise IncompatibleSystem(
            f"expansion matching residual {resid:.2e} exceeds {RESIDUAL_TOL:.0e}"
        )
    condition = float(sv[0] / sv[-1])
    if condition * np.finfo(float).eps > RESIDUAL_TOL:
        raise IncompatibleSystem(
            f"expansion system condition number {condition:.2e} "
            f"leaves no certified digits at {RESIDUAL_TOL:.0e}"
        )
    kappa = np.zeros((g, g), dtype=complex)
    for k, (aa, bb) in enumerate(keys):
        kappa[aa - 1, bb - 1] = sol[k]
        kappa[bb - 1, aa - 1] = sol[k]
    return {
        "base": base,
        "basis": basis,
        "theta_side": dict(zip(chars, sides)),
        "kappa": kappa,
        "residual": resid,
        "condition": condition,
        "rank": int(rank),
        "order": order,
    }


def match_series(ex: dict) -> dict:
    """The rows of an ``expansion_match`` result as ``TruncatedSeries``:
    "base" and "basis" from xi^-2, "theta_side" from xi^0, to the order."""
    order = ex["order"]
    return {
        "base": TruncatedSeries.make(-2, ex["base"], order),
        "basis": {key: TruncatedSeries.make(-2, c, order) for key, c in ex["basis"].items()},
        "theta_side": {ch: TruncatedSeries.make(0, row, order)
                       for ch, row in ex["theta_side"].items()},
    }

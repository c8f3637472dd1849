"""Plane curve data: hyperelliptic coefficients, branch points, the
second-kind numerators, the symmetric 2-polar, and the polynomial T of the
local parameter at infinity.

A hyperelliptic curve of genus g is stored in the normalization

    y^2 = 4 x^(2g+1) + lam_{2g} x^(2g) + ... + lam_1 x + lam_0,

so the leading coefficient is always 4 and the degree is odd: there is a
single point at infinity.  Coefficients are kept in ascending order
(lam[0] = lam_0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateCurve, RootFindingFailure

#: Relative separation below which two branch points count as coincident.
DEGENERACY_TOL = 1e-10

#: Required relative residual after root polishing.
ROOT_RESIDUAL_TOL = 1e-13


@dataclass(frozen=True)
class HyperellipticCurve:
    """Immutable curve record.

    ``lam`` holds (lam_0, ..., lam_{2g}); ``branch_points`` holds the finite
    roots e_1..e_{2g+1} in the order the curve was constructed with (input
    order for :func:`curve_from_branch_points`, canonical order otherwise).
    """

    genus: int
    lam: tuple
    branch_points: tuple

    @property
    def coeffs(self) -> np.ndarray:
        """Full ascending coefficient vector of y^2, degree 2g+1, leading 4."""
        return np.asarray(list(self.lam) + [4.0], dtype=complex)

    def lam_at(self, k: int) -> complex:
        """lam_k with the padding lam_{2g+1} = 4 and lam_{2g+2} = 0."""
        n = 2 * self.genus + 1
        if k < 0 or k > n + 1:
            raise IndexError(k)
        if k == n:
            return 4.0 + 0.0j
        if k == n + 1:
            return 0.0 + 0.0j
        return self.lam[k]

    def y_squared(self, x) -> complex:
        """y^2 = 4 prod (x - e_k) at one point x, in product form (stable
        near roots), in Python complex arithmetic."""
        x, out = complex(x), 4.0 + 0j
        for e in self.branch_points:
            out = out * (x - e)
        return out

    def lift(self, x, sheet: int = 1) -> "CurvePoint":
        """Point above x on the sheet marked by the sign of the principal root."""
        if sheet not in (1, -1):
            raise ValueError("sheet must be +1 or -1")
        y = sheet * np.sqrt(self.y_squared(x))
        return CurvePoint(complex(x), complex(y), sheet)


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) together with the sheet marker used to build it."""

    x: complex
    y: complex
    sheet: int = 1


def branch_scale(points) -> float:
    """max(1, max |e|): the length scale every relative gate is measured against."""
    return max(1.0, max(abs(e) for e in points))


def _check_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")


def _check_separation(points) -> None:
    pts = list(points)
    scale = branch_scale(pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < DEGENERACY_TOL * scale:
                raise DegenerateCurve(
                    f"branch points {i} and {j} separated by "
                    f"{abs(pts[i] - pts[j]):.3e} < {DEGENERACY_TOL:.1e} * {scale:.3e}"
                )


def canonical_branch_order(points):
    """Sort branch points by (real part, imaginary part)."""
    return tuple(sorted((complex(e) for e in points), key=lambda z: (z.real, z.imag)))


def curve_from_coefficients(lam) -> HyperellipticCurve:
    """Build a curve from (lam_0, ..., lam_{2g}); branch points are solved for.

    Roots come from the companion matrix and are polished by Newton steps;
    each must reach relative residual below ``ROOT_RESIDUAL_TOL``.
    """
    lam = tuple(complex(v) for v in lam)
    if len(lam) < 3 or len(lam) % 2 == 0:
        raise ValueError("expected an odd number >= 3 of coefficients lam_0..lam_2g")
    _check_finite(lam, "coefficients")
    genus = (len(lam) - 1) // 2
    coeffs = np.asarray(list(lam) + [4.0], dtype=complex)
    roots = np.roots(coeffs[::-1])
    dcoeffs = npoly.polyder(coeffs)
    for _ in range(4):
        p = npoly.polyval(roots, coeffs)
        dp = npoly.polyval(roots, dcoeffs)
        step = np.where(np.abs(dp) > 0, p / np.where(dp == 0, 1, dp), 0)
        roots = roots - step
    # relative residual against the magnitude of the evaluated terms
    scale = sum(abs(c) * np.maximum(1.0, np.abs(roots)) ** k for k, c in enumerate(coeffs))
    resid = np.abs(npoly.polyval(roots, coeffs)) / scale
    if np.any(resid > ROOT_RESIDUAL_TOL):
        raise RootFindingFailure(
            f"max polished residual {float(np.max(resid)):.3e} > {ROOT_RESIDUAL_TOL:.1e}"
        )
    pts = canonical_branch_order(roots)
    _check_separation(pts)
    return HyperellipticCurve(genus, lam, pts)


def curve_from_branch_points(points) -> HyperellipticCurve:
    """Build a curve from finite branch points (kept in input order).

    Coefficients come from expanding 4 prod (x - e_i), one ``np.convolve``
    per factor: the product ``npoly.polymul`` forms, without its checks.
    """
    pts = tuple(complex(e) for e in points)
    if len(pts) < 3 or len(pts) % 2 == 0:
        raise ValueError("expected an odd number >= 3 of branch points")
    _check_finite(pts, "branch points")
    _check_separation(pts)
    genus = (len(pts) - 1) // 2
    coeffs = np.array([4.0], dtype=complex)
    for e in pts:
        coeffs = np.convolve(coeffs, np.array([-e, 1.0], dtype=complex))
    return HyperellipticCurve(genus, tuple(coeffs[: 2 * genus + 1]), pts)


def branch_points(curve: HyperellipticCurve):
    """Finite branch points in canonical (real, imaginary) sort order."""
    return canonical_branch_order(curve.branch_points)


def kleinian_polar(curve: HyperellipticCurve, x, z):
    """Symmetric 2-polar F(x, z) of the defining polynomial.

    F(x, z) = sum_{k=0}^{g} x^k z^k (2 lam_{2k} + lam_{2k+1} (x + z)),
    normalized so that F(x, x) = 2 y(x)^2.
    """
    x = np.asarray(x, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.zeros(np.broadcast(x, z).shape, dtype=complex)
    for k in range(curve.genus + 1):
        out = out + (x * z) ** k * (2 * curve.lam_at(2 * k) + curve.lam_at(2 * k + 1) * (x + z))
    return out if out.shape else complex(out)


def second_kind_numerators(curve: HyperellipticCurve):
    """Ascending coefficient arrays q_1..q_g with r_j = q_j(x) dx / (4y).

    q_j(x) = sum_{k=j}^{2g+1-j} (k + 1 - j) lam_{k+1+j} x^k.
    """
    g = curve.genus
    out = []
    for j in range(1, g + 1):
        q = np.zeros(2 * g + 2 - j, dtype=complex)
        for k in range(j, 2 * g + 2 - j):
            q[k] = (k + 1 - j) * curve.lam_at(k + 1 + j)
        out.append(q)
    return out


def t_coefficients(curve: HyperellipticCurve) -> np.ndarray:
    """Ascending coefficients of the even polynomial T(xi) with unit constant term.

    With x = xi^-2 the curve reads y^2 = 4 x^(2g+1) T(xi), where
    T(xi) = 1 + sum_k lam_k xi^(2(2g+1-k)) / 4.
    """
    n = 2 * curve.genus + 1
    coeffs = np.zeros(2 * n + 1, dtype=complex)
    coeffs[0] = 1.0
    for k in range(n):
        coeffs[2 * (n - k)] += curve.lam_at(k) / 4.0
    return coeffs

"""Riemann theta with half-integer characteristics for g <= 2.

The series convention is

    theta[eps](z; tau) = sum_n exp{ i pi (n+eps)^T tau (n+eps)
                                    + 2 i pi (n+eps)^T (z+eps') }

with derivatives taken termwise in z (each order multiplies a term by
2 i pi (n+eps)_k), so all derivative tensors are exact sums, never finite
differences.  Characteristics are stored as integer doubles (2eps | 2eps')
so their mod-1 group law is exact XOR arithmetic.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotSiegelPoint

#: Default truncation tolerance for lattice sums.
DEFAULT_THETA_TOL = 1e-14

#: Below this minimum eigenvalue of Im tau the sum is flagged as ill-conditioned.
CONDITIONING_FLOOR = 0.05


@dataclass(frozen=True, order=True)
class Characteristic:
    """Half-integer characteristic, stored as integer doubles in {0, 1}."""

    top: tuple
    bottom: tuple

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise ValueError("top and bottom must have equal length")
        if any(v not in (0, 1) for v in self.top + self.bottom):
            raise ValueError("entries must be 0 or 1 (meaning 0 or 1/2)")

    @property
    def genus(self) -> int:
        return len(self.top)

    @property
    def eps(self) -> np.ndarray:
        return np.asarray(self.top, dtype=float) / 2.0

    @property
    def eps_prime(self) -> np.ndarray:
        return np.asarray(self.bottom, dtype=float) / 2.0

    @property
    def parity(self) -> int:
        """4 eps^T eps' mod 2: 0 for even, 1 for odd."""
        return sum(a * b for a, b in zip(self.top, self.bottom)) % 2

    @property
    def is_odd(self) -> bool:
        return self.parity == 1

    def label(self) -> str:
        t = "".join(str(v) for v in self.top)
        b = "".join(str(v) for v in self.bottom)
        return f"[{t};{b}]"


def char(top, bottom) -> Characteristic:
    return Characteristic(tuple(int(v) for v in top), tuple(int(v) for v in bottom))


def char_add(a: Characteristic, b: Characteristic) -> Characteristic:
    """Entrywise sum mod 1 (XOR on the integer doubles)."""
    if a.genus != b.genus:
        raise ValueError("genus mismatch")
    return Characteristic(
        tuple(x ^ y for x, y in zip(a.top, b.top)),
        tuple(x ^ y for x, y in zip(a.bottom, b.bottom)),
    )


def all_characteristics(g: int = 2):
    """The 4^g half-integer characteristics in a fixed lexicographic order."""
    out = []
    for top in itertools.product((0, 1), repeat=g):
        for bottom in itertools.product((0, 1), repeat=g):
            out.append(Characteristic(top, bottom))
    return tuple(out)


def classify_characteristics(g: int = 2):
    """Partition into (odd, even) tuples: (6, 10) for g=2, (1, 3) for g=1."""
    chars = all_characteristics(g)
    odd = tuple(c for c in chars if c.is_odd)
    even = tuple(c for c in chars if not c.is_odd)
    return odd, even


def half_period(ch: Characteristic, tau: np.ndarray) -> np.ndarray:
    """z-argument of the half-period: tau eps + eps'."""
    tau = np.asarray(tau, dtype=complex)
    return tau @ ch.eps + ch.eps_prime


def _check_tau(tau) -> tuple:
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    if tau.shape[0] != tau.shape[1] or tau.shape[0] not in (1, 2):
        raise ValueError(f"tau must be 1x1 or 2x2, got {tau.shape}")
    tau = (tau + tau.T) / 2.0
    y = tau.imag
    eig = np.linalg.eigvalsh(y)
    lam_min = float(eig[0])
    if lam_min <= 0:
        raise NotSiegelPoint(f"min eigenvalue of Im tau = {lam_min:.3e} <= 0")
    if lam_min < CONDITIONING_FLOOR:
        warnings.warn(
            f"Im tau min eigenvalue {lam_min:.3e} < {CONDITIONING_FLOOR}; "
            "theta sums are ill-conditioned",
            stacklevel=3,
        )
    return tau, y, lam_min


def _pick_radius(lam_min: float, tol: float) -> int:
    # tail bound: exp(-pi lam_min (R-2)^2) (R+1)^3 <= tol; the cubic factor
    # absorbs polynomial growth from third-order derivative weights and the
    # count of boundary lattice points, (R-2) the recentring slack.
    mu = np.pi * lam_min
    for radius in range(3, 2001):
        if np.exp(-mu * (radius - 2) ** 2) * (radius + 1) ** 3 <= tol:
            return radius
    raise RuntimeError("theta truncation radius exceeds 2000; tau unusable")


def _terms(eps: np.ndarray, shift: np.ndarray, tau: np.ndarray, center: np.ndarray,
           radius: int):
    """Lattice points q = n + eps of the box around center, and their terms.

    The term of q is exp(i pi q^T tau q + 2 i pi q^T shift).
    """
    ranges = [np.arange(c - radius, c + radius + 1) for c in center]
    if len(eps) == 1:
        n = ranges[0][:, None]
    else:
        a, b = np.meshgrid(ranges[0], ranges[1], indexing="ij")
        n = np.column_stack([a.ravel(), b.ravel()])
    q = n + eps[None, :]
    phase = 1j * np.pi * np.einsum("ni,ij,nj->n", q, tau, q) + 2j * np.pi * q @ shift
    return q, np.exp(phase)


def theta_raw(z, tau, eps, eps_prime, deriv=(), tol: float = DEFAULT_THETA_TOL,
              radius: int | None = None):
    """Lattice sum for arbitrary real characteristic vectors.

    deriv is a multi-index (per-coordinate derivative orders, total <= 3).
    Returns (value, radius used).  Accuracy is absolute at the natural scale
    exp(pi Im(z)^T (Im tau)^{-1} Im(z)) of the function.
    """
    tau, y, lam_min = _check_tau(tau)
    g = tau.shape[0]
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    eps_prime = np.atleast_1d(np.asarray(eps_prime, dtype=float))
    deriv = tuple(int(d) for d in deriv) if deriv else (0,) * g
    if len(deriv) != g:
        raise ValueError(f"deriv multi-index must have length {g}")
    if sum(deriv) > 3:
        raise ValueError("derivative order above 3 not supported")
    if radius is None:
        radius = _pick_radius(lam_min, tol)
    # recentre the summation box on the maximum of the Gaussian envelope
    c = np.linalg.solve(y, z.imag)
    center = np.rint(-eps - c).astype(int)
    q, terms = _terms(eps, z + eps_prime, tau, center, radius)
    factor = np.ones(len(q), dtype=complex)
    for axis, power in enumerate(deriv):
        if power:
            factor = factor * (2j * np.pi * q[:, axis]) ** power
    return complex(np.sum(terms * factor)), radius


def theta_eval(z, tau, ch: Characteristic, deriv=(), tol: float = DEFAULT_THETA_TOL) -> complex:
    """theta[ch](z; tau), or a termwise partial derivative of it."""
    value, _ = theta_raw(z, tau, ch.eps, ch.eps_prime, deriv=deriv, tol=tol)
    return value


_DIRECTIONAL_KEYS = ("1", "2", "11", "12", "22", "111", "112", "122", "222")


@dataclass(frozen=True)
class CharEntry:
    """All z=0 derivative data of one characteristic."""

    characteristic: Characteristic
    value: complex
    grad: tuple
    hess: tuple
    third: tuple
    radius: int

    def grad_arr(self) -> np.ndarray:
        return np.asarray(self.grad, dtype=complex)

    def hess_arr(self) -> np.ndarray:
        return np.asarray(self.hess, dtype=complex)

    def third_arr(self) -> np.ndarray:
        return np.asarray(self.third, dtype=complex)


class ThetaTable:
    """Theta-constant table at z = 0 for every characteristic of one tau.

    Plain partials are stored per characteristic; when winding vectors are
    supplied (genus 2), the directional combinations
    Theta_a = sum_i W(a)_i d_i theta etc. are precomputed, with W(1) = U and
    W(2) = V the columns of (2 omega)^{-1}.
    """

    def __init__(self, tau, entries, directional, tol, lam_min, winding=None):
        self.tau = np.asarray(tau, dtype=complex)
        self.genus = self.tau.shape[0]
        self.entries = dict(entries)
        self.directional = directional
        self.tol = tol
        self.lam_min = lam_min
        self.winding = winding

    @property
    def characteristics(self):
        return tuple(self.entries.keys())

    @property
    def odd(self):
        return tuple(c for c in self.entries if c.is_odd)

    @property
    def even(self):
        return tuple(c for c in self.entries if not c.is_odd)

    def entry(self, ch: Characteristic) -> CharEntry:
        return self.entries[ch]

    def value(self, ch: Characteristic) -> complex:
        return self.entries[ch].value

    def d(self, ch: Characteristic, *axes) -> complex:
        """Plain partial derivative at z=0, axes are 0-based coordinates."""
        e = self.entries[ch]
        k = len(axes)
        if k == 0:
            return e.value
        if k == 1:
            return e.grad[axes[0]]
        if k == 2:
            return e.hess[axes[0]][axes[1]]
        if k == 3:
            return e.third[axes[0]][axes[1]][axes[2]]
        raise ValueError("at most 3 derivatives stored")

    def D(self, ch: Characteristic, key: str) -> complex:
        """Directional derivative, key like "2", "12", "222"."""
        if self.directional is None:
            raise ValueError("directional data needs winding vectors (genus 2)")
        return self.directional[ch][key]


def _entry_for(ch_eps, ch_eps_prime, tau, lam_min, tol):
    radius = _pick_radius(lam_min, tol)
    q, terms = _terms(ch_eps, ch_eps_prime, tau, np.rint(-ch_eps).astype(int), radius)
    qf = 2j * np.pi * q
    value = complex(np.sum(terms))
    grad = np.einsum("n,ni->i", terms, qf)
    hess = np.einsum("n,ni,nj->ij", terms, qf, qf)
    third = np.einsum("n,ni,nj,nk->ijk", terms, qf, qf, qf)
    return value, grad, hess, third, radius


def theta_table(bundle_or_tau, tol: float = DEFAULT_THETA_TOL, winding=None) -> ThetaTable:
    """Full theta-constant table from a PeriodBundle (or a bare tau).

    Passing a bundle supplies both tau and the winding vectors; genus-1
    tables simply omit the directional block.
    """
    if hasattr(bundle_or_tau, "tau"):
        tau = bundle_or_tau.tau
        if winding is None:
            winding = getattr(bundle_or_tau, "winding", None)
    else:
        tau = bundle_or_tau
    tau, y, lam_min = _check_tau(tau)
    g = tau.shape[0]
    entries = {}
    directional = {} if (g == 2 and winding is not None) else None
    if directional is not None:
        u = np.asarray(winding[0], dtype=complex)
        v = np.asarray(winding[1], dtype=complex)
    for ch in all_characteristics(g):
        value, grad, hess, third, radius = _entry_for(ch.eps, ch.eps_prime, tau, lam_min, tol)
        entries[ch] = CharEntry(
            ch,
            value,
            tuple(grad),
            tuple(map(tuple, hess)),
            tuple(tuple(map(tuple, m)) for m in third),
            radius,
        )
        if directional is not None:
            w = {"1": u, "2": v}
            d = {}
            for key in _DIRECTIONAL_KEYS:
                vecs = [w[k] for k in key]
                if len(key) == 1:
                    d[key] = complex(vecs[0] @ grad)
                elif len(key) == 2:
                    d[key] = complex(vecs[0] @ hess @ vecs[1])
                else:
                    d[key] = complex(np.einsum("ijk,i,j,k", third, *vecs))
            directional[ch] = d
    return ThetaTable(tau, entries, directional, tol, lam_min, winding=winding)

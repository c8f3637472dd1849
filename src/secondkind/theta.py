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

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotSiegelPoint

#: Default truncation tolerance for lattice sums.
DEFAULT_THETA_TOL = 1e-14

#: Below this minimum eigenvalue of Im tau the sum is flagged as ill-conditioned.
CONDITIONING_FLOOR = 0.05

#: Largest box radius a theta sum may take; past it tau is refused.
MAX_RADIUS = 2000


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

    @functools.cached_property
    def code(self) -> int:
        """The bits of top then bottom as one integer: the index in all_characteristics."""
        return int("".join(str(v) for v in self.top + self.bottom), 2)

    def label(self) -> str:
        t = "".join(str(v) for v in self.top)
        b = "".join(str(v) for v in self.bottom)
        return f"[{t};{b}]"


def char(top, bottom) -> Characteristic:
    return Characteristic(tuple(int(v) for v in top), tuple(int(v) for v in bottom))


@functools.cache
def all_characteristics(g: int = 2):
    """The 4^g half-integer characteristics in a fixed lexicographic order."""
    out = []
    for top in itertools.product((0, 1), repeat=g):
        for bottom in itertools.product((0, 1), repeat=g):
            out.append(Characteristic(top, bottom))
    return tuple(out)


@functools.cache
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


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < np.inf:
        raise ValueError(f"theta tolerance must lie in (0, inf), got {tol}")


def _pick_radius(lam_min: float, tol: float) -> int:
    # tail bound: exp(-pi lam_min (R-2)^2) (R+1)^3 <= tol; the cubic factor
    # absorbs polynomial growth from third-order derivative weights and the
    # count of boundary lattice points, (R-2) the recentring slack.
    mu = np.pi * lam_min
    for radius in range(3, MAX_RADIUS + 1):
        if np.exp(-mu * (radius - 2) ** 2) * (radius + 1) ** 3 <= tol:
            return radius
    raise NotSiegelPoint(f"theta truncation radius exceeds {MAX_RADIUS} at min eigenvalue of "
                         f"Im tau {lam_min:.3e} and tolerance {tol:.1e}")


def _box(center, radius: int) -> np.ndarray:
    """The integer points n with |n_k - center_k| <= radius, one per row, the first axis slowest."""
    ranges = [np.arange(c - radius, c + radius + 1) for c in center]
    if len(ranges) == 1:
        return ranges[0][:, None]
    a, b = np.meshgrid(ranges[0], ranges[1], indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


def _monomials(q: np.ndarray):
    """The real monomials 1, q, q q, q q q of each point q (the last axis) as one row
    of 1 + g + g^2 + g^3 columns, and the (2 pi i)^k of each column's order k."""
    g, lead = q.shape[-1], q.shape[:-1]
    qq = (q[..., :, None] * q[..., None, :]).reshape(*lead, g * g)
    qqq = (qq[..., :, None] * q[..., None, :]).reshape(*lead, g ** 3)
    mono = np.concatenate([np.ones(lead + (1,)), q, qq, qqq], axis=-1)
    return mono, np.repeat((2j * np.pi) ** np.arange(4), g ** np.arange(4))


def _orders(table: np.ndarray, g: int) -> tuple:
    """Split the last axis of a contracted table into the derivatives of order 0..3."""
    lead = table.shape[:-1]
    return (table[..., 0], table[..., 1 : 1 + g],
            table[..., 1 + g : 1 + g + g * g].reshape(*lead, g, g),
            table[..., 1 + g + g * g :].reshape(*lead, g, g, g))


def _jet(z, checked, ch: Characteristic, tol):
    """theta[ch] and its z-derivatives of order 1..3 at z.

    Each public entry point calls _check_tau itself, so that its conditioning
    warning names their caller, and passes its result as checked.  The terms
    exp(i pi q^T tau q + 2 i pi q^T (z + eps')) of the box recentred on the
    Gaussian envelope's maximum meet the monomials of q = n + eps in one real
    matrix product, as in theta_table.
    """
    tau, y, lam_min = checked
    g = tau.shape[0]
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    center = np.rint(-ch.eps - np.linalg.solve(y, z.imag)).astype(int)
    q = _box(center, _pick_radius(lam_min, tol)) + ch.eps
    mono, scale = _monomials(q)
    quad = mono[:, 1 + g : 1 + g + g * g] @ tau.reshape(-1)
    terms = np.exp(1j * np.pi * quad + 2j * np.pi * (q @ (z + ch.eps_prime)))
    return _orders((terms.real @ mono + 1j * (terms.imag @ mono)) * scale, g)


def theta_eval(z, tau, ch: Characteristic, tol: float = DEFAULT_THETA_TOL) -> complex:
    """theta[ch](z; tau): the value of ``theta_jet``."""
    _check_tol(tol)
    return complex(_jet(z, _check_tau(tau), ch, tol)[0])


def theta_jet(z, tau, ch: Characteristic, tol: float = DEFAULT_THETA_TOL) -> tuple:
    """theta[ch] at z with its gradient, Hessian and third z-derivative, all termwise.

    Accuracy is absolute at the natural scale exp(pi Im(z)^T (Im tau)^{-1}
    Im(z)) of the function.
    """
    _check_tol(tol)
    return _jet(z, _check_tau(tau), ch, tol)


@dataclass(frozen=True, eq=False)
class CharEntry:
    """All z=0 derivative data of one characteristic; the arrays are views into its table."""

    characteristic: Characteristic
    value: complex
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray
    radius: int


@functools.cache
def _parity_codes(g: int) -> tuple:
    """The codes of the odd and of the even characteristics, as read-only arrays."""
    out = tuple(np.array([ch.code for ch in chars]) for chars in classify_characteristics(g))
    for arr in out:
        arr.flags.writeable = False
    return out


class ThetaTable:
    """Theta-constant table at z = 0 for every characteristic of one tau.

    Arrays indexed by ``Characteristic.code``: row k of ``values``,
    ``grads``, ``hessians`` and ``thirds`` (the plain z-derivatives of order
    0..3) belongs to ``characteristics[k]``; ``odd_codes`` and ``even_codes``
    list the rows of each parity.  Adding characteristics XORs their codes,
    so the row of a sum is ``a.code ^ b.code``.  ``directional`` holds the
    same derivatives contracted with W = (2 omega)^{-1}, whose columns are
    the winding vectors (grads W, W^T H W, and the third derivatives
    contracted with W on each axis): Theta_ab of row k is
    ``directional[1][k, a, b]``, 0-based.  ``entry(ch)`` reads one row.
    """

    def __init__(self, tau, rows, radius, tol, lam_min, inv_two_omega):
        self.tau = np.asarray(tau, dtype=complex)
        self.genus = self.tau.shape[0]
        self.values, self.grads, self.hessians, self.thirds = rows
        self.radius = radius
        self.tol = tol
        self.lam_min = lam_min
        self.characteristics = all_characteristics(self.genus)
        self.odd, self.even = classify_characteristics(self.genus)
        self.odd_codes, self.even_codes = _parity_codes(self.genus)
        g, w = self.genus, inv_two_omega
        # the Kronecker powers of W contract the flattened tensors in one product each
        ww = (w[:, None, :, None] * w[None, :, None, :]).reshape(g * g, g * g)
        www = (ww[:, None, :, None] * w[None, :, None, :]).reshape(g ** 3, g ** 3)
        self.directional = (
            self.grads @ w,
            (self.hessians.reshape(-1, g * g) @ ww).reshape(-1, g, g),
            (self.thirds.reshape(-1, g ** 3) @ www).reshape(-1, g, g, g),
        )
        for arr in (*rows, *self.directional):
            arr.flags.writeable = False

    def entry(self, ch: Characteristic) -> CharEntry:
        k = ch.code
        return CharEntry(ch, complex(self.values[k]), self.grads[k], self.hessians[k],
                         self.thirds[k], self.radius)

    @property
    def entries(self) -> dict:
        """``entry(ch)`` of every characteristic, by characteristic."""
        return {ch: self.entry(ch) for ch in self.characteristics}


#: The nested box of each genus: genus -> (radius, mono, phase, scale), as
#: ``_lattice`` describes them, for the largest radius asked for so far whose
#: box fits in LATTICE_HOLD_BYTES.
_LATTICES: dict = {}

#: Largest box, in bytes, that ``_lattice`` holds between tables: radius 74
#: at g = 2.  A table whose box is larger builds it for itself alone.
LATTICE_HOLD_BYTES = 16 * 2 ** 20


def _box_bytes(g: int, radius: int) -> int:
    """The bytes of the mono and phase arrays of ``_lattice``'s box."""
    return 8 * (2 * radius + 1) ** g * 2 ** g * (1 + g + g * g + g ** 3 + 2 ** (g + 1))


def _lattice(g: int, radius: int):
    """The tau-free arrays of theta_table's box |n_k| <= radius, all read-only.

    mono[b] holds, for each point q = n + eps of lattice b (eps = bits of b
    over 2), the real monomials 1, q, q q, q q q as one row of 1 + g + g^2 +
    g^3 columns.  phase[b, c] is i^(2q . 2eps') with eps' the bits of c, and
    scale the (2 pi i)^k of each column's order k.  The points n are
    ordered by shell max |n_k|, lexicographically within a shell, so the
    box of every smaller radius is a prefix of it, in the same order as if
    it were built alone.  One box is held per genus; the arrays returned
    are zero-copy prefix views of it.  The held box is rebuilt only when a
    larger radius is asked for, and only up to LATTICE_HOLD_BYTES
    (``_box_bytes``: 8 (2R+1)^g 2^g (1 + g + g^2 + g^3 + 2^(g+1)), about
    0.5 MB at g = 2 and R = 13); a larger box is built for its one table
    and not held.
    """
    held = _LATTICES.get(g)
    if held is None or held[0] < radius:
        n = _box((0,) * g, radius)
        n = n[np.argsort(np.abs(n).max(axis=1), kind="stable")]
        bits = np.array(list(itertools.product((0, 1), repeat=g)))
        q = n[None, :, :] + bits[:, None, :] / 2.0
        mono, scale = _monomials(q)
        powers = np.einsum("bni,ci->bcn", (2 * q).astype(int), bits)
        phase = np.array([1, 1j, -1, -1j])[powers % 4]
        for arr in (mono, phase, scale):
            arr.flags.writeable = False
        if _box_bytes(g, radius) > LATTICE_HOLD_BYTES:
            return mono, phase, scale
        held = _LATTICES[g] = (radius, mono, phase, scale)
    _, mono, phase, scale = held
    size = (2 * radius + 1) ** g
    return mono[:, :size], phase[..., :size], scale


def theta_table(bundle, tol: float = DEFAULT_THETA_TOL) -> ThetaTable:
    """Full theta-constant table at the tau of a PeriodBundle, with the
    directional block along its winding vectors.

    All 2^g lattices Z^g + eps are summed in one pass over the box of radius
    _pick_radius(lam_min, tol) around the origin.  The 2^g choices of eps'
    only multiply the term of q by exp(i pi q . 2eps'), a power of i since 2q
    is an integer vector, so every characteristic comes from one weighting of
    the Gaussian terms exp(i pi q^T tau q).  Everything but those terms is
    tau-free and comes from _lattice, a prefix of the one nested box it
    holds per genus.  The weighted terms meet the real monomials 1, q, q q,
    q q q of each lattice in one real matrix product, whose rows are the
    real and then the imaginary parts of the weights, and order k is scaled
    by (2 pi i)^k afterwards.
    """
    _check_tol(tol)
    tau, _, lam_min = _check_tau(bundle.tau)
    g = tau.shape[0]
    radius = _pick_radius(lam_min, tol)
    mono, phase, scale = _lattice(g, radius)
    quad = mono[:, :, 1 + g : 1 + g + g * g] @ tau.reshape(-1)
    weights = phase * np.exp(1j * np.pi * quad)[:, None, :]
    sums = np.concatenate([weights.real, weights.imag], axis=1) @ mono
    sums = sums[:, : 2 ** g] + 1j * sums[:, 2 ** g :]
    rows = _orders((sums * scale).reshape(4 ** g, -1), g)
    return ThetaTable(tau, rows, radius, tol, lam_min, bundle.inv_two_omega)


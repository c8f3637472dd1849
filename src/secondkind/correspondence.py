"""Matching odd theta characteristics to branch points (genus 2).

On a genus-2 curve each of the five finite branch points e_i is the value
-Theta_1[delta]/Theta_2[delta] for exactly one odd characteristic delta,
where Theta_a are the directional derivatives of theta at z = 0 along the
winding vectors.  The sixth odd characteristic, gamma, has Theta_2 = 0 and
is the characteristic of the vector of Riemann constants (base point at
infinity).  Even characteristics for branch pairs are delta_i + delta_j +
gamma.

Branch labels in this module are 1-based (e_1 .. e_5 in canonical order),
matching the classical notation used throughout the identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvePoint, HyperellipticCurve, canonical_branch_order
from .errors import AmbiguousMatching, NoGamma
from .periods import PeriodBundle, abel_from_infinity, lattice_distance
from .theta import Characteristic, ThetaTable, char_add, half_period

#: Relative threshold on |Theta_2| below which a characteristic is gamma.
GAMMA_THRESHOLD = 1e-8

#: Relative residual gate for accepting a branch-point match.
MATCH_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BranchMatching:
    """Bijection between odd characteristics and finite branch points.

    chars[k] is the odd characteristic matched to branch point k+1 (canonical
    order); residuals[k] is the relative matching error; even_pairs maps the
    sorted 1-based pair (i, j) to its even characteristic.
    """

    chars: tuple
    gamma: Characteristic
    residuals: tuple
    even_pairs: dict
    branch_values: tuple

    def delta(self, i: int) -> Characteristic:
        """Odd characteristic of branch point e_i, 1-based."""
        if not 1 <= i <= len(self.chars):
            raise IndexError(f"branch label {i} out of range")
        return self.chars[i - 1]


def even_char_for_pair(m: BranchMatching, i: int, j: int) -> Characteristic:
    """Even characteristic delta_i + delta_j + gamma for the pair {i, j}."""
    if not (1 <= i <= 5 and 1 <= j <= 5 and i != j):
        raise ValueError("pair labels must be distinct and in 1..5")
    return m.even_pairs[(min(i, j), max(i, j))]


def bolza_match(tt: ThetaTable, curve: HyperellipticCurve) -> BranchMatching:
    """Match odd characteristics to branch points by the ratio formula.

    Raises NoGamma when no characteristic has small Theta_2 (an upstream
    periods/theta inconsistency) and AmbiguousMatching when the degenerate
    characteristic is not unique or two ratios choose the same branch point
    or any residual exceeds the gate.
    """
    if tt.genus != 2:
        raise ValueError("bolza_match needs a genus-2 table")
    odd, even = tt.odd, tt.even
    th = tt.directional[0][[ch.code for ch in odd]]
    mx = float(np.max(np.abs(th[:, 1])))
    if mx == 0.0:
        raise NoGamma("all directional derivatives vanish")
    small = [ch for ch, t2 in zip(odd, th[:, 1]) if abs(t2) < GAMMA_THRESHOLD * mx]
    if not small:
        raise NoGamma("no odd characteristic with degenerate Theta_2")
    if len(small) > 1:
        raise AmbiguousMatching(f"{len(small)} Theta_2-degenerate characteristics")
    gamma = small[0]

    points = canonical_branch_order(curve.branch_points)
    taken: dict[int, Characteristic] = {}
    residuals: dict[int, float] = {}
    values: dict[int, complex] = {}
    for ch, (t1, t2) in zip(odd, th):
        if ch == gamma:
            continue
        ratio = complex(-t1 / t2)
        dists = [abs(ratio - e) for e in points]
        k = int(np.argmin(dists))
        rel = dists[k] / max(1.0, abs(points[k]))
        if rel > MATCH_RESIDUAL_TOL:
            raise AmbiguousMatching(
                f"ratio {ratio:.6g} matches no branch point (residual {rel:.2e})"
            )
        if k in taken:
            raise AmbiguousMatching(f"branch point {k + 1} claimed twice")
        taken[k] = ch
        residuals[k] = rel
        values[k] = ratio

    chars = tuple(taken[k] for k in range(5))
    even_pairs = {}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            eps = char_add(chars[i - 1], char_add(chars[j - 1], gamma))
            assert eps.parity == 0, "pair characteristic must be even"
            even_pairs[(i, j)] = eps
    assert set(even_pairs.values()) == set(even), "pairs must exhaust even classes"
    return BranchMatching(
        chars=chars,
        gamma=gamma,
        residuals=tuple(residuals[k] for k in range(5)),
        even_pairs=even_pairs,
        branch_values=tuple(values[k] for k in range(5)),
    )


def abel_consistency(curve: HyperellipticCurve, bundle: PeriodBundle,
                     matching: BranchMatching):
    """Diagnostic: Abel image of each branch point against its half-period.

    For each finite branch point, (2 omega)^{-1} integral of u from infinity
    to (e_i, 0) plus the Riemann-constant vector must equal the half-period
    of delta_i modulo the lattice.  Returns the per-branch lattice distances;
    the caller decides whether to warn.  Half-periods are 2-torsion, so the
    check is insensitive to the overall sign of the integral.
    """
    kvec = half_period(matching.gamma, bundle.tau)
    out = []
    for k, e in enumerate(bundle.canonical_points):
        v = abel_from_infinity(curve, bundle, CurvePoint(e, 0.0))
        target = half_period(matching.delta(k + 1), bundle.tau)
        out.append(lattice_distance(v + kvec - target, bundle.tau))
    return tuple(out)

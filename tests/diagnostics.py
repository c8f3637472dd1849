"""Helpers that only the tests use: the group law of the characteristics
and the matching's check against the branch points' half-periods."""

from __future__ import annotations

from secondkind.correspondence import BranchMatching
from secondkind.curves import CurvePoint, HyperellipticCurve
from secondkind.periods import PeriodBundle, abel_from_infinity, lattice_distance
from secondkind.theta import Characteristic, all_characteristics, half_period


def char_add(a: Characteristic, b: Characteristic) -> Characteristic:
    """Entrywise sum mod 1 (XOR on the integer doubles)."""
    if a.genus != b.genus:
        raise ValueError("genus mismatch")
    return all_characteristics(a.genus)[a.code ^ b.code]


def abel_consistency(curve: HyperellipticCurve, bundle: PeriodBundle,
                     matching: BranchMatching):
    """The matching against the branch points' half-periods.

    For each finite branch point, its Abel image from infinity, the
    half-period of its code in the chain basis (``abel_from_infinity``),
    plus the Riemann-constant vector must equal the half-period of delta_i
    modulo the lattice.  Returns the per-branch lattice distances.
    Half-periods are 2-torsion, so the check is insensitive to the overall
    sign of the image.
    """
    kvec = half_period(matching.gamma, bundle.tau)
    out = []
    for k, e in enumerate(bundle.canonical_points):
        v = abel_from_infinity(curve, bundle, CurvePoint(e, 0.0))
        target = half_period(matching.delta(k + 1), bundle.tau)
        out.append(lattice_distance(v + kvec - target, bundle.tau))
    return tuple(out)

"""Matching odd theta characteristics to branch points (genus 2).

On a genus-2 curve each of the five finite branch points e_i is the value
-Theta_1[delta]/Theta_2[delta] for exactly one odd characteristic delta,
where Theta_a are the directional derivatives of theta at z = 0 along the
winding vectors.  The sixth odd characteristic, gamma, has Theta_2 = 0 and
is the characteristic of the vector of Riemann constants (base point at
infinity).  Even characteristics for branch pairs are delta_i + delta_j +
gamma.

Branch labels in this module are 1-based (e_1 .. e_5 in canonical order,
6 for gamma), matching the classical notation used throughout the
identities; the index arrays are 0-based.  Adding characteristics XORs
their codes, so bolza_match also gives the matching as an integer code
index into the theta table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .curves import HyperellipticCurve, canonical_branch_order
from .errors import AmbiguousMatching, NoGamma
from .theta import Characteristic, ThetaTable, classify_characteristics

#: Relative threshold on |Theta_2| below which a characteristic is gamma.
GAMMA_THRESHOLD = 1e-8

#: Relative residual gate for accepting a branch-point match.
MATCH_RESIDUAL_TOL = 1e-6

#: The 15 pairs {i, j} of odd labels (0-based, 5 is gamma) in lexicographic
#: order, and the four labels k outside each pair, ascending.
ODD_PAIRS = np.array(list(itertools.combinations(range(6), 2)))
ODD_REST = np.array([[k for k in range(6) if k not in pair] for pair in ODD_PAIRS])

#: The rows of ODD_PAIRS that pair two branch points: the 10 pairs without
#: gamma.  Their three remaining branch points are ODD_REST[BRANCH_ROWS, :3].
BRANCH_ROWS = ODD_PAIRS[:, 1] < 5


@dataclass(frozen=True, eq=False)
class BranchMatching:
    """Bijection between odd characteristics and finite branch points.

    chars[k] is the odd characteristic matched to branch point k+1 (canonical
    order); residuals[k] is the relative matching error.

    The code index: odd_codes holds the codes of delta_1 .. delta_5, gamma;
    row r of even_quads the four even codes of delta_i + delta_j + delta_k,
    (i, j) = ODD_PAIRS[r] and k in ODD_REST[r].  On the BRANCH_ROWS, whose
    k are the three branch points outside the pair and gamma, its last
    column holds the even characteristic delta_i + delta_j + gamma of each
    branch pair: the 10 even codes, once each, which the Jacobi inversion
    and the even-pair kappa routes gather.
    """

    chars: tuple
    gamma: Characteristic
    residuals: tuple
    branch_values: tuple
    odd_codes: np.ndarray
    even_quads: np.ndarray

    def delta(self, i: int) -> Characteristic:
        """Odd characteristic of branch point e_i, 1-based."""
        if not 1 <= i <= len(self.chars):
            raise IndexError(f"branch label {i} out of range")
        return self.chars[i - 1]


def bolza_match(tt: ThetaTable, curve: HyperellipticCurve) -> BranchMatching:
    """Match odd characteristics to branch points by the ratio formula.

    Raises NoGamma when no characteristic has small Theta_2 (an upstream
    periods/theta inconsistency) and AmbiguousMatching when the degenerate
    characteristic is not unique or two ratios choose the same branch point
    or any residual exceeds the gate.
    """
    if tt.genus != 2:
        raise ValueError("bolza_match needs a genus-2 table")
    th = tt.directional[0][tt.odd_codes]
    t2 = th[:, 1]
    mx = float(np.max(np.abs(t2)))
    if mx == 0.0:
        raise NoGamma("all directional derivatives vanish")
    # np.hypot is Python's abs bit for bit; np.abs of an array is not
    degenerate = np.hypot(t2.real, t2.imag) < GAMMA_THRESHOLD * mx
    small, rest = np.flatnonzero(degenerate), np.flatnonzero(~degenerate)
    if not small.size:
        raise NoGamma("no odd characteristic with degenerate Theta_2")
    if small.size > 1:
        raise AmbiguousMatching(f"{small.size} Theta_2-degenerate characteristics")

    # the five other characteristics in odd order, each to its nearest branch point
    ratios = -th[rest, 0] / t2[rest]
    points = np.array(canonical_branch_order(curve.branch_points))
    diff = ratios[:, None] - points
    dists = np.hypot(diff.real, diff.imag)
    ks = np.argmin(dists, axis=1)
    rel = dists.min(axis=1) / np.maximum(1.0, np.hypot(points.real, points.imag)[ks])
    # refused at the first characteristic that fails, the residual checked first
    claimed = np.argmax(ks[:, None] == ks, axis=1) < np.arange(len(ks))
    failed = (rel > MATCH_RESIDUAL_TOL) | claimed
    if failed.any():
        i = int(np.argmax(failed))
        if rel[i] > MATCH_RESIDUAL_TOL:
            raise AmbiguousMatching(f"ratio {complex(ratios[i]):.6g} matches no branch point "
                                    f"(residual {rel[i]:.2e})")
        raise AmbiguousMatching(f"branch point {ks[i] + 1} claimed twice")

    by_point = np.argsort(ks)
    chars = tuple(tt.odd[i] for i in rest[by_point])
    odd_codes, even_quads = _code_index(tuple(tt.odd_codes[np.append(rest[by_point], small)].tolist()))
    return BranchMatching(
        chars=chars,
        gamma=tt.odd[small[0]],
        residuals=tuple(rel[by_point].tolist()),
        branch_values=tuple(ratios[by_point].tolist()),
        odd_codes=odd_codes,
        even_quads=even_quads,
    )


@functools.cache
def _code_index(odd: tuple) -> tuple:
    """odd_codes and even_quads of ``BranchMatching``, read-only, for the
    odd codes of delta_1 .. delta_5, gamma in that order.  They depend on
    those six codes alone, so each ordering is built and checked once."""
    odd_codes = np.array(odd)
    even_quads = odd_codes[ODD_PAIRS[:, :1]] ^ odd_codes[ODD_PAIRS[:, 1:]] ^ odd_codes[ODD_REST]
    evens = {ch.code for ch in classify_characteristics(2)[1]}
    assert all(len(set(q)) == 4 and set(q) <= evens for q in even_quads.tolist()), \
        "Rosenhain characteristics must be even and distinct"
    assert set(even_quads[BRANCH_ROWS, 3].tolist()) == evens, "pairs must exhaust even classes"
    odd_codes.flags.writeable = even_quads.flags.writeable = False
    return odd_codes, even_quads

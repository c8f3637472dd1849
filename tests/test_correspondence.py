"""Odd characteristics matched to branch points, and the degenerate one."""

import numpy as np
import pytest

from diagnostics import abel_consistency, char_add
from secondkind import (
    abel_from_infinity,
    abel_map,
    bolza_match,
    compute_periods,
    periods,
    theta_table,
)
from secondkind.cli import random_curve
from secondkind.correspondence import BRANCH_ROWS, ODD_PAIRS
from secondkind.curves import CurvePoint, branch_scale
from secondkind.errors import AmbiguousMatching, NoGamma
from secondkind.periods import lattice_distance
from secondkind.theta import ThetaTable, classify_characteristics


def test_standard_matching_shape(standard_matching):
    m = standard_matching
    assert len(m.chars) == 5
    assert len(set(m.chars)) == 5
    assert m.gamma.is_odd
    assert all(ch.is_odd for ch in m.chars)
    assert max(m.residuals) < 1e-12


def test_standard_gamma_is_pinned(standard_matching):
    assert standard_matching.gamma.label() == "[11;01]"


def test_branch_values_reproduce_canonical_points(standard_matching, standard_bundle):
    vals = np.asarray(standard_matching.branch_values)
    pts = np.asarray(standard_bundle.canonical_points)
    assert np.max(np.abs(vals - pts)) < 1e-8


def _pair_chars(m, tt):
    """The characteristics at even_quads[BRANCH_ROWS, 3], one per branch pair."""
    return [tt.characteristics[c] for c in m.even_quads[BRANCH_ROWS, 3].tolist()]


def test_even_pairs_exhaust_even_characteristics(standard_matching, standard_table):
    chars = _pair_chars(standard_matching, standard_table)
    assert len(chars) == 10
    assert all(not ch.is_odd for ch in chars)
    _, even = classify_characteristics(2)
    assert set(chars) == set(even)


def test_even_pair_is_delta_sum_plus_gamma(standard_matching, standard_table):
    m = standard_matching
    pairs = ODD_PAIRS[BRANCH_ROWS].tolist()
    assert pairs == [[i, j] for i in range(5) for j in range(i + 1, 5)]
    for (i, j), ch in zip(pairs, _pair_chars(m, standard_table), strict=True):
        assert ch == char_add(char_add(m.delta(i + 1), m.delta(j + 1)), m.gamma)


def test_delta_accessor_bounds(standard_matching):
    with pytest.raises(IndexError):
        standard_matching.delta(0)
    with pytest.raises(IndexError):
        standard_matching.delta(6)


def test_skew_curve_matches_cleanly(skew_matching):
    assert max(skew_matching.residuals) < 1e-10
    assert len(set(skew_matching.chars)) == 5


def test_abel_images_land_on_matched_half_periods(standard_curve, standard_bundle,
                                                  standard_matching):
    dists = abel_consistency(standard_curve, standard_bundle, standard_matching)
    assert max(dists) < 1e-8


#: Mumford's codes (a; b) of 2 A(oo -> e_k), k = 1 .. 2g + 1, for a basis
#: built from chains between consecutive branch points (Tata Lectures on
#: Theta II, ch. IIIa 5).
MUMFORD_CODES = {
    1: ((0, 1), (1, 1), (1, 0)),
    2: ((0, 0, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 0, 0)),
}


def test_branch_codes_are_mumfords_table():
    for g, table in MUMFORD_CODES.items():
        codes = periods._branch_codes(g)
        assert codes.tolist() == [list(code) for code in table], g
        assert not codes.flags.writeable


#: Draws of ``random_curve(default_rng(0))`` whose Abel legs from far
#: points raised ``QuadratureNonConvergence`` while x was formed from the
#: start of the leg: on a leg about 100 long its absolute rounding, about
#: 1e-14, is a large relative error in the factor x - e_k next to e_k.
#: Draw 7 also needed a path clearance relative to the leg's length.
FAR_LEG_DRAWS = (5, 7, 8, 11, 14, 26, 28, 31, 33, 39)


def test_abel_images_land_on_half_periods_after_long_legs():
    """On the FAR_LEG_DRAWS, ``abel_map`` from the far point 40 max|e|^2
    exp(i pi / 7), lifted on the principal sheet, to e_k minus the map to
    e_0 is h_k - h_0 modulo the lattice to 1e-12, h_k = A(oo -> e_k) the
    half-period of the code ``periods._branch_codes`` gives e_k.  On these
    draws and on 40 draws of ``random_curve(default_rng(5))``, whose chains
    take at least 5 sign patterns between them, ``abel_consistency`` finds
    the matching on those half-periods to 1e-12: the codes do not depend on
    the chains' signs."""
    rng = np.random.default_rng(0)
    curves = [random_curve(rng) for _ in range(max(FAR_LEG_DRAWS) + 1)]
    rng = np.random.default_rng(5)
    draws = [random_curve(rng) for _ in range(40)]
    signs = set()
    for curve, long_legs in [(curves[k], True) for k in FAR_LEG_DRAWS] + [(c, False) for c in draws]:
        bundle = compute_periods(curve)
        dists = abel_consistency(curve, bundle, bolza_match(theta_table(bundle), curve))
        assert max(dists) < 1e-12, (curve.branch_points, dists)
        if not long_legs:
            signs.add(bundle.chain_signs)
            continue
        far = curve.lift(40.0 * branch_scale(curve.branch_points) ** 2 * np.exp(1j * np.pi / 7))
        ends = [CurvePoint(e, 0j) for e in curve.branch_points]
        legs = [abel_map(curve, bundle, far, e) for e in ends]
        halves = [abel_from_infinity(curve, bundle, e) for e in ends]
        for leg, half in zip(legs, halves, strict=True):
            dist = lattice_distance(leg - legs[0] - (half - halves[0]), bundle.tau)
            assert dist < 1e-12, (curve.branch_points, dist)
    assert len(signs) >= 5


def test_matching_stable_under_quadrature_tolerance(standard_curve, standard_matching):
    b = compute_periods(standard_curve, quad_tol=1e-10)
    tt = theta_table(b, tol=1e-13)
    m = bolza_match(tt, standard_curve)
    assert m.gamma == standard_matching.gamma
    assert m.chars == standard_matching.chars


def test_genus1_table_is_rejected(lemniscatic_table, lemniscatic_curve):
    with pytest.raises(ValueError):
        bolza_match(lemniscatic_table, lemniscatic_curve)


def test_a_table_of_another_curve_is_refused(standard_table, skew_curve):
    with pytest.raises(AmbiguousMatching, match="matches no branch point"):
        bolza_match(standard_table, skew_curve)


@pytest.mark.parametrize("w, message", [
    (np.eye(2), "no odd characteristic with degenerate Theta_2"),
    (np.zeros((2, 2)), "all directional derivatives vanish"),
])
def test_a_table_without_gamma_is_refused(standard_table, standard_curve, w, message):
    """The standard table's arrays contracted with W = I (plain derivatives,
    none of whose Theta_2 is degenerate) or with W = 0."""
    tt = standard_table
    rebuilt = ThetaTable(tt.tau, (tt.values, tt.grads, tt.hessians, tt.thirds), tt.radius,
                         tt.tol, tt.lam_min, w)
    with pytest.raises(NoGamma, match=message):
        bolza_match(rebuilt, standard_curve)


def _with_directional(tt, grads):
    """The table ``tt`` with ``directional[0]`` = grads: grads contracted with W = I."""
    return ThetaTable(tt.tau, (tt.values, grads, tt.hessians, tt.thirds), tt.radius, tt.tol,
                      tt.lam_min, np.eye(2))


def test_two_degenerate_characteristics_are_refused(standard_table, standard_matching,
                                                     standard_curve):
    grads = standard_table.directional[0].copy()
    grads[[standard_matching.gamma.code, standard_matching.delta(1).code], 1] = 0
    with pytest.raises(AmbiguousMatching, match="^2 Theta_2-degenerate characteristics$"):
        bolza_match(_with_directional(standard_table, grads), standard_curve)


@pytest.mark.parametrize("theta_2_scale, message", [
    (1.0, "^branch point 1 claimed twice$"),
    # delta_2 then fails both checks, and the residual is checked first
    (1.001, "^ratio .* matches no branch point"),
], ids=["copied", "perturbed"])
def test_delta_1_in_place_of_delta_2_is_refused(standard_table, standard_matching, standard_curve,
                                                theta_2_scale, message):
    """delta_2's row replaced by delta_1's, which precedes it in odd order:
    both ratios are e_1, or delta_2's is 1e-3 off it."""
    tt, m = standard_table, standard_matching
    assert tt.odd.index(m.delta(1)) < tt.odd.index(m.delta(2))
    grads = tt.directional[0].copy()
    same = bolza_match(_with_directional(tt, grads.copy()), standard_curve)
    assert [ch.label() for ch in same.chars] == [ch.label() for ch in m.chars]
    grads[m.delta(2).code] = grads[m.delta(1).code] * [1.0, theta_2_scale]
    with pytest.raises(AmbiguousMatching, match=message):
        bolza_match(_with_directional(tt, grads), standard_curve)

"""Odd characteristics matched to branch points, and the degenerate one."""

import numpy as np
import pytest

from secondkind import abel_consistency, bolza_match, compute_periods, theta_table
from secondkind.cli import random_curve
from secondkind.correspondence import even_char_for_pair
from secondkind.theta import char_add, classify_characteristics


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


def test_even_pairs_exhaust_even_characteristics(standard_matching):
    m = standard_matching
    assert len(m.even_pairs) == 10
    assert all(i < j for (i, j) in m.even_pairs)
    chars = list(m.even_pairs.values())
    assert all(not ch.is_odd for ch in chars)
    _, even = classify_characteristics(2)
    assert set(chars) == set(even)


def test_even_pair_is_delta_sum_plus_gamma(standard_matching):
    m = standard_matching
    for (i, j), ch in m.even_pairs.items():
        assert ch == char_add(char_add(m.delta(i), m.delta(j)), m.gamma)


def test_delta_accessor_bounds(standard_matching):
    with pytest.raises(IndexError):
        standard_matching.delta(0)
    with pytest.raises(IndexError):
        standard_matching.delta(6)


def test_pair_accessor_validates(standard_matching):
    m = standard_matching
    assert even_char_for_pair(m, 2, 1) == even_char_for_pair(m, 1, 2)
    with pytest.raises(ValueError):
        even_char_for_pair(m, 3, 3)
    with pytest.raises(ValueError):
        even_char_for_pair(m, 0, 4)


def test_skew_curve_matches_cleanly(skew_matching):
    assert max(skew_matching.residuals) < 1e-10
    assert len(set(skew_matching.chars)) == 5


def test_abel_images_land_on_matched_half_periods(standard_curve, standard_bundle,
                                                  standard_matching):
    dists = abel_consistency(standard_curve, standard_bundle, standard_matching)
    assert max(dists) < 1e-8


#: Draws of ``random_curve(default_rng(0))`` whose Abel legs from far
#: points raised ``QuadratureNonConvergence`` while x was formed from the
#: start of the leg: on a leg about 100 long its absolute rounding, about
#: 1e-14, is a large relative error in the factor x - e_k next to e_k.
#: Draw 7 also needed a path clearance relative to the leg's length.
FAR_LEG_DRAWS = (5, 7, 8, 11, 14, 26, 28, 31, 33, 39)


def test_abel_images_land_on_half_periods_after_long_legs():
    rng = np.random.default_rng(0)
    curves = [random_curve(rng) for _ in range(max(FAR_LEG_DRAWS) + 1)]
    for k in FAR_LEG_DRAWS:
        bundle = compute_periods(curves[k])
        dists = abel_consistency(curves[k], bundle, bolza_match(theta_table(bundle), curves[k]))
        assert max(dists) < 1e-12, (k, dists)


def test_matching_stable_under_quadrature_tolerance(standard_curve, standard_matching):
    b = compute_periods(standard_curve, quad_tol=1e-10)
    tt = theta_table(b, tol=1e-13)
    m = bolza_match(tt, standard_curve)
    assert m.gamma == standard_matching.gamma
    assert m.chars == standard_matching.chars


def test_genus1_table_is_rejected(lemniscatic_table, lemniscatic_curve):
    with pytest.raises(ValueError):
        bolza_match(lemniscatic_table, lemniscatic_curve)

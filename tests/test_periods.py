"""Period matrices: pinned closed forms, certification gates, Abel map."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as nleg
from numpy.polynomial import polynomial as npoly

from secondkind import (
    abel_from_infinity,
    abel_map,
    compute_periods,
    curve_from_branch_points,
    curve_from_coefficients,
    kappa_report,
    lattice_distance,
    legendre_defect,
)
from secondkind import periods
from secondkind.cli import random_curve
from secondkind.curves import CurvePoint, second_kind_numerators
from secondkind.errors import (
    DegenerateCurve,
    HomologyConstructionFailure,
    PathThroughBranchPoint,
    QuadratureNonConvergence,
    SecondKindError,
)
from secondkind.periods import a_cycle_integrals


# y^2 = 4x^3 - 4x has square symmetry: tau = i and the real half-period
# equals Gamma(1/4)^2 / (4 sqrt(2 pi)).
LEMNISCATIC_OMEGA = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(2.0 * math.pi))


def test_lemniscatic_closed_form(lemniscatic_bundle):
    b = lemniscatic_bundle
    assert abs(b.tau[0, 0] - 1j) < 1e-12
    assert abs(abs(b.omega[0, 0]) - LEMNISCATIC_OMEGA) < 1e-12
    # eta * omega = pi/4 at the square point
    assert abs(b.eta[0, 0] * b.omega[0, 0] - math.pi / 4.0) < 1e-12


def chain_intersection_matrix(g: int) -> np.ndarray:
    """Intersection matrix of (a_1..a_g, b_1..b_g) in the chain model.

    Consecutive chain loops meet once (c_k . c_{k+1} = +1, coherent
    orientation); all other pairs are disjoint.  A canonical basis must give
    [[0, I], [-I, 0]].
    """
    n = 2 * g
    basis = periods._cycle_basis(g)
    return basis @ (np.eye(n, k=1) - np.eye(n, k=-1)) @ basis.T


def test_intersection_matrix_is_symplectic_form():
    # the basis is the one compute_periods forms its period blocks with
    j = chain_intersection_matrix(2)
    expect = np.block([
        [np.zeros((2, 2)), np.eye(2)],
        [-np.eye(2), np.zeros((2, 2))],
    ])
    assert np.array_equal(j, expect)


@pytest.mark.parametrize("fixture", [
    "standard_curve", "skew_curve", "lemniscatic_curve", "generic_g1_curve",
])
def test_negating_every_chain_keeps_the_gates_bits(fixture, request, monkeypatch):
    """The search keeps chain 0 at +1: the negated pattern certifies with the same bits."""
    curve = request.getfixturevalue(fixture)
    b = compute_periods(curve)
    chains = periods.chain_integrals
    monkeypatch.setattr(periods, "chain_integrals", lambda *args: -chains(*args))
    n = compute_periods(curve)
    assert n.chain_signs == b.chain_signs and n.chain_signs[0] == 1
    for block in ("omega", "omega_prime", "eta", "eta_prime"):
        assert np.array_equal(getattr(n, block), -getattr(b, block))
    assert np.array_equal(n.tau, b.tau)
    for field in ("legendre_defect", "tau_asymmetry", "eta_prime_consistency",
                  "legendre_gate", "tau_gate", "eta_prime_gate"):
        assert getattr(n, field) == getattr(b, field), field


def _linalg_calls(monkeypatch) -> dict:
    """Record (argument, result) of each np.linalg.det and np.linalg.solve call."""
    calls = {"det": [], "solve": []}
    for name, log in calls.items():
        def recorded(a, *rest, fn=getattr(np.linalg, name), log=log):
            log.append((a, fn(a, *rest)))
            return log[-1][1]
        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def _moved_chains(monkeypatch, move):
    """Make ``periods.chain_integrals`` return move(its integrals)."""
    walk = periods.chain_integrals
    monkeypatch.setattr(periods, "chain_integrals", lambda *args: move(walk(*args)))


#: Chain 1 moved by 1e-3 of itself: no sign pattern passes.
_CHAIN_1_MOVED = np.array([1.0, 1.001, 1.0, 1.0])


def test_a_refusal_tries_half_the_sign_patterns(standard_curve, monkeypatch):
    """All 2^(2g-1) = 8 patterns of a refusal are judged in one pass: one
    |det 2 omega|, which a pattern cannot move, and one solve on a stack of
    8 systems.  Chain 1 is moved so that no pattern passes."""
    _moved_chains(monkeypatch, lambda chains: chains * _CHAIN_1_MOVED)
    calls = _linalg_calls(monkeypatch)
    with pytest.raises(HomologyConstructionFailure, match="no chain orientation"):
        compute_periods(standard_curve)
    assert [a.shape for a, _ in calls["det"]] == [(2, 2)]
    assert [a.shape for a, _ in calls["solve"]] == [(8, 2, 2)]


def test_a_genus1_curve_judges_both_sign_patterns(generic_g1_curve, monkeypatch):
    calls = _linalg_calls(monkeypatch)
    compute_periods(generic_g1_curve)
    assert [a.shape for a, _ in calls["det"]] == [(1, 1)]
    assert [a.shape for a, _ in calls["solve"]] == [(2, 1, 1)]


#: A branch point 1.05e-8 from the middle of the near-vertical segment
#: (-1j, 1e-9 + 1j), between them in neither real nor imaginary order.
ON_SEGMENT_POINTS = (-2.0, -1e-8, -1j, 1e-9 + 1j, 2.0)


def test_a_branch_point_on_a_segment_is_refused():
    curve = curve_from_branch_points([-2, -1, 0, 1e-7, 2])
    message = r"branch point 3 sits on segment \(1, 2\)"
    with pytest.raises(HomologyConstructionFailure, match=message):
        compute_periods(curve)


@pytest.mark.parametrize("scale", [1.0, 1e-7])
def test_the_segment_gate_follows_the_branch_spread(standard_curve, scale):
    """The gate is 1e-6 of the branch spread max |e_i - e_j|: the standard
    curve scaled by 1e-7 certifies (it was refused at 1e-6 of max(1,
    max |e|), with a branch point 1e-7 from a segment), and a branch point
    on a segment is refused at either scale."""
    scaled = curve_from_branch_points([scale * e for e in standard_curve.branch_points])
    assert compute_periods(scaled).chain_signs == compute_periods(standard_curve).chain_signs
    curve = curve_from_branch_points([scale * e for e in ON_SEGMENT_POINTS])
    with pytest.raises(HomologyConstructionFailure, match=r"branch point 1 sits on segment \(2, 3\)"):
        compute_periods(curve)


def test_a_scaled_curve_is_refused_by_the_determinant(standard_curve, monkeypatch):
    """|det 2 omega| = 2.63e-13 on the standard curve scaled by 3e6, which an
    absolute gate of 1e-12 refused, but relative to the product of its row
    norms it reads 0.99, and the curve certifies.  With the chain of a_2
    moved to 1 + 1e-10 times the chain of a_1, the columns of 2 omega are
    parallel to 1e-10, and the determinant refuses the curve before any
    solve."""
    scaled = curve_from_branch_points([3e6 * e for e in standard_curve.branch_points])
    assert compute_periods(scaled).chain_signs == (1, 1, 1, 1)

    def parallel(chains):
        chains = chains.copy()
        chains[:2, 2] = chains[:2, 0] * (1.0 + 1e-10)
        return chains

    _moved_chains(monkeypatch, parallel)
    calls = _linalg_calls(monkeypatch)
    with pytest.raises(HomologyConstructionFailure,
                       match=r"\|det 2 omega\| / prod of its row norms = \S+ against 1e-08$"):
        compute_periods(scaled)
    assert [a.shape for a, _ in calls["det"]] == [(2, 2)] and not calls["solve"]


@pytest.mark.parametrize("shift, scale, moved, why", [
    # the shift rule, before any quadrature: +3e5 is 7.5e4 spreads out
    (3e5, 1.0, None, r"^shift rule: the centroid of the branch points lies 7\.5e\+04 spreads "
                     r"from the origin, where forming tau loses about 6\.66e-11, above gate "
                     r"1\.00e-11$"),
    # chain 1 moved on a scaled curve: the defects read as on the standard curve
    (0.0, 1e7, _CHAIN_1_MOVED,
     r"^no chain orientation produced a certified canonical basis; closest signs "
     r"\(1, 1, 1, 1\): Legendre defect 7\.49e-04 against gate 1\.00e-11, tau asymmetry "
     r"5\.0e-04 against 1\.25e-10, min eig Im tau 0\.61$"),
], ids=["shifted", "scaled"])
def test_a_refusal_says_why(standard_curve, monkeypatch, shift, scale, moved, why):
    if moved is not None:
        _moved_chains(monkeypatch, lambda chains: chains * moved)
    curve = curve_from_branch_points([scale * e + shift for e in standard_curve.branch_points])
    with pytest.raises(HomologyConstructionFailure, match=why):
        compute_periods(curve)


@pytest.mark.parametrize("fixture", [
    "standard_bundle", "skew_bundle", "lemniscatic_bundle", "generic_g1_bundle",
])
def test_certification_gates(fixture, request):
    b = request.getfixturevalue(fixture)
    assert b.legendre_defect < 1e-11
    assert b.tau_asymmetry < 1e-12
    assert b.im_tau_min_eig > 0.0
    assert b.eta_prime_consistency < 1e-9
    assert legendre_defect(b) == pytest.approx(b.legendre_defect, abs=1e-15)


def test_kappa_is_symmetric(standard_bundle, skew_bundle):
    for b in (standard_bundle, skew_bundle):
        assert np.max(np.abs(b.kappa - b.kappa.T)) < 1e-12


def test_seeded_random_curves_certify(rng):
    for _ in range(4):
        pts = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        pts = pts * (0.6 + 1.2 * rng.random(5))
        try:
            curve = curve_from_branch_points(pts)
        except Exception:
            continue
        b = compute_periods(curve, quad_tol=1e-11)
        assert b.legendre_defect < 1e-8
        assert b.im_tau_min_eig > 0.0


def test_legendre_gate_follows_the_period_scale(standard_curve, standard_bundle):
    # a shift leaves tau and the chain orientation unchanged but multiplies
    # |eta|, and with it the Legendre roundoff (1.2e-7 at +50); an absolute
    # gate refused the standard curve from +21.5 and most random ones at +20.
    # Each entry of the relation is now judged against the size of the terms
    # that cancel in it, so the defect follows the period scale and the gate
    # is 10 quad_tol on every curve
    rng = np.random.default_rng(0)
    cases = [(standard_bundle, tuple(e + c for e in standard_curve.branch_points))
             for c in (30.0, 50.0, 1000.0)]
    for _ in range(3):
        curve = random_curve(rng)
        cases.append((compute_periods(curve), tuple(e + 20.0 for e in curve.branch_points)))
    for ref, shifted in cases:
        b = compute_periods(curve_from_branch_points(shifted))
        assert b.chain_signs == ref.chain_signs
        assert np.max(np.abs(b.tau - ref.tau)) < 1e-10
        assert b.legendre_gate == b.eta_prime_gate == 10.0 * b.quad_tol
        assert b.legendre_defect <= b.legendre_gate
        assert b.eta_prime_consistency <= b.eta_prime_gate


def _scaling_bases():
    """The standard curve, then 30 genus-2 and 10 genus-1 draws of one
    ``np.random.default_rng(17)``."""
    rng = np.random.default_rng(17)
    return ([curve_from_branch_points([-2.0, -1.0, 0.0, 1.0, 2.0])]
            + [random_curve(rng) for _ in range(30)]
            + [random_curve(rng, genus=1) for _ in range(10)])


def test_scaled_images_certify_with_their_base_tau_and_carried_kappa():
    """Every image s e, s = 1e-7, 1e-5, ..., 1e7, of the 41 bases certifies
    (132 of these 328 were refused by the gates scaled by the period
    magnitudes).  tau is invariant: it lies within 1e-14 of its base,
    relative to max(1, max |tau|) (worst 1.2e-15).  kappa carries as
    s^(2g-1) A^-T kappa_base A^-1, A = diag(1, s, .., s^(g-1)): within
    4e-14 of the carry, entry by entry (worst 4.2e-15)."""
    for curve in _scaling_bases():
        base, g = compute_periods(curve), curve.genus
        for s in 10.0 ** np.arange(-7, 8, 2):
            b = compute_periods(curve_from_branch_points([s * e for e in curve.branch_points]))
            tau_move = np.abs(b.tau - base.tau).max() / max(1.0, np.abs(base.tau).max())
            assert tau_move <= 1e-14, (curve.branch_points, s, tau_move)
            a_inv = np.diag(s ** -np.arange(g))
            carry = s ** (2 * g - 1) * a_inv @ base.kappa @ a_inv
            assert (np.abs(b.kappa - carry) / np.abs(carry)).max() <= 4e-14, (curve.branch_points, s)


def test_one_ulp_nudges_keep_the_pattern_of_a_far_curve(monkeypatch):
    """The standard curve shifted by +1000 certifies the same chain signs
    when the real and imaginary part of every chain integral is moved one
    ulp up or down at random, in each of 20 draws.  With the Legendre gate
    scaled by the period magnitudes, 14 of these 20 draws were refused:
    that curve certified only by rounding, and the chain bits were frozen."""
    curve = curve_from_branch_points([e + 1000.0 for e in (-2.0, -1.0, 0.0, 1.0, 2.0)])
    signs = compute_periods(curve).chain_signs
    rng, walk = np.random.default_rng(0), periods.chain_integrals

    def nudged(*args):
        chains = walk(*args)
        up = rng.random((2,) + chains.shape) < 0.5
        return (np.nextafter(chains.real, np.where(up[0], np.inf, -np.inf))
                + 1j * np.nextafter(chains.imag, np.where(up[1], np.inf, -np.inf)))

    monkeypatch.setattr(periods, "chain_integrals", nudged)
    for _ in range(20):
        assert compute_periods(curve).chain_signs == signs


@pytest.mark.parametrize("shift", [500.0, 1000.0, 2000.0, 3e4])
def test_shifted_images_certify_within_the_shift_loss(standard_curve, standard_bundle, shift):
    """The standard curve shifted by c certifies its base pattern, and tau
    lies within 10 eps |c| / d of its base, d = 4 the branch spread and tau
    judged relative to max(1, max |tau|): the loss of forming tau far from
    the origin (``periods.SHIFT_LOSS``; worst 4.5 eps |c| / d, at +1000).
    +3e5 is refused by the shift rule (``test_a_refusal_says_why``)."""
    b = compute_periods(curve_from_branch_points([e + shift for e in standard_curve.branch_points]))
    assert b.chain_signs == standard_bundle.chain_signs
    tau_move = np.abs(b.tau - standard_bundle.tau).max() / max(1.0, np.abs(b.tau).max())
    assert tau_move <= 10.0 * np.finfo(float).eps * shift / 4.0


def _reference_legendre_defect(omega, omega_prime, eta, eta_prime):
    """The entrywise defect of the four blocks, with J built per call: the
    largest entry of |M J M^T + (pi i / 2) J| / (|M| |J| |M|^T)."""
    g = omega.shape[0]
    m = np.block([[omega, omega_prime], [eta, eta_prime]])
    jj = np.block([[np.zeros((g, g)), -np.eye(g)], [np.eye(g), np.zeros((g, g))]]).astype(complex)
    return float(np.max(np.abs(m @ jj @ m.T + (0.5j * np.pi) * jj)
                        / (np.abs(m) @ np.abs(jj) @ np.abs(m).T)))


def _reference_pattern_search(chains, g, quad_tol):
    """compute_periods' search over the chain orientations as written before
    its sign patterns were held per genus: the patterns from
    itertools.product and their float array built per call, the gates
    reduced with np.max, the Legendre defect from the four (g, g) blocks,
    entry by entry.  Returns the cyc stack, the gates of every pattern and
    the index of the first that passes, or None."""
    patterns = [(1, *signs) for signs in itertools.product((1, -1), repeat=2 * g - 1)]
    cyc = (chains * np.array(patterns, dtype=float)[:, None, :]) @ periods._cycle_basis(g).T
    two_w, two_wp, two_e, two_ep = cyc[:, :g, :g], cyc[:, :g, g:], -cyc[:, g:, :g], -cyc[:, g:, g:]
    if abs(np.linalg.det(two_w[0])) / np.prod(np.linalg.norm(two_w[0], axis=1)) < 1e-8:
        return cyc, None, None
    tau = np.linalg.solve(two_w, two_wp)
    defect = [_reference_legendre_defect(*blocks)
              for blocks in zip(two_w / 2, two_wp / 2, two_e / 2, two_ep / 2)]
    gates = {
        "tau": 0.5 * (tau + tau.mT),
        "tau_asymmetry": np.max(np.abs(tau - tau.mT), axis=(1, 2)),
        "tau_gate": max(1e-10, 100.0 * quad_tol) * np.maximum(1.0, np.max(np.abs(tau), axis=(1, 2))),
        "legendre_defect": np.array(defect),
        "legendre_gate": np.full(len(patterns), 10.0 * quad_tol),
    }
    gates["im_tau_min_eig"] = np.linalg.eigvalsh(gates["tau"].imag)[:, 0]
    passed = ((gates["tau_asymmetry"] <= gates["tau_gate"]) & (gates["im_tau_min_eig"] > 0.0)
              & (gates["legendre_defect"] <= gates["legendre_gate"]))
    return cyc, gates, int(np.argmax(passed)) if passed.any() else None


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _branch_sets(draw):
    """2g + 1 branch points, g = 1 or 2, at least 0.1 apart in real part
    (a signed zero where it is 0): real (with signed-zero imaginary parts),
    complex, or complex with the last point moved 1e-3 to 1e-1 from the
    first."""
    g, kind = draw(st.sampled_from([1, 2])), draw(st.sampled_from(["real", "complex", "clustered"]))
    n = 2 * g + 1
    grid = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n, unique=True))
    jitter = st.floats(min_value=-0.2, max_value=0.2)
    imag = _SIGNED_ZERO if kind == "real" else st.one_of(_SIGNED_ZERO, st.floats(-2.0, 2.0))
    pts = [complex(draw(_SIGNED_ZERO) if k == 0 else k / 2 + draw(jitter), draw(imag)) for k in grid]
    if kind == "clustered":
        sep = draw(st.floats(min_value=1e-3, max_value=1e-1))
        pts[-1] = pts[0] + sep * cmath.exp(1j * draw(st.floats(min_value=0.0, max_value=6.3)))
    return pts


@settings(max_examples=80, deadline=None)
@given(_branch_sets())
def test_chain_inputs_keep_their_bits(points):
    """The coefficients and the pattern search that feed and judge the
    chains keep the bits of their earlier forms: lam of the npoly.polymul
    product, and the cyc stack and gates of ``_reference_pattern_search``.
    A change that moves a chain input fails here first."""
    try:
        curve = curve_from_branch_points(points)
    except DegenerateCurve:
        return
    coeffs = np.array([4.0], dtype=complex)
    for e in points:
        coeffs = npoly.polymul(coeffs, np.array([-complex(e), 1.0], dtype=complex))
    assert np.array(curve.lam, dtype=complex).tobytes() == coeffs[: len(points)].tobytes()

    g, seen = curve.genus, []
    patterns, signs = periods._sign_patterns(g)
    assert list(patterns) == [(1, *p) for p in itertools.product((1, -1), repeat=2 * g - 1)]
    assert signs.tobytes() == np.array(patterns, dtype=float).tobytes() and not signs.flags.writeable
    with pytest.MonkeyPatch.context() as mp:
        walk = periods.chain_integrals
        mp.setattr(periods, "chain_integrals", lambda *args: seen.append(walk(*args)) or seen[-1])
        try:
            bundle = compute_periods(curve)
        except (HomologyConstructionFailure, QuadratureNonConvergence) as exc:
            bundle = exc
    if not seen:  # refused before the chains were integrated
        return
    chains = 2.0 * seen[0]
    cyc, gates, k = _reference_pattern_search(chains, g, periods.DEFAULT_QUAD_TOL)
    assert ((chains * signs[:, None, :]) @ periods._cycle_basis(g).T).tobytes() == cyc.tobytes()
    if k is None:
        assert isinstance(bundle, HomologyConstructionFailure)
        return
    assert bundle.chain_signs == patterns[k]
    blocks = (cyc[k, :g, :g], cyc[k, :g, g:], -cyc[k, g:, :g], -cyc[k, g:, g:])
    for got, block in zip((bundle.omega, bundle.omega_prime, bundle.eta, bundle.eta_prime), blocks):
        assert got.tobytes() == (block / 2).tobytes()
    assert bundle.tau.tobytes() == gates.pop("tau")[k].tobytes()
    for name, values in gates.items():
        assert getattr(bundle, name) == values[k], name


#: Curves whose chain numerators keep their bits: genus 1 and 2, real
#: points with signed-zero imaginary parts, the standard curve shifted by
#: +1000 (which certifies only by rounding), and a clustered pair.
NUMERATOR_CURVES = {
    "lemniscatic": [-1.0, 0.0, 1.0],
    "generic_g1": [-1.3 + 0.2j, 0.5 - 0.1j, 0.9 - 0.3j],
    "standard": [-2.0, -1.0, 0.0, 1.0, 2.0],
    "signed_zero": [complex(e, -0.0) for e in (-2.0, -1.0, 0.0, 1.0, 2.0)],
    "skew": [-1.7 + 0.4j, -0.6 - 0.9j, 0.2 + 0.8j, 1.1 - 0.3j, 1.8 + 0.6j],
    "standard_1000": [998.0, 999.0, 1000.0, 1001.0, 1002.0],
    "clustered": [-1.7 + 0.4j, -0.6 - 0.9j, 0.2 + 0.8j, 1.1 - 0.3j, -1.7 + 0.4j + 2e-3 * cmath.exp(1j)],
}


@pytest.mark.parametrize("name", sorted(NUMERATOR_CURVES))
def test_chain_numerators_keep_their_bits(name, monkeypatch):
    """The rows of ``_period_numerators`` equal, byte for byte, x ** i for
    the first kind and ``npoly.polyval(x, q) / 4.0`` for each second-kind
    q, stacked: at the first-level chain nodes and at random complex and
    real x, scaled and shifted like the branch points."""
    curve = curve_from_branch_points(NUMERATOR_CURVES[name])
    g, qs = curve.genus, second_kind_numerators(curve)
    nodes, make = [], periods._period_numerators

    def recording(c):
        rows = make(c)
        return lambda x: nodes.append(x.copy()) or rows(x)

    monkeypatch.setattr(periods, "_period_numerators", recording)
    compute_periods(curve)
    rng = np.random.default_rng(7)
    e = np.array(curve.branch_points)
    center, radius = e.mean(), np.abs(e - e.mean()).max()
    real = (center.real + radius * rng.normal(size=40)).astype(complex)
    real.imag = np.tile([0.0, -0.0], 20)
    xs = [nodes[0], center + radius * (rng.normal(size=40) + 1j * rng.normal(size=40)), real]
    rows = make(curve)
    for x in xs:
        want = np.vstack([x ** i for i in range(g)] + [npoly.polyval(x, q) / 4.0 for q in qs])
        assert rows(x).tobytes() == want.tobytes()


def test_legendre_defect_equals_the_block_form(standard_bundle, skew_bundle, lemniscatic_bundle,
                                               generic_g1_bundle):
    """The defect judged on the cycle form [[2 omega, 2 omega'], [-2 eta,
    -2 eta']] has the bits of the block form, on certified and on nudged
    blocks."""
    rng = np.random.default_rng(5)
    for b in (standard_bundle, skew_bundle, lemniscatic_bundle, generic_g1_bundle):
        blocks = [b.omega, b.omega_prime, b.eta, b.eta_prime]
        assert legendre_defect(b) == _reference_legendre_defect(*blocks)
        w, wp, e, ep = nudged = [x + 1e-3 * rng.normal(size=x.shape) for x in blocks]
        defect = periods._block_legendre_defect(2.0 * np.block([[w, wp], [-e, -ep]]))
        assert defect > 1e-4 and defect == _reference_legendre_defect(*nudged)
    assert not periods._symplectic_j(2)[0].flags.writeable


def test_a_cycle_recovers_first_kind_columns(standard_curve, standard_bundle):
    def monomials(x):
        x = np.asarray(x)
        return np.vstack([np.ones_like(x), x])

    cols = a_cycle_integrals(standard_bundle, monomials)
    assert cols.shape == (2, 2)
    assert np.max(np.abs(cols - standard_bundle.two_omega)) < 1e-9


def test_branch_point_images_are_half_periods(standard_curve, standard_bundle):
    tau = standard_bundle.tau
    for e in standard_curve.branch_points:
        v = abel_from_infinity(standard_curve, standard_bundle,
                               standard_curve.lift(e, 1))
        assert lattice_distance(2.0 * v, tau) < 1e-8


def test_abel_round_trip_lands_on_lattice(standard_curve, standard_bundle):
    p = standard_curve.lift(0.37 + 0.21j, 1)
    q = standard_curve.lift(-1.42 + 0.55j, -1)
    fwd = abel_map(standard_curve, standard_bundle, p, q)
    bck = abel_map(standard_curve, standard_bundle, q, p)
    assert lattice_distance(fwd + bck, standard_bundle.tau) < 1e-9


def test_hyperelliptic_involution_negates_abel(standard_curve, standard_bundle):
    x0 = 0.83 + 0.64j
    up = standard_curve.lift(x0, 1)
    dn = standard_curve.lift(x0, -1)
    a1 = abel_from_infinity(standard_curve, standard_bundle, up)
    a2 = abel_from_infinity(standard_curve, standard_bundle, dn)
    assert lattice_distance(a1 + a2, standard_bundle.tau) < 1e-8


def test_abel_tolerance_consistency(generic_g1_curve):
    p = generic_g1_curve.lift(1.9 - 0.8j, 1)
    loose, tight = (compute_periods(generic_g1_curve, quad_tol=tol) for tol in (1e-9, 1e-13))
    diff = abel_from_infinity(generic_g1_curve, loose, p) - abel_from_infinity(generic_g1_curve, tight, p)
    assert lattice_distance(diff, tight.tau) < 1e-8


def test_abel_map_from_a_branch_point(standard_curve, standard_bundle):
    """A(e -> q) = A(oo -> q) - A(oo -> e) modulo the lattice (at most 1.8e-15
    over these 300 maps)."""
    rng = np.random.default_rng(0)
    cases = [(standard_curve, standard_bundle)]
    for _ in range(9):
        curve = random_curve(rng)
        cases.append((curve, compute_periods(curve)))
    for curve, b in cases:
        for e in curve.branch_points:
            from_inf = abel_from_infinity(curve, b, CurvePoint(e, 0.0))
            for x in (0.7 - 1.1j, -1.3 + 0.4j, 2.1 + 0.9j):
                for sheet in (1, -1):
                    q = curve.lift(x, sheet)
                    got = abel_map(curve, b, CurvePoint(e, 0.0), q)
                    want = abel_from_infinity(curve, b, q) - from_inf
                    assert lattice_distance(got - want, b.tau) < 1e-12, (e, x, sheet)


def test_abel_map_refuses_a_path_it_cannot_regularise(standard_curve, standard_bundle):
    """Both endpoints on branch points."""
    curve, b = standard_curve, standard_bundle
    e = curve.branch_points
    with pytest.raises(PathThroughBranchPoint, match="^both endpoints on branch points"):
        abel_map(curve, b, CurvePoint(e[0], 0.0), CurvePoint(e[3], 0.0))


@pytest.mark.parametrize("d", [1e-12, 5e-14, 1e-15])
def test_maps_from_a_hair_beside_a_branch_point(standard_curve, standard_bundle, d):
    """A point P at x = e + delta, |delta| about d, is no branch point, and
    its maps into e and from infinity certify: the s^2 leg runs the whole
    hair.  A(oo -> P) is h_e - A(P -> e), and A(P -> e) is
    -(2 omega)^-1 (2 delta / y_P) (1, e) to first order in delta (x - e =
    delta s^2 and y = y_P s on the leg), so |A(P -> e)| / sqrt(|delta|)
    stays fixed as the hair shrinks (0.38 on the second row at e = 1)."""
    curve, b = standard_curve, standard_bundle
    for k in (0, 3):
        e = curve.branch_points[k]
        half = abel_from_infinity(curve, b, CurvePoint(e, 0j))
        for sheet in (1, -1):
            p = curve.lift(e + d * np.exp(0.7j), sheet)
            delta = p.x - e
            into = abel_map(curve, b, p, CurvePoint(e, 0j))
            want = b.inv_two_omega @ (-2.0 * delta / p.y * np.array([1.0, e]))
            assert np.max(np.abs(into - want)) <= 1e-11 * np.max(np.abs(want)), (k, sheet)
            assert lattice_distance(abel_from_infinity(curve, b, p) - (half - into), b.tau) < 1e-14


def test_lattice_distance_basics():
    tau = np.array([[0.5 + 1.25j, 0.1 + 0.3j], [0.1 + 0.3j, -0.2 + 0.9j]])
    m = np.array([2.0, -1.0])
    n = np.array([1.0, 3.0])
    v = m + tau @ n
    assert lattice_distance(v, tau) < 1e-12
    assert lattice_distance(v + 0.5 * tau[:, 0], tau) == pytest.approx(0.5, abs=1e-12)


def test_quad_tol_range_is_validated(standard_curve):
    with pytest.raises(ValueError):
        compute_periods(standard_curve, quad_tol=1e-2)


def test_degree_gate():
    pts = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    curve = curve_from_branch_points(pts)
    with pytest.raises(ValueError):
        compute_periods(curve)


def test_half_matrices_are_halves(standard_bundle):
    assert np.allclose(standard_bundle.two_omega, 2.0 * standard_bundle.omega)
    assert np.allclose(
        standard_bundle.inv_two_omega @ standard_bundle.two_omega, np.eye(2),
        atol=1e-13,
    )


def test_inverse_of_two_omega_is_held_once(standard_curve, standard_bundle, standard_table,
                                           standard_matching, monkeypatch):
    b = standard_bundle
    assert np.array_equal(b.inv_two_omega, np.linalg.inv(b.two_omega))
    assert np.array_equal(np.column_stack(b.winding), b.inv_two_omega)
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
    abel_map(standard_curve, b, standard_curve.lift(0.5 + 1.0j), standard_curve.lift(2.6 + 0.3j))
    kappa_report(standard_curve, b, standard_table, standard_matching)
    assert calls == []


def test_genus1_coefficient_pipeline():
    curve = curve_from_coefficients([0.0, -4.0, 0.0])
    b = compute_periods(curve)
    assert abs(b.tau[0, 0] - 1j) < 1e-12


# ------------------------------------ the segment cut rule, by reference

def _reference_integrand(points, a_idx, b_idx, numerators_fn):
    """The segment integrand with the rule the chain integrals used before
    they continued their factors through paths.CutCrossings: factor k crosses the
    cut at u* = -Im c0 / Im h when |u*| < 1 and Re(c0 + h u*) < 0, and its
    root is negated for u > u*.  Returns the integrand and the number of
    crossed factors."""
    ea, eb = points[a_idx], points[b_idx]
    m, h = 0.5 * (ea + eb), 0.5 * (eb - ea)
    data = []
    for k, e in enumerate(points):
        if k in (a_idx, b_idx):
            continue
        c0 = m - e
        ustar, crossing = 0.0, False
        if h.imag != 0.0:
            ustar = -c0.imag / h.imag
            if abs(ustar) < 1.0 and (c0 + h * ustar).real < 0.0:
                crossing = True
        data.append((c0, ustar, crossing))

    def s_product(u):
        acc = np.ones(u.shape, dtype=complex)
        for c0, ustar, crossing in data:
            vals = np.sqrt(c0 + h * u)
            if crossing:
                vals = vals * np.where(u > ustar, -1.0, 1.0)
            acc = acc * vals
        return acc

    def f(theta):
        u = np.cos(theta)
        x = m + h * u
        return np.asarray(numerators_fn(x)) * (-0.5j / s_product(u))

    return f, sum(crossing for _, _, crossing in data)


def _reference_chain_integrand(points, segments, numerators_fn):
    """The reference rule on every segment, at nodes theta + 1j k as the
    chain walk passes them, k the index of the segment."""
    refs = [_reference_integrand(points, a_idx, b_idx, numerators_fn)[0]
            for a_idx, b_idx in segments]

    def f(nodes):
        k = nodes.imag.astype(int)
        parts = [(k == j, ref(nodes.real[k == j])) for j, ref in enumerate(refs)]
        out = np.empty((len(parts[0][1]), len(nodes)), dtype=complex)
        for on, vals in parts:
            out[:, on] = vals
        return out

    return f


def _monomials(x):
    return np.vstack([np.ones_like(x), x, x * x])


THETA_NODES = 0.5 * np.pi * (1.0 + nleg.leggauss(32)[0])


def _integrand(points, a_idx, b_idx):
    """The chain walk's integrand of the segment (e_a, e_b), at real theta
    (the nodes theta + 0j of its only interval)."""
    f = periods._chain_integrand(points, [(a_idx, b_idx)], _monomials)
    return lambda theta: f(theta + 0j)


def test_segment_integrand_matches_the_reference_rule():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(240):
        pts = tuple(complex(z) for z in rng.normal(size=5) + 1j * rng.normal(size=5))
        a_idx, b_idx = (int(k) for k in rng.choice(5, size=2, replace=False))
        cases.append((pts, a_idx, b_idx))
    # real axis and horizontal segments: no factor meets a cut
    for pts in [(-2.0, -1.0, 0.0, 1.0, 2.0), (-2.0, -1.3, 0.4, 0.9, 1.7),
                (-1.0 + 0.5j, 1.0 + 0.5j, -0.3 - 0.2j, 0.2 + 1.1j, 0.7)]:
        pts = tuple(complex(z) for z in pts)
        cases.extend((pts, k, k + 1) for k in range(4))
    crossed = 0
    for pts, a_idx, b_idx in cases:
        ref, n_crossed = _reference_integrand(pts, a_idx, b_idx, _monomials)
        crossed += n_crossed > 0
        f = _integrand(pts, a_idx, b_idx)
        sub = 0.3 + 0.2 * THETA_NODES / np.pi
        for theta in (THETA_NODES, sub):
            assert np.array_equal(f(theta), ref(theta)), (pts, a_idx, b_idx)
    assert crossed >= 50


def _level_cases():
    """Segments with a branch point level with an endpoint: the factor
    starts or ends exactly on the real axis of its w-plane."""
    rng = np.random.default_rng(99)
    for _ in range(80):
        ea, eb = (complex(int(rng.integers(-4, 5)), int(rng.integers(-4, 5))) / 2 for _ in "ab")
        if ea == eb or ea.imag == eb.imag:
            continue
        end = ea if rng.uniform() < 0.5 else eb
        level = end + int(rng.choice([-3, -2, -1, 1, 2, 3])) / 2
        others = [complex(z) for z in rng.normal(size=2) + 1j * rng.normal(size=2)]
        pts = (ea, eb, level, *others)
        if len(set(pts)) == 5:
            yield pts


def test_level_segments_differ_from_the_reference_by_one_sign():
    # a factor that starts on the cut is continued from its upper side, as
    # numpy's root has it there, so leaving the cut downward it is minus the
    # reference's principal root on the whole open segment
    flipped = 0
    for pts in _level_cases():
        ref, _ = _reference_integrand(pts, 0, 1, _monomials)
        f = _integrand(pts, 0, 1)
        m, h = 0.5 * (pts[0] + pts[1]), 0.5 * (pts[1] - pts[0])
        w0 = m - np.array(pts[2:]) - h
        starts_on_cut = (w0.imag == 0) & (w0.real < 0) & (h.imag < 0)
        sign = (-1) ** int(starts_on_cut.sum())
        flipped += sign < 0
        assert np.array_equal(f(THETA_NODES), sign * ref(THETA_NODES)), pts
    assert flipped >= 5


def test_level_curve_periods_against_the_reference_rule(monkeypatch):
    # branch points -1+2i and 2+2i are level: the chain from -1+2i leaves
    # the cut of the factor x - (2+2i) downward
    curve = curve_from_branch_points([-1 + 2j, 3 - 2j, -2j, 1 + 1j, 2 + 2j])
    b = compute_periods(curve)
    monkeypatch.setattr(periods, "_chain_integrand", _reference_chain_integrand)
    ref = compute_periods(curve)
    assert np.array_equal(b.tau, ref.tau)
    assert np.array_equal(b.kappa, ref.kappa)
    # the certified basis is (-a, -b) of the reference's
    for name in ("omega", "omega_prime", "eta", "eta_prime"):
        assert np.array_equal(getattr(b, name), -getattr(ref, name)), name
    assert b.chain_signs == (1, -1, 1, 1)
    assert ref.chain_signs == (1, 1, -1, -1)


# ------------------------------------------- points given to the Abel map

@pytest.mark.parametrize("scale", [1.0, 1000.0])
def test_lifted_points_are_on_the_curve(scale):
    # the point check is relative to the size of y^2's terms at x, so the
    # lifts of a wide curve are accepted near the origin
    curve = curve_from_branch_points([scale * e for e in (-200, -100, 70, 100, 200)])
    b = compute_periods(curve)
    lifts = [curve.lift(complex(re, im)) for re in range(-3, 4) for im in (0.4, -0.9)]
    for p in lifts[1:]:
        assert np.all(np.isfinite(abel_map(curve, b, lifts[0], p)))


@pytest.mark.parametrize("scale", [1.0, 1000.0])
def test_points_off_the_curve_are_rejected(scale, standard_curve):
    curve = curve_from_branch_points([scale * e for e in standard_curve.branch_points])
    b = compute_periods(curve)
    p = curve.lift(scale * (0.37 + 0.21j))
    off = CurvePoint(scale * (-1.42 + 0.55j), curve.lift(scale * (-1.42 + 0.55j)).y * (1 + 1e-6))
    with pytest.raises(ValueError, match="not on the curve"):
        abel_map(curve, b, p, off)
    with pytest.raises(ValueError, match="not on the curve"):
        abel_map(curve, b, off, p)


def test_point_check_keeps_its_decisions_at_the_threshold():
    """The check refuses exactly the points that its numpy formulation,
    kept here, refuses: y moved so that the defect of y^2 sits from 0.98 to
    1.02 times the threshold 1e-9 of the size of its terms."""
    rng = np.random.default_rng(5)
    decisions = []
    for _ in range(12):
        curve = random_curve(rng)
        for x in 1.5 * rng.standard_normal(4) + 1.5j * rng.standard_normal(4):
            y = curve.lift(x).y
            e = np.array(curve.branch_points)
            size = 4.0 * np.prod(abs(x - e) + abs(e[:, None] - e).max())
            for r in np.linspace(0.98, 1.02, 9):
                p = CurvePoint(complex(x), y * (1 + r * 1e-9 * size / (2 * abs(y) ** 2)))
                refuse = abs(p.y ** 2 - curve.y_squared(p.x)) > 1e-9 * size
                try:
                    periods._branch_index(curve, p, periods._abel_routes(curve).spread)
                except ValueError:
                    decisions.append((refuse, True))
                else:
                    decisions.append((refuse, False))
    assert all(want == got for want, got in decisions)
    assert {want for want, _ in decisions} == {True, False}


def test_a_point_near_a_branch_point_is_not_taken_for_it(standard_curve, standard_bundle,
                                                          monkeypatch):
    """The branch-point test of abel_map judges |y|^2 against the scale of
    y^2 at x.  A length gate on |y| took lift(1.001e-3) on the standard
    curve scaled by 1e-3 (|y| = 4.9e-9) for the branch point 1e-3, and a
    gate against 4 prod (|x| + |e_k|) took e + 2e-12 on the standard curve
    shifted by 48 for e; both returned the map into the branch point, off by
    1e-2 and 4e-7 modulo the lattice.  The Abel map is invariant under
    scaling and translating the curve, so each point must give the map on
    the standard curve or a refusal.  That map is taken through the nearest
    branch point e, whose regularised legs converge where a direct path to
    e + 2e-12 cannot.  CurvePoint(e, 0) and lift(e) still take the
    regularised leg."""
    std, start = standard_curve, 0.5 + 1.0j

    def through_branch_point(x):
        e = CurvePoint(min(std.branch_points, key=lambda e: abs(x - e)), 0j)
        return (abel_map(std, standard_bundle, std.lift(start), e)
                + abel_map(std, standard_bundle, e, std.lift(x)))

    cases = [(lambda z: 1e-3 * z, (1.001, 1.003, 1.03, 1.3)),
             (lambda z: z + 48.0, [e + d for e in std.branch_points for d in (2e-12, 1e-3)])]
    moved = []
    for move, xs in cases:
        curve = curve_from_branch_points([move(e) for e in std.branch_points])
        b = compute_periods(curve)
        moved.append((curve, b, move))
        for x in xs:
            want = through_branch_point(x)
            try:
                got = abel_map(curve, b, curve.lift(move(start)), curve.lift(move(x)))
            except SecondKindError:
                continue
            assert lattice_distance(got - want, standard_bundle.tau) < 1e-12, x
    legs, into = [], periods.integrate_rows_to_branch_point
    monkeypatch.setattr(periods, "integrate_rows_to_branch_point",
                        lambda *args: legs.append(args[1]) or into(*args))
    for curve, b, move in moved:
        for k, e in enumerate(curve.branch_points):
            for to in (CurvePoint(e, 0j), curve.lift(e)):
                abel_map(curve, b, curve.lift(move(start)), to)
                assert legs.pop() == k and not legs


#: Points P of the maps A(oo -> P) on the shifted standard curves.
FINITE_TARGETS = (0.5 + 1.0j, -1.5 + 0.5j, 2.6 + 0.3j)


@pytest.mark.parametrize("shift", [10.0, 20.0, 48.0, 100.0, 300.0, 1000.0])
def test_maps_from_infinity_on_a_shifted_curve(standard_curve, standard_bundle, shift):
    """A(oo -> e_k) for every k and A(oo -> P) on both sheets on the
    standard curve shifted by s equal the maps on the standard curve modulo
    the lattice, within 1e-14 + 1e-15 s (worst 1.2e-13, at +1000).  Each
    map starts at the half-period of the branch point nearest its target,
    so its legs stay among the branch points however far the curve is
    shifted."""
    curve = curve_from_branch_points([e + shift for e in standard_curve.branch_points])
    bundle = compute_periods(curve)
    bound = 1e-14 + 1e-15 * shift
    pairs = [(CurvePoint(e + shift, 0j), CurvePoint(e, 0j)) for e in standard_curve.branch_points]
    pairs += [(curve.lift(x + shift, sheet), standard_curve.lift(x, sheet))
              for x in FINITE_TARGETS for sheet in (1, -1)]
    for moved, still in pairs:
        got = abel_from_infinity(curve, bundle, moved)
        want = abel_from_infinity(standard_curve, standard_bundle, still)
        assert lattice_distance(got - want, standard_bundle.tau) <= bound, (shift, still.x)


def test_near_branch_maps_on_a_scaled_curve(standard_curve, standard_bundle):
    """On the standard curve scaled by 1e-3 the routes via the far point
    are about 1 long, against branch points 1e-3 apart.  The maps from
    0.5 + 1i to points 1e-2 and 1e-4 from each branch point (scaled) equal
    the maps on the standard curve modulo the lattice within 1e-13 (worst
    1.0e-14); 6 of these 10 were refused when legs were bisected
    adaptively.  At 1e-6 from a branch point the leg's end needs more than
    ``_MAX_DEPTH`` halvings: there a map is right or refused by name."""
    s, start = 1e-3, 0.5 + 1.0j
    curve = curve_from_branch_points([s * e for e in standard_curve.branch_points])
    bundle = compute_periods(curve)
    refused = 0
    for e in standard_curve.branch_points:
        for r in (1e-2, 1e-4, 1e-6):
            x = e + r * np.exp(0.7j)
            want = abel_map(standard_curve, standard_bundle, standard_curve.lift(start),
                            standard_curve.lift(x))
            try:
                got = abel_map(curve, bundle, curve.lift(s * start), curve.lift(s * x))
            except QuadratureNonConvergence as err:
                assert r == 1e-6 and "after 26 halvings" in str(err), (x, str(err))
                refused += 1
                continue
            assert lattice_distance(got - want, standard_bundle.tau) <= 1e-13, x
    assert refused <= 3

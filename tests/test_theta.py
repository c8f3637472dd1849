"""Theta oracle suite: brute-force sums, mpmath cross-check, derivative FD.

Every oracle here goes through routes the library does not use internally:
a literal double lattice sum, mpmath's jtheta, and numerical
differentiation of plain theta values.
"""

import itertools
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagnostics import char_add
import secondkind.theta as theta_mod
from secondkind import char, theta_eval, theta_table
from secondkind.errors import NotSiegelPoint
from secondkind.theta import all_characteristics, half_period, theta_jet

BRUTE_RADIUS = 12


def brute_theta(z, tau, eps, eps_prime, radius=BRUTE_RADIUS):
    """Literal lattice sum, no recentring, no vectorization tricks."""
    g = len(eps)
    z = np.asarray(z, dtype=complex)
    total = 0.0 + 0.0j
    ranges = [range(-radius, radius + 1)] * g
    import itertools

    for n in itertools.product(*ranges):
        m = np.array(n, dtype=float) + np.asarray(eps, dtype=float)
        phase = 1j * math.pi * (m @ np.asarray(tau) @ m) + 2j * math.pi * (
            m @ (z + np.asarray(eps_prime))
        )
        total += np.exp(phase)
    return total


def brute_theta_derivatives(tau, eps, eps_prime, radius=BRUTE_RADIUS):
    """theta[eps; eps'](0; tau) and its z-derivatives of order 1..3, literally summed."""
    g = len(eps)
    tau = np.asarray(tau)
    value, grad = 0.0 + 0.0j, np.zeros(g, dtype=complex)
    hess, third = np.zeros((g, g), dtype=complex), np.zeros((g, g, g), dtype=complex)
    import itertools

    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        m = np.array(n, dtype=float) + np.asarray(eps, dtype=float)
        term = np.exp(1j * math.pi * (m @ tau @ m)
                      + 2j * math.pi * (m @ np.asarray(eps_prime, dtype=float)))
        f = 2j * math.pi * m
        value += term
        grad += term * f
        hess += term * np.multiply.outer(f, f)
        third += term * np.multiply.outer(np.multiply.outer(f, f), f)
    return value, grad, hess, third


# ---------------------------------------------------------------- genus 1


def test_genus1_matches_mpmath(lemniscatic_bundle):
    # our theta[a;b](z; tau) against jtheta with q = exp(i pi tau):
    #   [1;1] -> -theta_1(pi z), [1;0] -> theta_2, [0;0] -> theta_3, [0;1] -> theta_4
    tau = complex(lemniscatic_bundle.tau[0, 0])
    q = mpmath.exp(1j * mpmath.pi * tau)
    pairing = {
        (1, 1): (1, -1.0),
        (1, 0): (2, 1.0),
        (0, 0): (3, 1.0),
        (0, 1): (4, 1.0),
    }
    for z in (0.0, 0.31 + 0.12j, -0.4 + 0.05j):
        for (a, b), (n, sgn) in pairing.items():
            ours = theta_eval(np.array([z]), lemniscatic_bundle.tau, char((a,), (b,)))
            ref = sgn * mpmath.jtheta(n, mpmath.pi * z, q)
            assert abs(ours - complex(ref)) < 1e-13 * max(1.0, abs(complex(ref)))


def test_genus1_derivatives_match_mpmath(lemniscatic_bundle):
    # z-derivatives pick up a factor pi per order under z -> pi z
    tau = complex(lemniscatic_bundle.tau[0, 0])
    q = mpmath.exp(1j * mpmath.pi * tau)
    odd = char((1,), (1,))
    z = 0.2 - 0.07j
    for k in (1, 2, 3):
        ours = theta_jet(np.array([z]), lemniscatic_bundle.tau, odd)[k][(0,) * k]
        ref = -(mpmath.pi**k) * mpmath.jtheta(1, mpmath.pi * z, q, derivative=k)
        assert abs(ours - complex(ref)) < 1e-11 * max(1.0, abs(complex(ref)))


# ---------------------------------------------------------------- genus 2


def test_brute_force_lattice_sum(standard_table):
    tau = standard_table.tau
    zs = [np.array([0.0, 0.0]), np.array([0.13 - 0.02j, -0.21 + 0.09j])]
    for ch in all_characteristics(2):
        for z in zs:
            ours = theta_eval(z, tau, ch, tol=1e-15)
            ref = brute_theta(z, tau, ch.eps, ch.eps_prime)
            assert abs(ours - ref) < 1e-14 * max(1.0, abs(ref)), ch.label()


def test_table_values_match_brute_force(skew_table, generic_g1_table):
    # every derivative order of every characteristic: this pins the eps'
    # phases that the table applies to one sum per lattice
    for tt in (skew_table, generic_g1_table):
        assert tt.characteristics == all_characteristics(tt.genus)
        for ch in tt.characteristics:
            ent = tt.entry(ch)
            refs = brute_theta_derivatives(tt.tau, ch.eps, ch.eps_prime)
            for name, got, ref in zip(("value", "grad", "hess", "third"),
                                      (ent.value, ent.grad, ent.hess, ent.third), refs):
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(got - ref)) < 1e-13 * scale, (ch.label(), name)


# -------------------------------------------------- derivative oracles (FD)


def _dirk(f, v, k, r=0.35, n=32):
    """k-th derivative of t -> f(t v) at t = 0 from values on a circle."""
    js = np.arange(n)
    w = np.exp(2j * np.pi * js / n)
    vals = np.array([f(r * wj * np.asarray(v, dtype=complex)) for wj in w])
    return math.factorial(k) * np.sum(vals * w ** (-k)) / (n * r**k)


def _fd_gradient(f, g, h=0.01):
    # 6th-order central differences, one axis at a time
    weights = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    out = np.zeros(g, dtype=complex)
    for i in range(g):
        e = np.zeros(g)
        e[i] = 1.0
        vals = np.array([f(s * h * e) for s in range(-3, 4)])
        out[i] = np.dot(weights, vals) / h
    return out


def test_gradient_against_central_differences(standard_table):
    tau = standard_table.tau
    for ch in standard_table.odd:
        ent = standard_table.entry(ch)

        def f(z, _ch=ch):
            return theta_eval(z, tau, _ch, tol=1e-15)

        fd = _fd_gradient(f, 2)
        scale = max(1.0, float(np.max(np.abs(ent.grad))))
        assert np.max(np.abs(fd - ent.grad)) < 1e-8 * scale


def test_hessian_against_directional_values(skew_table):
    # D_v^2 theta = v^T H v for v in a frame of three directions
    tau = skew_table.tau
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    for ch in list(skew_table.even)[:4]:
        ent = skew_table.entry(ch)
        hess = ent.hess

        def f(z, _ch=ch):
            return theta_eval(z, tau, _ch, tol=1e-15)

        scale = max(1.0, float(np.max(np.abs(hess))))
        for v in dirs:
            got = _dirk(f, v, 2)
            want = v @ hess @ v
            assert abs(got - want) < 1e-8 * scale


def test_third_tensor_against_directional_values(standard_table):
    # four directional cubics determine the four independent components
    tau = standard_table.tau
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    for ch in standard_table.odd:
        ent = standard_table.entry(ch)
        third = ent.third

        def f(z, _ch=ch):
            return theta_eval(z, tau, _ch, tol=1e-15)

        scale = max(1.0, float(np.max(np.abs(third))))
        for v in dirs:
            got = _dirk(f, v, 3)
            want = np.einsum("ijk,i,j,k", third, v, v, v)
            assert abs(got - want) < 1e-8 * scale


def test_directional_table_is_winding_contraction(standard_bundle, standard_table):
    u, v = standard_bundle.winding
    dgrad, dhess, dthird = standard_table.directional
    for ch in all_characteristics(2):
        ent = standard_table.entry(ch)
        grad, hess, third = ent.grad, ent.hess, ent.third
        assert abs(dgrad[ch.code, 0] - u @ grad) < 1e-12
        assert abs(dhess[ch.code, 0, 1] - u @ hess @ v) < 1e-12
        want = np.einsum("ijk,i,j,k", third, v, v, v)
        assert abs(dthird[ch.code, 1, 1, 1] - want) < 1e-12


# ------------------------------------------------------- structural checks


def test_parity_counts():
    chars = all_characteristics(2)
    assert len(chars) == 16
    assert sum(1 for c in chars if c.is_odd) == 6


def test_odd_values_vanish_even_gradients_vanish(standard_table, skew_table):
    # odd characteristics give odd functions, so their even-order derivatives
    # vanish at z = 0; even ones give even functions, with vanishing odd orders
    for tt in (standard_table, skew_table):
        mx = np.max(np.abs(tt.values))
        for ch in tt.odd:
            ent = tt.entry(ch)
            assert abs(ent.value) < 1e-13 * mx
            assert np.max(np.abs(ent.hess)) < 1e-12 * max(mx, np.max(np.abs(ent.third)))
        for ch in tt.even:
            ent = tt.entry(ch)
            assert np.max(np.abs(ent.grad)) < 1e-12 * mx
            assert np.max(np.abs(ent.third)) < 1e-12 * max(mx, np.max(np.abs(ent.hess)))


def test_parity_under_negation(skew_table):
    tau = skew_table.tau
    z = np.array([0.17 + 0.03j, -0.08 + 0.11j])
    for ch in all_characteristics(2):
        a = theta_eval(z, tau, ch)
        b = theta_eval(-z, tau, ch)
        sgn = -1.0 if ch.is_odd else 1.0
        assert abs(a - sgn * b) < 1e-12


def test_quasi_periodicity(standard_table):
    tau = standard_table.tau
    ch = char((1, 0), (1, 1))
    z = np.array([0.11 + 0.21j, -0.06 + 0.04j])
    base = theta_eval(z, tau, ch)

    m = np.array([1.0, -2.0])
    got = theta_eval(z + m, tau, ch)
    want = np.exp(2j * np.pi * ch.eps @ m) * base
    assert abs(got - want) < 1e-12

    q = np.array([1.0, 1.0])
    got = theta_eval(z + tau @ q, tau, ch)
    factor = np.exp(-1j * np.pi * q @ tau @ q - 2j * np.pi * q @ (z + ch.eps_prime))
    assert abs(got - factor * base) < 1e-11 * max(1.0, abs(factor * base))


def test_truncation_radius_honest(standard_bundle):
    # a loose tolerance must still deliver its promised accuracy
    loose = theta_table(standard_bundle, tol=1e-6)
    tight = theta_table(standard_bundle, tol=1e-15)
    assert np.max(np.abs(loose.values - tight.values)) < 1e-6


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_outside_the_open_range_is_refused(standard_bundle, tol):
    with pytest.raises(ValueError, match="tolerance"):
        theta_table(standard_bundle, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        theta_eval(np.zeros(2), standard_bundle.tau, char((0, 0), (0, 0)), tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        theta_jet(np.zeros(2), standard_bundle.tau, char((0, 0), (0, 0)), tol=tol)


def test_half_period_definition(standard_table):
    tau = standard_table.tau
    ch = char((1, 1), (0, 1))
    want = tau @ np.array([0.5, 0.5]) + np.array([0.0, 0.5])
    np.testing.assert_allclose(half_period(ch, tau), want, atol=1e-15)


def test_char_xor_addition():
    a = char((1, 0), (1, 1))
    b = char((0, 1), (1, 0))
    c = char_add(a, b)
    assert c.top == (1, 1) and c.bottom == (0, 1)
    assert char_add(a, a).top == (0, 0)
    chars = all_characteristics(2)
    for x in chars:
        for y in chars:
            s = char_add(x, y)
            assert s.top == tuple(u ^ v for u, v in zip(x.top, y.top))
            assert s.bottom == tuple(u ^ v for u, v in zip(x.bottom, y.bottom))
            assert s is chars[s.code]


@pytest.mark.parametrize("g", [1, 2])
def test_characteristic_code_is_its_index(g):
    chars = all_characteristics(g)
    assert [ch.code for ch in chars] == list(range(4 ** g))
    assert char((1,) * g, (0,) * g).code == 2 ** (2 * g) - 2 ** g


@pytest.mark.parametrize("prefix, genus", [("standard", 2), ("generic_g1", 1)])
def test_table_sums_each_lattice_once(prefix, genus, request, monkeypatch):
    # one nested box is held per genus, its points ordered by shell; the box
    # of any radius is a read-only prefix view of it, and it is rebuilt only
    # when a larger radius is asked for
    bundle = request.getfixturevalue(f"{prefix}_bundle")
    monkeypatch.setattr(theta_mod, "_LATTICES", {})
    builds, monomials = [], theta_mod._monomials
    monkeypatch.setattr(theta_mod, "_monomials", lambda q: builds.append(q.shape) or monomials(q))
    first = theta_table(bundle)
    radius = first.radius
    assert len(builds) == 1 and list(theta_mod._LATTICES) == [genus]
    held = theta_mod._LATTICES[genus]
    assert held[0] == radius
    theta_table(bundle)
    for smaller in (radius, radius - 2, 0):
        mono, phase, scale = theta_mod._lattice(genus, smaller)
        size = (2 * smaller + 1) ** genus
        assert mono.shape[1] == phase.shape[-1] == size
        for arr, whole in zip((mono, phase, scale), held[1:]):
            assert np.shares_memory(arr, whole) and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        # the prefix holds exactly the points n + eps with |n_k| <= smaller
        bits = np.array(list(itertools.product((0, 1), repeat=genus))) / 2.0
        n = np.rint(mono[:, :, 1 : 1 + genus] - bits[:, None, :])
        assert np.abs(n).max() <= smaller and len(np.unique(n[0], axis=0)) == size
    assert len(builds) == 1
    theta_mod._lattice(genus, radius + 3)
    assert len(builds) == 2 and theta_mod._LATTICES[genus][0] == radius + 3
    theta_mod._lattice(3 - genus, 1)
    assert sorted(theta_mod._LATTICES) == [1, 2] and len(builds) == 3
    after = theta_table(bundle)
    assert len(builds) == 3 and after.radius == radius
    for a, b in zip(_table_arrays(first), _table_arrays(after)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("genus", [1, 2])
def test_a_box_above_the_hold_limit_is_not_held(genus, monkeypatch):
    """A table whose box exceeds LATTICE_HOLD_BYTES builds it for itself:
    the held box stays within the limit, and the table has the bits it has
    when its box is a prefix of a larger held one."""
    tau = np.array([[0.1 + 0.3j, 0.05], [0.05, -0.2 + 0.4j]])[:genus, :genus]
    bundle = SimpleNamespace(tau=tau, inv_two_omega=np.eye(genus)[::-1] + 0.5)
    monkeypatch.setattr(theta_mod, "_LATTICES", {})
    radius = theta_table(bundle, tol=1e-15).radius
    theta_mod._lattice(genus, radius + 4)
    want = theta_table(bundle, tol=1e-15)
    assert theta_mod._LATTICES[genus][0] == radius + 4
    small = theta_mod._box_bytes(genus, radius - 3)
    monkeypatch.setattr(theta_mod, "_LATTICES", {})
    monkeypatch.setattr(theta_mod, "LATTICE_HOLD_BYTES", small)
    theta_mod._lattice(genus, radius - 5)
    got = theta_table(bundle, tol=1e-15)
    held = theta_mod._LATTICES[genus]
    assert held[0] == radius - 5 and held[1].nbytes + held[2].nbytes <= small
    assert got.radius == radius
    for a, b in zip((got.values, got.grads, got.hessians, got.thirds),
                    (want.values, want.grads, want.hessians, want.thirds)):
        assert a.tobytes() == b.tobytes()


def test_oversized_box_is_refused_before_the_lattice_grows(monkeypatch):
    # lam_min = 1e-7 needs a box of radius about 13,000 at the default tolerance
    builds, monomials = [], theta_mod._monomials
    monkeypatch.setattr(theta_mod, "_monomials", lambda q: builds.append(q.shape) or monomials(q))
    held = {g: entry[0] for g, entry in theta_mod._LATTICES.items()}
    tau = np.diag([1j, 1e-7j])
    bundle = SimpleNamespace(tau=tau, inv_two_omega=np.eye(2))
    calls = (lambda: theta_table(bundle),
             lambda: theta_eval(np.zeros(2), tau, char((0, 0), (0, 0))),
             lambda: theta_jet(np.zeros(2), tau, char((0, 0), (0, 0))))
    for call in calls:
        with pytest.warns(UserWarning, match="ill-conditioned"):
            with pytest.raises(NotSiegelPoint, match="exceeds 2000 at min eigenvalue of Im tau "
                                                     "1.000e-07 and tolerance 1.0e-14"):
                call()
    assert builds == [] and {g: entry[0] for g, entry in theta_mod._LATTICES.items()} == held


def reference_theta_table(bundle, tol):
    """The table as built before the cached kernel: one complex einsum per
    lattice Z^g + eps against its own phase matrix, and the 4-operand einsum
    contractions of the directional block.  Returns the seven arrays."""
    tau, _, lam_min = theta_mod._check_tau(bundle.tau)
    g = tau.shape[0]
    radius = theta_mod._pick_radius(lam_min, tol)
    bits = np.array(list(itertools.product((0, 1), repeat=g)))
    side = np.arange(-radius, radius + 1)
    n = np.stack(np.meshgrid(*[side] * g, indexing="ij"), axis=-1).reshape(-1, g)
    blocks = []
    for top in bits:
        q = n + top / 2.0
        terms = np.exp(1j * np.pi * np.einsum("ni,ij,nj->n", q, tau, q))
        f = 2j * np.pi * q
        ff = (f[:, :, None] * f[:, None, :]).reshape(len(q), g * g)
        fff = (ff[:, :, None] * f[:, None, :]).reshape(len(q), g ** 3)
        mono = terms[:, None] * np.hstack([np.ones((len(q), 1)), f, ff, fff])
        powers = np.einsum("ni,bi->nb", (2 * q).astype(int), bits)
        phase = np.array([1, 1j, -1, -1j])[powers % 4]
        blocks.append(np.einsum("nb,nm->bm", phase, mono))
    table = np.vstack(blocks)
    grads = table[:, 1 : 1 + g]
    hessians = table[:, 1 + g : 1 + g + g * g].reshape(-1, g, g)
    thirds = table[:, 1 + g + g * g :].reshape(-1, g, g, g)
    w = bundle.inv_two_omega
    return (table[:, 0], grads, hessians, thirds,
            np.einsum("ci,ia->ca", grads, w),
            np.einsum("cij,ia,jb->cab", hessians, w, w),
            np.einsum("cijk,ia,jb,kd->cabd", thirds, w, w, w))


def _table_arrays(tt):
    return (tt.values, tt.grads, tt.hessians, tt.thirds, *tt.directional)


@pytest.mark.parametrize("tol", [1e-14, 1e-15])
@pytest.mark.parametrize("prefix", ["standard", "skew", "generic_g1"])
def test_table_matches_the_per_lattice_reference(prefix, tol, request):
    bundle = request.getfixturevalue(f"{prefix}_bundle")
    tt = theta_table(bundle, tol=tol)
    for k, (got, ref) in enumerate(zip(_table_arrays(tt), reference_theta_table(bundle, tol))):
        assert got.shape == ref.shape, k
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), k


@pytest.mark.parametrize("prefix", ["standard", "skew", "generic_g1"])
def test_jet_at_zero_matches_the_table(prefix, request):
    # the point jet sums its own box, recentred on z; at z = 0 it must give
    # the four rows of the table for every characteristic
    tt = theta_table(request.getfixturevalue(f"{prefix}_bundle"))
    rows = (tt.values, tt.grads, tt.hessians, tt.thirds)
    for ch in tt.characteristics:
        jet = theta_jet(np.zeros(tt.genus), tt.tau, ch, tol=tt.tol)
        for k, (got, row) in enumerate(zip(jet, rows)):
            ref = row[ch.code]
            assert got.shape == ref.shape, (ch, k)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(row))), (ch, k)


@pytest.mark.parametrize("prefix", ["standard", "skew", "generic_g1"])
def test_table_bytes_repeat_run_to_run(prefix, request):
    bundle = request.getfixturevalue(f"{prefix}_bundle")
    first, second = theta_table(bundle), theta_table(bundle)
    for a, b in zip(_table_arrays(first), _table_arrays(second)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tau", [np.diag([1j, -0.5j]), np.array([[1j, 2j], [2j, 1j]]),
                                 np.array([[0.3 + 0j]])])
def test_tau_off_the_siegel_space_is_refused(tau):
    """Im tau with an eigenvalue <= 0 (-0.5 and -1 for the genus-2 cases, 0 for genus 1)."""
    bundle = SimpleNamespace(tau=tau, inv_two_omega=np.eye(len(tau)))
    with pytest.raises(NotSiegelPoint, match="^min eigenvalue of Im tau = "):
        theta_table(bundle)


def test_conditioning_warning_names_the_caller():
    # lam_min = 0.03 is below CONDITIONING_FLOOR; the warning must point here,
    # not into the library, whichever entry point raised it
    tau = np.diag([0.03j, 1j])
    bundle = SimpleNamespace(tau=tau, inv_two_omega=np.eye(2))
    calls = (lambda: theta_table(bundle),
             lambda: theta_eval(np.zeros(2), tau, char((0, 0), (0, 0))),
             lambda: theta_jet(np.zeros(2), tau, char((0, 0), (0, 0))))
    for call in calls:
        with pytest.warns(UserWarning, match="ill-conditioned") as record:
            call()
        assert [w.filename for w in record] == [__file__]


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=-0.4, max_value=0.4),
    st.floats(min_value=-0.3, max_value=0.3),
    st.floats(min_value=-0.4, max_value=0.4),
    st.floats(min_value=-0.3, max_value=0.3),
)
def test_parity_property_random_arguments(standard_table, a, b, c, d):
    z = np.array([a + 1j * b, c + 1j * d])
    ch = char((0, 1), (1, 1))
    lhs = theta_eval(z, standard_table.tau, ch)
    rhs = theta_eval(-z, standard_table.tau, ch)
    assert abs(lhs + rhs) < 1e-11 * max(1.0, abs(lhs))

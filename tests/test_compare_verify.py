"""``scripts/compare_verify.py`` tells a roundoff move from a real one.

Within an identity entry the numbers are judged against the scale of the
entry's sides, as ``identities.relative_defect`` judges the entry: a defect
that moves from 0 to 1.3e-16 moved by 100% of itself but by an ulp of its
sides.  The reports here are synthetic, in the shape ``verify`` writes, and
so are the library outputs, in the shape of its library pass.
"""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from secondkind import paths, periods

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_verify.py"


@pytest.fixture(scope="module")
def cv():
    spec = importlib.util.spec_from_file_location("compare_verify", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(defect=0.0, rhs_im=-4.865000748204891, gate=1.4043333874306805e-15, tau=0.4796238167729724):
    lhs = [-5.053515048190389, -4.865000748204891]
    return {"curves": [{"name": "unit_square", "tau": [[0.0, tau]], "checks": [
        {"identity": "rosenhain_classical_24", "lhs": lhs, "rhs": [lhs[0], rhs_im],
         "defect": defect, "sign": -1, "status": "pass"},
        {"identity": "gate_legendre", "lhs": [gate, 0], "rhs": [0, 0], "defect": gate, "status": "pass"},
    ]}]}


def _moved(**change):
    return json.dumps(_report()), json.dumps(_report(**change))


@pytest.mark.parametrize("change", [
    {"defect": 1.26616439638219e-16, "rhs_im": -4.865000748204892},  # an ulp of the sides
    {"gate": 1.5e-15},  # a gate at roundoff, both sides below the absolute floor
])
def test_roundoff_moves_are_not_flagged(cv, change):
    old, new = _moved(**change)
    move, where = cv.largest_move(old, new)
    assert move < 1e-15 and move <= cv.ROUNDOFF_MOVE, where
    # against themselves the same numbers moved by 7% to 100%
    pairs = [p for p in cv.number_pairs(json.loads(old), json.loads(new)) if p[1] != p[2]]
    assert max(abs(a - b) / max(abs(a), abs(b)) for _, a, b, _ in pairs) > 0.05


@pytest.mark.parametrize("change, at", [
    ({"defect": 3e-9, "rhs_im": -4.865000748204891 + 1.5e-8}, "checks[0]"),  # a real defect
    ({"rhs_im": -4.865000748204891 + 1e-9}, "checks[0].rhs[1]"),             # a side alone
    ({"gate": 3e-9}, "checks[1]"),                                             # a gate
    ({"tau": 0.4796238167729724 * (1 + 1e-9)}, "tau[0][1]"),                   # outside any entry
])
def test_real_moves_are_flagged(cv, change, at):
    move, where = cv.largest_move(*_moved(**change))
    assert move > cv.ROUNDOFF_MOVE and at in where, (move, where)


def test_main_marks_only_the_real_move(cv, monkeypatch, capsys):
    old, roundoff = _moved(defect=1.26616439638219e-16, rhs_im=-4.865000748204892)
    real = json.dumps(_report(defect=3e-9, rhs_im=-4.865000748204891 + 1.5e-8))
    runs = {"verify unit_square": [0, old], "verify unit_square options": [0, old]}
    moved = copy.deepcopy(runs)
    moved["verify unit_square"][1], moved["verify unit_square options"][1] = roundoff, real
    monkeypatch.setattr(cv, "reports", {"old": ({}, runs, {}), "new": ({}, moved, {})}.__getitem__)
    assert cv.main(["old", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    differs = [line for line in lines if line.startswith("output differs")]
    assert len(differs) == 2
    assert not differs[0].endswith("BEYOND ROUNDOFF") and differs[1].endswith("BEYOND ROUNDOFF")
    assert lines[-2:] == ["2 of 2 (command, curve, variant) outputs differ, "
                          "1 of them beyond roundoff (1e-12)",
                          "0 of 0 library (curve, map) outputs differ, 0 of them beyond roundoff (1e-12)"]


@pytest.mark.parametrize("where", [1, 2], ids=["named", "library"])
@pytest.mark.parametrize("change, code, marked", [
    ("roundoff", 0, False),  # an ulp of the sides
    ("real", 0, True),       # a move beyond roundoff
    ("none", 2, True),       # the same text under another exit code
])
def test_named_and_library_passes_exit_1_on_a_marked_output_only(cv, monkeypatch, capsys,
                                                                 where, change, code, marked):
    old = json.dumps(_report())
    text = {"roundoff": _moved(defect=1.26616439638219e-16, rhs_im=-4.865000748204892)[1],
            "real": json.dumps(_report(defect=3e-9, rhs_im=-4.865000748204891 + 1.5e-8)),
            "none": old}[change]
    runs, moved = [{}, {}, {}], [{}, {}, {}]
    runs[where]["standard run"], moved[where]["standard run"] = [0, old], [code, text]
    monkeypatch.setattr(cv, "reports", {"old": runs, "new": moved}.__getitem__)
    assert cv.main(["old", "new"]) == int(marked)
    differs = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("output differs")]
    assert len(differs) == 1 and differs[0].endswith("BEYOND ROUNDOFF") == marked, differs
    assert ("; exit code 0 -> 2" in differs[0]) == bool(code)


@pytest.mark.parametrize("moved, beyond", [
    (_moved(defect=1.26616439638219e-16, rhs_im=-4.865000748204892)[1], False),  # roundoff
    (json.dumps(_report(defect=3e-9, rhs_im=-4.865000748204891 + 1.5e-8)), True),  # a real move
])
def test_first_pass_judges_each_verify_report(cv, monkeypatch, capsys, moved, beyond):
    """One verify report moves in value; only a move beyond roundoff is
    marked, and it alone makes the exit code 1."""
    old = json.dumps(_report())
    runs = {"quick seed 0": [0, old], "full seed 0": [0, old]}
    new = {"quick seed 0": [0, moved], "full seed 0": [0, old]}
    monkeypatch.setattr(cv, "reports", {"old": (runs, {}, {}), "new": (new, {}, {})}.__getitem__)
    assert cv.main(["old", "new"]) == int(beyond)
    lines = capsys.readouterr().out.splitlines()
    move, where = cv.largest_move(old, moved)
    assert [line for line in lines if line.startswith("output differs")] == [
        f"output differs: quick seed 0; largest move {move:.3e} {where}"
        + (" BEYOND ROUNDOFF" if beyond else "")]
    assert lines[-4:-2] == [
        f"largest move of the verify (suite, seed) outputs {move:.3e}: quick seed 0 {where}",
        f"1 of 2 verify (suite, seed) outputs differ, {int(beyond)} of them beyond roundoff (1e-12)"]
    assert (".curves[0].checks[0].defect (0.0 vs 3e-09)" in where) == beyond


@pytest.mark.parametrize("new, flagged", [(7.771561172376096e-16, False), (3e-9, True)])
def test_kappa_route_defects_are_judged_against_kappa(cv, new, flagged):
    """Each of the kappa command's defects is max |kappa_route - kappa_direct|."""
    kappa = [[[0.9368120974466403, 0], [-0.3980140010374381, 0]],
             [[-0.3980140010374381, 0], [0.46840604872332026, 0]]]
    old = {"kappa_direct": kappa, "defects": {"odd_3": 6.661338147750939e-16, "odd_4": 4e-16}}
    moved = copy.deepcopy(old)
    moved["defects"]["odd_3"] = new
    move, where = cv.largest_move(json.dumps(old), json.dumps(moved))
    assert (move > cv.ROUNDOFF_MOVE) == flagged and "defects.odd_3" in where, (move, where)


@pytest.mark.parametrize("twin, flagged", [
    ("roundoff", False),  # the twin moved by an ulp of its sides
    ("real", True),       # the twin moved for real
    ("equal", True),      # the twin's bytes are equal: the text changed alone
])
def test_text_outputs_are_judged_by_their_json_twin(cv, monkeypatch, capsys, twin, flagged):
    old = json.dumps(_report())
    twins = {"roundoff": _moved(defect=1.26616439638219e-16, rhs_im=-4.865000748204892)[1],
             "real": json.dumps(_report(defect=3e-9, rhs_im=-4.865000748204891 + 1.5e-8)),
             "equal": old}
    # text first: the twin must be judged before its text variant
    runs = {"verify unit_square text": [0, "rosenhain_classical_24 pass 0\n"],
            "verify unit_square": [0, old]}
    moved = {"verify unit_square text": [0, "rosenhain_classical_24 pass 1.266e-16\n"],
             "verify unit_square": [0, twins[twin]]}
    monkeypatch.setattr(cv, "reports", {"old": ({}, runs, {}), "new": ({}, moved, {})}.__getitem__)
    assert cv.main(["old", "new"]) == int(flagged)
    text = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("output differs: verify unit_square text")]
    assert len(text) == 1 and text[0].endswith("BEYOND ROUNDOFF") == flagged, text


def test_library_pass_writes_every_map(cv, monkeypatch):
    """On a genus-1 curve: P -> Q and P -> Q' (both lifts of one x), into,
    out of and from infinity to each of its 3 branch points, and the two
    maps to Q and Q' again, each as g [re, im] pairs.  One of the first two
    takes the loop route, and its repeat reuses the loop: each repeat equals
    its first call.  A map out of a branch point is minus the map into it,
    exactly."""
    namespace, walked = {}, []
    along = periods.leg_integrals
    monkeypatch.setattr(periods, "leg_integrals",
                        lambda route, *args: walked.append(len(route.z)) or along(route, *args))
    exec(cv.LIBRARY, namespace)
    out = namespace["library_outputs"]({"generic_g1": cv.CURVES["generic_g1"]})
    assert len(out) == 2 + 3 * 3 + 2 and all(code == 0 for code, _ in out.values()), out
    maps = {run: np.array(json.loads(text)) for run, (_, text) in out.items()}
    assert {v.shape for v in maps.values()} == {(1, 2)}
    for k in range(3):
        assert np.array_equal(maps[f"generic_g1 e{k} -> P"], -maps[f"generic_g1 P -> e{k}"])
    for label in ("P -> Q", "P -> Q'"):
        assert out[f"generic_g1 {label} again"] == out[f"generic_g1 {label}"]
    # the loop (8 legs) once, then the far route's legs for the map and its repeat
    assert walked[0] == 9 and len(walked) == 3 and walked[1] == walked[2] < 9, walked


def test_library_outputs_are_judged_like_named_outputs(cv, monkeypatch, capsys):
    def pairs(*values):
        return json.dumps([[v.real, v.imag] for v in values])

    a, b = 0.36745409711311544 + 0.40097175491427756j, 0.20805056623808793 - 0.02341830377271395j
    failed = "QuadratureNonConvergence: panel budget of 2048 spent"
    old = {"standard P -> e0": [0, pairs(a, b)], "standard oo -> e0": [0, pairs(a, b)],
           "standard e0 -> P": [0, pairs(-a, -b)], "shifted_48 oo -> e0": [2, failed]}
    moved = dict(old)
    moved["standard P -> e0"] = [0, pairs(a * (1 + 2e-16), b)]  # roundoff
    moved["standard oo -> e0"] = [0, pairs(a, b * (1 + 1e-9))]  # a real move
    moved["shifted_48 oo -> e0"] = [0, pairs(a, b)]             # a refusal that now returns
    monkeypatch.setattr(cv, "reports", {"old": ({}, {}, old), "new": ({}, {}, moved)}.__getitem__)
    assert cv.main(["old", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    flagged = {line.split("; ")[0].removeprefix("output differs: "): line.endswith("BEYOND ROUNDOFF")
               for line in lines if line.startswith("output differs")}
    assert flagged == {"standard P -> e0": False, "standard oo -> e0": True, "shifted_48 oo -> e0": True}
    assert lines[-1] == "3 of 4 library (curve, map) outputs differ, 2 of them beyond roundoff (1e-12)"
    monkeypatch.setattr(cv, "reports", {"old": ({}, {}, old), "new": ({}, {}, dict(old))}.__getitem__)
    assert cv.main(["old", "new"]) == 0


@pytest.mark.parametrize("new, flagged", [(1.2e-15, False), (1e-9, True)])
def test_expand_residual_is_judged_as_it_stands(cv, new, flagged):
    """The expand report's residual is already relative to max(1, max |b|)."""
    series = {"exponents": [0, 2], "coefficients": [[12.0, 0.0], [-3.0, 0.0]]}
    old = {"order": 2, "kappa": [[[0.10969538340968964, 0]]], "residual": 1e-15,
           "residual_tol": 1e-6, "algebraic": {"base": series, "kappa_basis": {"11": series}},
           "theta_side": {"[1;1]": series}}
    moved = copy.deepcopy(old)
    moved["residual"] = new
    move, where = cv.largest_move(json.dumps(old), json.dumps(moved))
    assert (move > cv.ROUNDOFF_MOVE) == flagged and ".residual" in where, (move, where)


def test_deep_maps_take_deep_piece_trees(cv, monkeypatch):
    """``deep_outputs`` on a genus-1 curve: P to beside each of its 3 branch
    points, on both sheets, off the line from P by 1e-4 or 1e-6 of the
    branch point's distance from P; and from the far point 40 max|e|^2
    exp(i pi / 7) on the standard curve shifted by +300 to its 5 branch
    points and to P, P', Q and Q'.  Every map returns; each map beside a
    branch point integrates a leg whose pieces are at least 11 or 17
    halvings deep, and the legs from the far point are about 3.6e6 long."""
    depths, lengths = [], []
    layout, along = paths._leg_pieces, paths.leg_integrals

    def deepest(*args):
        out = layout(*args)
        depths.append(max(d for leg in out for _, d in leg))
        return out

    def longest(route, *args):
        lengths.append(np.max(np.abs(np.diff(route.z)), initial=0.0))
        return along(route, *args)

    monkeypatch.setattr(paths, "_leg_pieces", deepest)
    for module in (paths, periods):
        monkeypatch.setattr(module, "leg_integrals", longest)
    namespace = {}
    exec(cv.LIBRARY, namespace)
    for delta, least in zip(cv.BESIDE, (11, 17)):
        del depths[:]
        out = namespace["deep_outputs"]({"generic_g1": cv.CURVES["generic_g1"]}, {}, [delta])
        assert len(out) == 6 and all(code == 0 for code, _ in out.values()), out
        assert sum(d >= least for d in depths) >= 6, (delta, depths)
    del lengths[:]
    out = namespace["deep_outputs"]({}, cv.FAR_CURVES, [])
    assert len(out) == 9 and all(code == 0 for code, _ in out.values()), out
    assert 3e6 < max(lengths) < 4e6, lengths


def _theta_output(odd_value=(1.0e-17, -2.0e-17), even_value=(1.1658127861032388, 3.0e-17),
                  even_grad_im=1.0e-17):
    """The theta command's shape: one record per characteristic."""
    return {"tau": [[[0, 1.25352000707922]]], "characteristics": [
        {"char": [0, 0], "parity": 0, "value": list(even_value), "radius": 7,
         "grad": [[0.0, even_grad_im]]},
        {"char": [1, 1], "parity": 1, "value": list(odd_value), "radius": 7,
         "grad": [[-2.0943951023931957, 0.7071067811865476]]},
    ]}


#: Pairs of outputs whose numbers move at roundoff of the arrays they belong
#: to, or of the defects they are, each with the place of a number that moved
#: by more than 5% of itself.
_ROUNDOFF_FLIPS = {
    "library map": ([[0.5, 3.0e-17], [0.2, 0.0]], [[0.5, -2.7e-17], [0.2, 0.0]], "[0][1]"),
    "theta value": (_theta_output(), _theta_output(odd_value=(-1.2e-17, 0.0),
                                                   even_value=(1.1658127861032388, -2.7e-17)),
                    ".characteristics[1].value[0]"),
    "theta grad": (_theta_output(), _theta_output(even_grad_im=-3.0e-17),
                   ".characteristics[0].grad[0][1]"),
    "match residual": ({"gamma": [1, 1, 0, 1], "pairs": [
        {"branch_index": 1, "char": [0, 1, 0, 1], "residual": 2.9e-16}]},
        {"gamma": [1, 1, 0, 1], "pairs": [
            {"branch_index": 1, "char": [0, 1, 0, 1], "residual": 1.7e-16}]}, "residual"),
    "periods defects": ({"legendre_defect": 4.4e-16, "tau_asymmetry": 0.0, "im_tau_min_eigenvalue": 0.61},
                        {"legendre_defect": 2.2e-16, "tau_asymmetry": 5.6e-17,
                         "im_tau_min_eigenvalue": 0.61}, ".tau_asymmetry"),
}


@pytest.mark.parametrize("case", sorted(_ROUNDOFF_FLIPS))
def test_a_component_at_roundoff_size_may_flip(cv, case):
    """A number at roundoff size of its array, or a defect at roundoff,
    may change sign or vanish without being marked."""
    old, new, at = _ROUNDOFF_FLIPS[case]
    move, where = cv.largest_move(json.dumps(old), json.dumps(new))
    assert move <= cv.ROUNDOFF_MOVE, (move, where)
    # against themselves the same numbers moved by far more than roundoff
    pairs = {p: (a, b) for p, a, b, _ in cv.number_pairs(old, new) if a != b}
    assert any(at in p and abs(a - b) / max(abs(a), abs(b)) > 0.05 for p, (a, b) in pairs.items())


@pytest.mark.parametrize("case, moved, at", [
    ("library map", [[0.5 * (1 + 1e-9), 3.0e-17], [0.2, 0.0]], "[0][0]"),
    ("theta value", _theta_output(even_value=(1.1658127861032388 * (1 + 1e-9), 3.0e-17)),
     ".characteristics[0].value[0]"),
    ("theta grad", _theta_output(odd_value=(1.0e-17, -2.0e-17))
     | {"characteristics": [_theta_output()["characteristics"][0],
                            _theta_output()["characteristics"][1]
                            | {"grad": [[-2.0943951023931957 * (1 + 1e-9), 0.7071067811865476]]}]},
     ".characteristics[1].grad[0][0]"),
    ("match residual", {"gamma": [1, 1, 0, 1], "pairs": [
        {"branch_index": 1, "char": [0, 1, 0, 1], "residual": 1e-9}]}, "residual"),
])
def test_a_move_of_the_largest_entry_is_marked(cv, case, moved, at):
    """1e-9 of the largest entry of an array, or a defect that grows to
    1e-9, is beyond roundoff."""
    old = _ROUNDOFF_FLIPS[case][0]
    move, where = cv.largest_move(json.dumps(old), json.dumps(moved))
    assert move > cv.ROUNDOFF_MOVE and at in where, (move, where)


def test_sweep_draws_cover_the_curve_sweep_mix(cv):
    """Genus-1 and genus-2 draws, each as drawn and as an affine image
    x -> s x + c, each at the default and at the refined tolerances; the
    same draws on every call, so both trees see the same curves."""
    draws = cv.sweep_draws()
    assert draws == cv.sweep_draws() and len(draws) == 4 * sum(cv.SWEEP_DRAWS.values())
    for g, count in cv.SWEEP_DRAWS.items():
        for k in range(count):
            base, image = (np.array([complex(*p) for p in draws[f"g{g} draw {k}{a}"][0]])
                           for a in ("", " affine"))
            assert len(base) == 2 * g + 1
            # image = s base + c with s in [0.1, 10] and real c
            s = (image[1] - image[0]) / (base[1] - base[0])
            assert abs(s.imag) < 1e-12 * abs(s) and 0.1 <= s.real <= 10.0
            assert np.allclose(image, s.real * base + (image[0] - s.real * base[0]).real)
            for image_label in ("", " affine"):
                assert draws[f"g{g} draw {k}{image_label}"][1:] == [None, None]
                assert draws[f"g{g} draw {k}{image_label} fine"][1:] == [1e-13, 1e-15]


def test_sweep_outputs_record_the_bundle_and_every_route(cv):
    """Each sweep output holds the bundle's matrices, gates and chain
    signs, and at genus 2 the direct kappa, the 17 routes and their
    defects, with the values ``kappa_report`` returns."""
    from secondkind import bolza_match, compute_periods, curve_from_branch_points, kappa_report
    from secondkind import theta_table

    draws = cv.sweep_draws()
    names = ["g2 draw 0 affine fine", "g1 draw 0"]
    namespace = {}
    exec(cv.LIBRARY, namespace)
    out = namespace["sweep_outputs"]({name: draws[name] for name in names})
    assert all(code == 0 for code, _ in out.values()), out
    g2, g1 = (json.loads(out[name][1]) for name in names)
    assert set(g1) == {"omega", "omega_prime", "eta", "eta_prime", "tau", "kappa", "gates",
                       "chain_signs"}
    assert set(g2) == set(g1) | {"kappa_direct", "routes", "defects"}
    assert set(g2["gates"]) == set(namespace["GATES"]) and len(g2["routes"]) == 17
    points, quad_tol, theta_tol = draws[names[0]]
    curve = curve_from_branch_points([complex(*p) for p in points])
    bundle = compute_periods(curve, quad_tol)
    tt = theta_table(bundle, tol=theta_tol)
    m = bolza_match(tt, curve)
    rep = kappa_report(curve, bundle, tt, m)
    assert g2["defects"] == rep.defect_table
    assert g2["gates"]["legendre_defect"] == bundle.legendre_defect
    assert g2["chain_signs"] == list(bundle.chain_signs)
    routes = [g2["kappa_direct"], *g2["routes"].values()]
    want = [rep.kappa_direct, *rep.kappa_by_even_pair.values(), rep.kappa_even_sum,
            *(rep.kappa_by_odd[m.delta(i)] for i in range(1, 6)), rep.kappa_odd_sum]
    for got, matrix in zip(routes, want, strict=True):
        assert np.array_equal(np.array(got)[..., 0] + 1j * np.array(got)[..., 1], matrix)


@pytest.mark.parametrize("where, new, flagged", [
    (("routes", "odd_3", 0, 1, 0), -0.3980140010374382, False),  # an ulp of the route
    (("routes", "odd_3", 0, 1, 0), -0.3980140010374381 * (1 + 1e-9), True),
    (("defects", "odd_3"), 7.771561172376096e-16, False),         # roundoff of kappa
    (("defects", "odd_3"), 3e-9, True),
    (("gates", "legendre_defect"), 6.661338147750939e-16, False),  # absolute, at roundoff
    (("gates", "legendre_gate"), 1e-9 * (1 + 1e-9), True),          # a gate, against itself
])
def test_sweep_outputs_are_judged_on_their_scales(cv, where, new, flagged):
    """A route is judged on its matrix, a defect on the direct kappa, a
    defect-named gate as it stands and any other gate against itself."""
    kappa = [[[0.9368120974466403, 0], [-0.3980140010374381, 0]],
             [[-0.3980140010374381, 0], [0.46840604872332026, 0]]]
    old = {"kappa": kappa, "gates": {"legendre_defect": 4.4e-16, "legendre_gate": 1e-9},
           "chain_signs": [1, -1, 1, 1], "kappa_direct": kappa,
           "routes": {"odd_3": copy.deepcopy(kappa)}, "defects": {"odd_3": 6.661338147750939e-16}}
    moved = copy.deepcopy(old)
    *path, last = where
    node = moved
    for key in path:
        node = node[key]
    node[last] = new
    move, at = cv.largest_move(json.dumps(old), json.dumps(moved))
    assert (move > cv.ROUNDOFF_MOVE) == flagged and where[1] in at, (move, at)

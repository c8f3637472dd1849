"""``scripts/compare_verify.py`` tells a roundoff move from a real one.

Within an identity entry the numbers are judged against the scale of the
entry's sides, as ``identities.relative_defect`` judges the entry: a defect
that moves from 0 to 1.3e-16 moved by 100% of itself but by an ulp of its
sides.  The reports here are synthetic, in the shape ``verify`` writes.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

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
    monkeypatch.setattr(cv, "reports", {"old": ({}, runs), "new": ({}, moved)}.__getitem__)
    assert cv.main(["old", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    differs = [line for line in lines if line.startswith("output differs")]
    assert len(differs) == 2
    assert not differs[0].endswith("BEYOND ROUNDOFF") and differs[1].endswith("BEYOND ROUNDOFF")
    assert lines[-1] == ("2 of 2 (command, curve, variant) outputs differ, "
                         "1 of them beyond roundoff (1e-12)")


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
    monkeypatch.setattr(cv, "reports", {"old": ({}, runs), "new": ({}, moved)}.__getitem__)
    assert cv.main(["old", "new"]) == 1
    text = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("output differs: verify unit_square text")]
    assert len(text) == 1 and text[0].endswith("BEYOND ROUNDOFF") == flagged, text

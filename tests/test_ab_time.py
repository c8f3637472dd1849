"""``scripts/ab_time.py`` on one tree against itself, and against a copy
whose records differ.

The script loads both trees in one process under their own package names
and times a benchmark workload in alternating rounds; it refuses to time
trees whose first-round records differ.  curve_sweep keeps a round short.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_time.py"
SRC = ROOT / "src"


def _run(old, new):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new), "--workload",
                           "curve_sweep", "--seed", "1", "--rounds", "2"],
                          capture_output=True, text=True, timeout=120)


def test_a_tree_against_itself_is_timed():
    out = _run(SRC, SRC)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "240 records byte-equal; 2 rounds of curve_sweep seed 1"
    assert lines[1].startswith("round 0 (old first): new/old ")
    assert lines[2].startswith("round 1 (new first): new/old ")
    assert lines[3].startswith("per-op CPU median: old ") and lines[3].endswith(" ms")
    assert lines[4].startswith("paired ratio new/old: median ") and lines[4].endswith(" of 2 rounds")


def test_trees_whose_records_differ_are_not_timed(tmp_path):
    """A copy with another default quadrature tolerance moves the periods
    of the curves that take the default."""
    shutil.copytree(SRC / "secondkind", tmp_path / "secondkind",
                    ignore=shutil.ignore_patterns("__pycache__"))
    periods = tmp_path / "secondkind" / "periods.py"
    text = periods.read_text()
    assert "\nDEFAULT_QUAD_TOL = 1e-12\n" in text
    periods.write_text(text.replace("\nDEFAULT_QUAD_TOL = 1e-12\n", "\nDEFAULT_QUAD_TOL = 1e-11\n"))
    out = _run(SRC, tmp_path)
    assert out.returncode == 1, out.stderr
    differ, _, rest = out.stdout.strip().partition(" of 240 records differ; not timed")
    assert int(differ) > 0 and rest == "", out.stdout

#!/usr/bin/env python3
"""python3 scripts/compare_verify.py OLD_SRC NEW_SRC: verify --suite quick and
--suite full on seeds 0-79, one subprocess per source tree.  Prints exit-code and
status changes, the ten largest defect differences by label and the unequal
omega_*/gate_* labels; exits 1 on any exit-code or status change.
"""

import json
import os
import subprocess
import sys

RUNNER = """
import contextlib, io, json, sys
from secondkind.cli import main
out = {}
for suite in ("quick", "full"):
    for seed in range(80):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = main(["verify", "--suite", suite, "--seed", str(seed)])
        out[f"{suite} seed {seed}"] = [code, json.loads(buf.getvalue())]
json.dump(out, sys.stdout)
"""


def reports(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    run = subprocess.run([sys.executable, "-c", RUNNER], env=env, check=True,
                         stdout=subprocess.PIPE, text=True)
    return json.loads(run.stdout)


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (reports(src) for src in argv)
    changes, moved, unequal = [], {}, set()
    for run, (code0, rep0) in old.items():
        code1, rep1 = new[run]
        if code0 != code1:
            changes.append(f"{run}: exit code {code0} -> {code1}")
        for c0, c1 in zip(rep0["curves"], rep1["curves"]):
            for e0, e1 in zip(c0["checks"], c1["checks"]):
                label = e0["identity"]
                if (label, e0["status"]) != (e1["identity"], e1["status"]):
                    changes.append(f"{run} {c0['name']} {label}: {e0['status']} -> {e1['status']}")
                elif "defect" in e0 and "defect" in e1:
                    moved[label] = max(moved.get(label, 0.0), abs(e0["defect"] - e1["defect"]))
                if e0 != e1 and label.startswith(("omega_", "gate_")):
                    unequal.add(label)
    sys.stdout.writelines(line + "\n" for line in changes)
    for label, d in sorted(moved.items(), key=lambda kv: -kv[1])[:10]:
        print(f"largest defect difference {d:.3e}  {label}")
    print("unequal omega_/gate_ labels:", ", ".join(sorted(unequal)) or "none")
    print(f"{len(changes)} exit-code or status changes over {len(old)} runs")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

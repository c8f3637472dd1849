#!/usr/bin/env python3
"""python3 scripts/ab_time.py OLD_SRC NEW_SRC --workload W --seed S --rounds N:
per-operation CPU time of two source trees, in one process, rounds alternating.

Each SRC is a directory holding the ``secondkind`` package (a checkout's
``src``).  Both trees are loaded into this one process under their own
package names (``secondkind_old``, ``secondkind_new``), and each runs the
benchmark workload W (``bench/worker.py``: curve_sweep, abel_paths or
verify_battery) on the inputs of seed S.  The first round of each tree is
untimed: its records, as the benchmark writes them, must be equal byte for
byte, or the script exits 1 without timing.  Then N timed rounds follow,
the old tree first in even rounds and the new tree first in odd ones, each
operation timed by ``time.process_time``.

It prints, per tree, the median CPU time of an operation over all timed
rounds; per round, the ratio new / old of the two trees' medians in that
round; and the median of those paired ratios with the number of rounds in
which the new tree was faster.  Two runs of the benchmark in separate
processes can differ by far more than the change being measured on a
shared host; CPU time in one process, alternating, cancels most of that.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import worker  # noqa: E402


def load_tree(src, name: str):
    """The ``secondkind`` package under ``src``, imported as ``name`` with
    its cli module loaded (verify_battery calls it)."""
    pkg = Path(src).resolve() / "secondkind"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def run_round(sk, wl, times=None) -> list:
    """One round of wl's operations: their records, each operation's CPU
    seconds appended to ``times`` when given."""
    records = []
    for i in range(len(wl)):
        t0 = time.process_time()
        try:
            out, err = wl.op(i), None
        except sk.errors.SecondKindError as exn:
            out, err = None, f"{type(exn).__name__}: {exn}"
        if times is not None:
            times.append(time.process_time() - t0)
        records.append(json.dumps({"error": err}) if err else
                       json.dumps(wl.record(i, out), sort_keys=True))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    sides = {}
    for side, src in (("old", args.old_src), ("new", args.new_src)):
        sk = load_tree(src, f"secondkind_{side}")
        sides[side] = (sk, worker.WORKLOADS[args.workload](args.seed, sk))
    records = {side: run_round(sk, wl) for side, (sk, wl) in sides.items()}
    differ = sum(a != b for a, b in zip(records["old"], records["new"], strict=True))
    if differ:
        print(f"{differ} of {len(records['old'])} records differ; not timed")
        return 1
    print(f"{len(records['old'])} records byte-equal; {args.rounds} rounds of "
          f"{args.workload} seed {args.seed}")

    per_round = {"old": [], "new": []}
    for r in range(args.rounds):
        for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
            sk, wl = sides[side]
            times = []
            run_round(sk, wl, times)
            per_round[side].append(times)
    ms = {side: 1e3 * statistics.median(t for times in rounds for t in times)
          for side, rounds in per_round.items()}
    ratios = [statistics.median(new) / statistics.median(old)
              for old, new in zip(per_round["old"], per_round["new"])]
    for r, ratio in enumerate(ratios):
        print(f"round {r} ({'old' if r % 2 == 0 else 'new'} first): new/old {ratio:.4f}")
    print(f"per-op CPU median: old {ms['old']:.4f} ms, new {ms['new']:.4f} ms")
    print(f"paired ratio new/old: median {statistics.median(ratios):.4f}, "
          f"new faster in {sum(q < 1.0 for q in ratios)} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

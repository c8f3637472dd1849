"""One in-process workload run: set-up, warm-up, timed rounds, records.

Run by run.py with the checkout's ``src`` on PYTHONPATH.  It prints READY
when set-up is done and the first timed operation is due; a ``--probe``
run exits there, so run.py can time set-up alone.  A full run prints one
JSON line at the end with the operation times, failure count, peak memory,
the first round's output records (checked by run.py) and, with
``--trace 1``, the per-layer summary of the traced rounds, which alternate
with untraced ones.

Every round runs the same operations, and a run is whole rounds.  Records
of later rounds must equal those of the first, byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import warnings

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calib  # noqa: E402
import inputs  # noqa: E402

# ---------------------------------------------------------------- encoding


def enc(a):
    """JSON form of complex arrays: nested lists of [re, im] pairs."""
    arr = np.asarray(a, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _char(ch) -> list:
    return [int(v) for v in ch.top] + [int(v) for v in ch.bottom]


# --------------------------------------------------------------- workloads


class Workload:
    """A round of operations on ``items``: ``op(i)`` runs one, ``record(i, out)`` keeps its output."""

    tracer = None
    items: list = []

    def __len__(self):
        return len(self.items)

    def failed(self, out) -> bool:
        """Whether an operation that returned ``out`` failed."""
        return False


class CurveSweep(Workload):
    """curves -> periods -> theta table (-> matching -> kappa routes)."""

    def __init__(self, seed: int, sk):
        self.sk = sk
        self.items = inputs.sweep_curves(seed)

    def op(self, i: int):
        sk, it = self.sk, self.items[i]
        curve = sk.curve_from_branch_points(it["points"])
        bundle = sk.compute_periods(curve, it["quad_tol"] or sk.periods.DEFAULT_QUAD_TOL)
        tt = sk.theta_table(bundle, tol=it["theta_tol"] or sk.theta.DEFAULT_THETA_TOL)
        if curve.genus == 1:
            return bundle, tt, None, None
        m = sk.bolza_match(tt, curve)
        return bundle, tt, m, sk.kappa_report(curve, bundle, tt, m)

    def record(self, i: int, out) -> dict:
        bundle, tt, m, rep = out
        it = self.items[i]
        chars = tt.characteristics
        sample = [chars[(3 * i) % len(chars)], chars[(3 * i + 1 + len(chars) // 2) % len(chars)]]
        rec = {
            "input": {k: (enc(v) if k == "points" else v) for k, v in it.items()},
            "genus": bundle.genus,
            "omega": enc(bundle.omega), "omega_p": enc(bundle.omega_prime),
            "eta": enc(bundle.eta), "eta_p": enc(bundle.eta_prime),
            "tau": enc(bundle.tau), "kappa": enc(bundle.kappa),
            "theta": [{
                "char": _char(ch), "radius": tt.entry(ch).radius,
                "value": enc(tt.entry(ch).value), "grad": enc(tt.entry(ch).grad),
                "hess": enc(tt.entry(ch).hess), "third": enc(tt.entry(ch).third),
            } for ch in sample],
        }
        if rep is not None:
            rec["odd_grads"] = [enc(tt.entry(ch).grad) for ch in tt.odd]
            routes = {f"even_pair_{a}{b}": v for (a, b), v in rep.kappa_by_even_pair.items()}
            routes["even_sum"] = rep.kappa_even_sum
            routes.update({f"odd_{k + 1}": rep.kappa_by_odd[m.delta(k + 1)] for k in range(5)})
            routes["odd_sum"] = rep.kappa_odd_sum
            routes["direct"] = rep.kappa_direct
            rec["routes"] = {k: enc(v) for k, v in routes.items()}
        return rec


class AbelPaths(Workload):
    """Three Abel maps P->Q, Q->R, P->R between finite points."""

    def __init__(self, seed: int, sk):
        self.sk = sk
        curves, self.items = inputs.abel_inputs(seed)
        self.curves = [sk.curve_from_branch_points(pts) for pts in curves]
        self.bundles = [sk.compute_periods(c) for c in self.curves]
        self.points = [
            tuple(self.curves[ci].lift(x, sheet) for x, sheet in pts)
            for ci, *pts in self.items
        ]

    def op(self, i: int):
        ci = self.items[i][0]
        curve, bundle = self.curves[ci], self.bundles[ci]
        p, q, r = self.points[i]
        return (self.sk.abel_map(curve, bundle, p, q),
                self.sk.abel_map(curve, bundle, q, r),
                self.sk.abel_map(curve, bundle, p, r))

    def record(self, i: int, out) -> dict:
        ci = self.items[i][0]
        return {"curve": ci, "tau": enc(self.bundles[ci].tau),
                "pq": enc(out[0]), "qr": enc(out[1]), "pr": enc(out[2])}


class VerifyBattery(Workload):
    """In-process ``secondkind verify --suite full --seed k``."""

    def __init__(self, seed: int, sk):
        self.sk = sk
        self.items = inputs.verify_seeds(seed)

    def op(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.sk.cli.main(["verify", "--suite", "full", "--seed", str(self.items[i])])
        text = buf.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", len(text.encode()))
        return code, text

    def record(self, i: int, out) -> dict:
        return {"seed": self.items[i], "code": out[0], "text": out[1]}

    def failed(self, out) -> bool:
        return out[0] != 0


WORKLOADS = {"curve_sweep": CurveSweep, "abel_paths": AbelPaths, "verify_battery": VerifyBattery}


# ------------------------------------------------------------------ rounds


def run_rounds(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds until ``seconds`` of wall time have passed.

    With a tracer, rounds alternate untraced and traced, so the two halves
    see the same machine and their difference is the tracing overhead.
    Each operation is followed by calibration units (calib.py).  Returns
    the operation times of each kind with the calibration units and seconds
    after each, the failure count, the first round's records and how many
    later records differed from them.
    """
    import secondkind

    times = {False: [], True: []}
    units = {False: [], True: []}
    cals = {False: [], True: []}
    failed, first, mismatches, k = 0, [], 0, 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        wl.tracer = tracer if traced else None
        for i in range(len(wl)):
            if traced:
                tracer.op = len(times[True])
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
                err = None
            except secondkind.errors.SecondKindError as exn:
                out, err = None, f"{type(exn).__name__}: {exn}"
            dt = time.perf_counter() - t0
            n, cal = calib.measure(dt)
            times[traced].append(dt)
            units[traced].append(n)
            cals[traced].append(cal)
            if err is None:
                failed += wl.failed(out)
                rec = json.dumps(wl.record(i, out), sort_keys=True)
            else:
                failed += 1
                rec = json.dumps({"error": err})
            if k == 0:
                first.append(rec)
            elif rec != first[i]:
                mismatches += 1
        if traced:
            tracer.uninstall()
        k += 1
        if time.perf_counter() - start >= seconds and (tracer is None or k % 2 == 0):
            break
    return {"times": times[False], "traced_times": times[True],
            "units": units[False], "traced_units": units[True],
            "cal_s": cals[False], "traced_cal_s": cals[True],
            "failed": failed, "records": first, "mismatches": mismatches}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans-out", help="file for the traced rounds' spans")
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    import secondkind
    import secondkind.cli  # noqa: F401  (verify_battery calls it; tracing wraps it)

    wl = WORKLOADS[args.workload](args.seed, secondkind)
    wl.op(0)  # warm-up
    print("READY", flush=True)
    if args.probe:
        return 0
    calib.measure()  # warm-up of the calibration unit

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    result = run_rounds(wl, args.seconds, tracer)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["round"] = len(wl)
    if tracer is not None:
        result["layers"] = tracer.summary(len(result["traced_times"]))
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["op", "name", "parent", "start", "end"],
                           "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

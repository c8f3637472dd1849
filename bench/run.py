#!/usr/bin/env python3
"""Benchmark of secondkind, end to end and layer by layer.

    python3 bench/run.py --workload curve_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout: the program is imported from its ``src``
directory, never from an installed copy, and the run fails without a
result when ``src/secondkind`` is missing.  Workloads: curve_sweep,
abel_paths, verify_battery and cli_cold (see README.md).  Each in-process
workload runs in a fresh worker process (worker.py); cli_cold starts one
fresh ``python -m secondkind.cli`` per operation.  Every output is checked
by checks.py.  Operation and set-up times are scaled to a reference host
speed by calibration runs next to them (calib.py).  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  Details of the run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("curve_sweep", "abel_paths", "verify_battery", "cli_cold")

#: Fresh processes that time set-up, after one that warms the file cache;
#: the median is setup_s.
SETUP_PROBES = 7

#: Calibration seconds before the first set-up probe and after each.
SETUP_CAL_S = 0.1

#: Fresh interpreters that time ``import secondkind.cli`` in a traced run.
IMPORT_PROBES = 3

#: Longest a single child process may take.
CHILD_TIMEOUT = 170

#: Metric names, units and directions live in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

IMPORT_CODE = ("import time; t = time.perf_counter(); import secondkind.cli; "
               "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exn:
        raise BenchError(f"{cmd[:4]} timed out") from exn


def cx(a) -> np.ndarray:
    """Inverse of worker.enc: [re, im] pairs back to complex arrays."""
    a = np.asarray(a, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def setup_times(probe, calibrate, ref: float) -> list:
    """Set-up seconds of SETUP_PROBES calls of ``probe``, scaled (calib.py).

    ``probe`` returns wall seconds and ``calibrate`` (units, seconds).  One
    unscaled call warms the file cache first; each later call is scaled to
    ``ref`` seconds per unit by the calibration runs just before and after it.
    """
    probe()
    cal = [calibrate()]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(probe())
        cal.append(calibrate())
    return [dt * ref * (cal[i][0] + cal[i + 1][0]) / (cal[i][1] + cal[i + 1][1])
            for i, dt in enumerate(raw)]


# --------------------------------------------------------- in-process runs


def spawn_worker(args, env: dict, probe: bool, spans_out: Path | None = None):
    """Start a worker; return (set-up seconds, final stdout line or None).

    The set-up seconds are wall time, unscaled.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exn:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from exn
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{ready}{err}")
    lines = rest.strip().splitlines()
    if not probe and not lines:
        raise BenchError(f"worker printed no result:\n{err}")
    return setup, (lines[-1] if lines else None)


def check_sweep(records: list) -> list:
    out = []
    for rec in records:
        if "error" in rec:
            continue  # counted as failed by the worker
        it = rec["input"]
        pts = [complex(z) for z in cx(it["points"])]
        omega, eta = cx(rec["omega"]), cx(rec["eta"])
        out += checks.check_periods(omega, cx(rec["omega_p"]), eta, cx(rec["eta_p"]),
                                    cx(rec["tau"]), cx(rec["kappa"]))
        out += checks.check_theta_entries(cx(rec["tau"]), [
            {k: (cx(v) if k in ("value", "grad", "hess", "third") else v) for k, v in e.items()}
            for e in rec["theta"]])
        if rec["genus"] == 2:
            out += checks.check_branch_recovery(pts, omega, [cx(g) for g in rec["odd_grads"]])
            out += checks.check_kappa_routes(checks.direct_kappa(omega, eta),
                                             {k: cx(v) for k, v in rec["routes"].items()})
        else:
            out += checks.check_kleinj(pts, cx(rec["tau"]))
        if all(z.imag == 0.0 for z in pts):
            out += checks.check_real_a_periods(pts, omega)
        if it["kind"] == "affine":
            base = records[it["base"]]
            if "error" not in base:
                out += checks.check_affine(
                    {"tau": cx(base["tau"]), "omega": 2.0 * cx(base["omega"])},
                    {"tau": cx(rec["tau"]), "omega": 2.0 * omega}, it["s"], it["c"])
    return out


def check_abel(records: list) -> list:
    out = []
    for rec in records:
        if "error" not in rec:
            out += checks.check_abel_loop(cx(rec["pq"]), cx(rec["qr"]), cx(rec["pr"]),
                                          cx(rec["tau"]))
    return out


def check_battery(records: list) -> list:
    out = []
    for rec in records:
        if "error" not in rec:
            out += checks.check_verify_report(rec["text"], "full", rec["seed"], rec["code"])
    return out


CHECKERS = {"curve_sweep": check_sweep, "abel_paths": check_abel,
            "verify_battery": check_battery}


def run_in_process(args, env: dict) -> dict:
    setups = setup_times(lambda: spawn_worker(args, env, probe=True)[0],
                         lambda: calib.measure(SETUP_CAL_S), calib.REF_UNIT_S)
    spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    line = spawn_worker(args, env, probe=False, spans_out=spans_out)[1]
    res = json.loads(line)
    records = [json.loads(r) for r in res["records"]]
    problems = CHECKERS[args.workload](records)
    if res["mismatches"]:
        problems.append(f"{res['mismatches']} outputs differ from the first round's")
    return {
        "problems": problems, "failed": res["failed"],
        "attempted": len(res["times"]) + len(res["traced_times"]),
        "times": calib.scale(res["times"], res["units"], res["cal_s"]),
        "traced_times": calib.scale(res["traced_times"], res["traced_units"],
                                    res["traced_cal_s"]),
        "raw_times": res["times"], "setup": setups,
        "peak_rss_mb": res["rss_kb"] / 1024.0, "round": res["round"],
        "layers": res.get("layers"),
    }


# ----------------------------------------------------------------- cli_cold


def check_cli_output(cmd: list, text: str, by_curve: dict) -> list:
    """Properties of one CLI output, and agreement with the curve's periods."""
    rep = json.loads(text)
    name = cmd[0]
    if name == "verify":
        return checks.check_verify_report(text, "quick", int(cmd[-1]), 0)
    seen = by_curve.setdefault(cmd[2], {})
    seen[name] = rep
    out = []
    if name == "periods":
        out += checks.check_periods(*(cx(rep[k]) for k in (
            "omega", "omega_prime", "eta", "eta_prime", "tau", "kappa")))
        pts = [complex(*p) for p in rep["curve"]["branch_points"]]
        if rep["curve"]["genus"] == 1:
            out += checks.check_kleinj(pts, cx(rep["tau"]))
    elif name == "theta":
        out += checks.check_theta_entries(cx(rep["tau"]), [
            {"char": c["char"], "radius": c["radius"], "value": cx(c["value"])}
            for c in rep["characteristics"]])
        odd = [c for c in rep["characteristics"] if c["parity"] == 1]
        g = len(odd[0]["char"]) // 2
        if len(odd) != (6 if g == 2 else 1) or any(abs(complex(*c["value"])) > 1e-12 for c in odd):
            out.append("odd theta constants must vanish")
    elif name == "match":
        chars = [tuple(p["char"]) for p in rep["pairs"]] + [tuple(rep["gamma"])]
        odd = all(sum(c[k] * c[k + 2] for k in range(2)) % 2 == 1 for c in chars)
        if len(set(chars)) != 6 or not odd:
            out.append("matching is not a bijection onto the odd characteristics")
        if any(p["residual"] > 1e-6 for p in rep["pairs"]):
            out.append("matching residual above 1e-6")
    elif name in ("kappa", "expand"):
        kap = cx(rep["kappa_direct"] if name == "kappa" else rep["kappa"])
        routes = {"transpose": kap.T}
        if name == "kappa":
            routes["expansion"] = cx(rep["kappa_expansion"])
            for key in ("kappa_even_sum", "kappa_odd_sum"):
                if key in rep:
                    routes[key] = cx(rep[key])
            for key in ("kappa_even_pair", "kappa_odd"):
                routes.update({f"{key}_{k}": cx(v) for k, v in rep.get(key, {}).items()})
        elif rep["residual"] > rep["residual_tol"]:
            out.append("expand residual above its tolerance")
        out += checks.check_kappa_routes(kap, routes)
    # the same curve's periods, seen earlier in the round, fix tau and kappa
    per = seen.get("periods")
    if per is not None and name == "theta" and rep["tau"] != per["tau"]:
        out.append("theta tau differs from periods tau")
    if per is not None and name in ("kappa", "expand"):
        out += checks.check_kappa_routes(cx(per["kappa"]), {f"{name} kappa": kap})
    return out


def cli_process(cmd: list, env: dict, shim: Path | None, layers: dict, spans: list):
    """One cold CLI process; returns (seconds, exit code, stdout bytes).

    With ``shim`` the process runs traced; its layer totals are added to
    ``layers`` and its spans appended to ``spans``.
    """
    if shim is None:
        argv = [sys.executable, "-m", "secondkind.cli", *cmd]
    else:
        argv = [sys.executable, str(BENCH / "clishim.py"), str(shim), *cmd]
    t0 = time.perf_counter()
    proc = run_child(argv, env)
    dt = time.perf_counter() - t0
    if shim is not None:
        traced = json.loads(shim.read_text())
        spans.append(traced["spans"])
        for k, v in traced["layers"].items():
            layers[k] = max(layers.get(k, 0), v) if k == "theta.radius_max" else layers.get(k, 0) + v
    return dt, proc.returncode, proc.stdout


def interpreter_seconds(code: str, env: dict) -> float:
    """Wall seconds of a fresh interpreter that runs ``code``."""
    t0 = time.perf_counter()
    proc = run_child([sys.executable, "-c", code], env)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{code!r} failed:\n{proc.stderr.decode()}")
    return dt


def null_process(env: dict) -> tuple:
    """Calibration for cli_cold: one interpreter that imports numpy (calib.REF_NULL_S)."""
    return 1, interpreter_seconds("import numpy", env)


def run_cli_cold(args, env: dict) -> dict:
    setups = setup_times(lambda: interpreter_seconds("import secondkind.cli", env),
                         lambda: null_process(env), calib.REF_NULL_S)
    cmds = inputs.cli_commands(args.seed)
    shim = OUT / f"cli-layers-seed{args.seed}.json"
    times = {False: [], True: []}
    units = {False: [], True: []}
    cals = {False: [], True: []}
    failed, first, codes, mismatches, k = 0, [], [], 0, 0
    layers: dict = {}
    spans: list = []
    start = time.perf_counter()
    # whole rounds; with --trace 1 every second round runs traced
    while True:
        traced = bool(args.trace) and k % 2 == 1
        for i, cmd in enumerate(cmds):
            dt, code, out = cli_process(cmd, env, shim if traced else None, layers, spans)
            n, cal = null_process(env)
            times[traced].append(dt)
            units[traced].append(n)
            cals[traced].append(cal)
            failed += code != 0
            if k == 0:
                first.append(out)
                codes.append(code)
            elif out != first[i]:
                mismatches += 1
        k += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or k % 2 == 0):
            break
    problems, by_curve = [], {}
    for cmd, text, code in zip(cmds, first, codes):
        if code != 0:
            continue  # counted as failed
        try:
            problems += check_cli_output(cmd, text.decode(), by_curve)
        except (ValueError, KeyError) as exn:
            problems.append(f"{cmd[0]}: unreadable output ({exn})")
    if mismatches:
        problems.append(f"{mismatches} outputs differ from the first round's")
    out = {
        "problems": problems, "failed": failed,
        "attempted": len(times[False]) + len(times[True]),
        "times": calib.scale(times[False], units[False], cals[False], calib.REF_NULL_S),
        "traced_times": calib.scale(times[True], units[True], cals[True], calib.REF_NULL_S),
        "raw_times": times[False], "setup": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "round": len(cmds), "layers": None,
    }
    if args.trace:
        shim.unlink()
        (OUT / f"spans-cli_cold-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["op", "name", "parent", "start", "end"], "processes": spans}))
        n = len(times[True])
        out["layers"] = {k: (v if k == "theta.radius_max" else v / n) for k, v in layers.items()}
    return out


# --------------------------------------------------------------------- main


def import_ms(env: dict) -> float:
    vals = []
    for _ in range(IMPORT_PROBES):
        proc = run_child([sys.executable, "-c", IMPORT_CODE], env)
        if proc.returncode != 0:
            raise BenchError("import probe failed")
        vals.append(1e3 * float(proc.stdout.decode().strip()))
    return statistics.median(vals)


def metrics(args, res: dict, env: dict) -> dict:
    """End-to-end metrics, or per-layer ones for a traced run, as in BENCHMARK.json."""
    times = res["times"]
    if not args.trace:
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_ms_p50": 1e3 * statistics.median(times),
            "setup_s": statistics.median(res["setup"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        spec = SPEC["end_to_end"]
    else:
        values = dict(res["layers"])
        values["import.ms"] = import_ms(env)
        plain = 1e3 * statistics.median(times)
        traced = 1e3 * statistics.median(res["traced_times"])
        values["trace.ops"] = len(res["traced_times"])
        values["trace.overhead_ms"] = traced - plain
        values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        spec = SPEC["per_layer"]
    # a layer the workload never reaches reads 0
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec}


def run_all(args) -> int:
    """Each workload in its own fresh run.py process, one after another."""
    results = {}
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{wl}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = results[wl] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{wl}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "secondkind" / "cli.py").is_file():
        print(f"no program source at {SRC / 'secondkind'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    env = child_env()
    try:
        if args.workload == "cli_cold":
            res = run_cli_cold(args, env)
        else:
            res = run_in_process(args, env)
        result = {
            "correct": not res["problems"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics(args, res, env),
        }
    except BenchError as exn:
        print(f"benchmark failed: {exn}", file=sys.stderr)
        return 1
    for p in res["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"args": vars(args), **res, "result": result}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

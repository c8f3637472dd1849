"""Spans around the program's layer functions, recorded from outside.

The tracer replaces each layer function on every ``secondkind`` module
attribute that holds it (``periods.adaptive_gl`` as well as
``paths.adaptive_gl``), and patches two classes in place: ``SheetPath``
construction is a continuation leg, ``TruncatedSeries`` construction is
counted.  Spans are kept in memory; ``summary`` turns them into per-layer
self times and counts, and ``spans`` can be written out at the end.

A span's self time is its duration minus the time of the spans it
encloses, so nested layers (an Abel map enclosing its legs and their
quadrature) are each charged only for their own work.
"""

from __future__ import annotations

import functools
import sys
import time

#: Layer of each traced function, keyed by (module, attribute).
LAYER_FUNCTIONS = {
    ("curves", "curve_from_branch_points"): "curves",
    ("curves", "curve_from_coefficients"): "curves",
    ("paths", "adaptive_gl"): "quad",
    ("paths", "integrate_rows_along"): "leg",
    ("paths", "integrate_rows_to_branch_point"): "leg",
    ("periods", "compute_periods"): "periods",
    ("periods", "abel_map"): "abel",
    ("periods", "abel_from_infinity"): "abel",
    ("theta", "theta_table"): "theta_table",
    ("theta", "theta_eval"): "theta_eval",
    ("correspondence", "bolza_match"): "correspondence",
    ("identities", "kappa_report"): "kappa",
    ("identities", "thomae_defects"): "checks",
    ("identities", "thomae_genus1_defect"): "checks",
    ("identities", "rosenhain_defects"): "checks",
    ("identities", "rosenhain_gamma_pairs"): "checks",
    ("identities", "jacobi_inversion_check"): "checks",
    ("identities", "weierstrass_eta"): "checks",
    ("identities", "omega_consistency"): "omega",
    ("identities", "omega_algebraic"): "omega",
    ("identities", "omega_a_period"): "omega",
    ("expansion", "expansion_match"): "expansion",
    ("expansion", "local_frame"): "frame",
    ("cli", "main"): "cli",
}

#: Self-time metric (ms) of each span name, and the metric counting its calls.
SPAN_METRICS = {
    "curves": ("curves.ms", "curves.calls"),
    "quad": ("paths.quad_ms", "paths.quad_calls"),
    "leg": ("paths.leg_ms", None),
    "leg_path": ("paths.leg_ms", "paths.legs"),
    "branch_leg": ("paths.leg_ms", "paths.legs"),
    "periods": ("periods.ms", "periods.calls"),
    "abel": ("periods.abel_ms", "periods.abel_calls"),
    "theta_table": ("theta.table_ms", "theta.tables"),
    "theta_eval": ("theta.eval_ms", "theta.evals"),
    "correspondence": ("correspondence.ms", None),
    "kappa": ("identities.kappa_ms", None),
    "checks": ("identities.checks_ms", None),
    "omega": ("identities.omega_ms", None),
    "expansion": ("expansion.ms", "expansion.calls"),
    "frame": ("expansion.frame_ms", "expansion.frames"),
    "cli": ("cli.self_ms", None),
}


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list = []      # (op, name, parent index, start, end)
        self.self_ms: dict = {}
        self.counts: dict = {}
        self.radius_max = 0
        self.op = -1
        self._stack: list = []     # [span index, child seconds]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([self.op, name, parent, time.perf_counter(), 0.0])
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[frame[0]]
        span[4] = end
        dur = end - span[3]
        ms, calls = SPAN_METRICS[span[1]]
        self.self_ms[ms] = self.self_ms.get(ms, 0.0) + 1e3 * (dur - frame[1])
        if self._stack:
            self._stack[-1][1] += dur
        if calls is not None:
            self.count(calls)

    def _wrap(self, fn, name: str):
        tracer = self

        if name == "quad":
            @functools.wraps(fn)
            def traced(f, a, b, tol):
                def counted(nodes):
                    tracer.count("paths.panels")
                    tracer.count("paths.nodes", len(nodes))
                    return f(nodes)
                frame = tracer._enter(name)
                try:
                    return fn(counted, a, b, tol)
                finally:
                    tracer._exit(frame)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if name == "theta_table":
                tracer.radius_max = max(tracer.radius_max,
                                        *(e.radius for e in out.entries.values()))
            return out
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions on every loaded secondkind module."""
        mods = {k.split(".")[-1]: m for k, m in sys.modules.items()
                if k == "secondkind" or k.startswith("secondkind.")}
        originals = {id(getattr(mods[mod], attr)): (getattr(mods[mod], attr), name)
                     for (mod, attr), name in LAYER_FUNCTIONS.items() if mod in mods}
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, self._wrap(value, hit[1]))
                    self._undo.append((m, attr, value))
        paths, series = mods["paths"], mods["series"]
        self._patch(paths.SheetPath, "__init__", self._wrap(paths.SheetPath.__init__, "leg_path"))
        self._patch(paths.BranchLegPath, "__init__",
                    self._wrap(paths.BranchLegPath.__init__, "branch_leg"))
        post = series.TruncatedSeries.__post_init__

        def counted_post_init(obj):
            self.count("series.objects")
            post(obj)
        self._patch(series.TruncatedSeries, "__post_init__", counted_post_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def summary(self, ops: int) -> dict:
        """Per-operation self times (ms) and counts, plus the largest radius."""
        out = {k: v / ops for k, v in self.self_ms.items()}
        out.update({k: v / ops for k, v in self.counts.items()})
        out["theta.radius_max"] = self.radius_max
        return out

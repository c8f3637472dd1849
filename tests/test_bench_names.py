"""Every name the benchmark's tracer (``bench/spans.py``) wraps exists, and
the quadrature keeps the call shape its node count relies on.

The tracer replaces layer functions by (module, attribute) and patches
three classes in place; a missing name would only show as a failed traced
run.  The tracer module is read from its file; nothing under ``bench/`` is
imported by the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from secondkind import abel_from_infinity, abel_map, compute_periods, curve_from_branch_points
from test_paths import _per_interval, _reference_gl, _routes

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

#: The classes the tracer patches, and the method it replaces on each.
PATCHED = (
    ("paths", "SheetPath", "__init__"),
    ("paths", "BranchLegPath", "__init__"),
    ("series", "TruncatedSeries", "__post_init__"),
)


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_functions() -> dict:
    return _spans().LAYER_FUNCTIONS


def _module(name):
    return importlib.import_module(f"secondkind.{name}")


def test_every_traced_name_exists():
    functions = _layer_functions()
    assert len(functions) > 20
    missing = [f"{mod}.{attr}" for mod, attr in functions
               if not callable(getattr(_module(mod), attr, None))]
    missing += [f"{mod}.{cls}.{method}" for mod, cls, method in PATCHED
                if not callable(vars(getattr(_module(mod), cls, object)).get(method))]
    assert missing == []


def test_quadrature_keeps_the_traced_contract(monkeypatch):
    """The tracer wraps ``adaptive_gl(f, a, b, tol)`` and counts the nodes
    its integrand receives, so f must get 1-D node arrays of whole 32-node
    panels; ``paths.panels`` then counts integrand calls, one per level.
    All chains of a curve are one call.  Abel legs take no ``adaptive_gl``
    call: a map along the loop route integrates the far route's legs on
    their pieces, and the first such map on a curve the loop's 8 legs, so
    ``paths.quad_calls`` stays 1 through both maps while ``paths.legs``
    counts the legs integrated.  An s^2 leg into a branch point takes its
    pieces too: ``abel_from_infinity``, out of the branch point nearest its
    target, and ``abel_map`` into a branch point leave ``paths.quad_calls``
    at 1, and each of their ``BranchLegPath`` legs counts in
    ``paths.legs``.  The nodes counted are those of the recursion run
    interval by interval."""
    paths = _module("paths")
    assert list(inspect.signature(paths.adaptive_gl).parameters) == ["f", "a", "b", "tol"]
    sizes, calls = [], []
    batched = paths.adaptive_gl

    def recorded(f, a, b, tol):
        def g(x):
            assert np.ndim(x) == 1 and len(x) % 32 == 0, np.shape(x)
            sizes.append(len(x))
            return f(x)
        calls.append((f, a, b, tol))
        return batched(g, a, b, tol)

    monkeypatch.setattr(paths, "adaptive_gl", recorded)
    monkeypatch.setattr(_module("periods"), "adaptive_gl", recorded)
    curve = curve_from_branch_points((-2.0, -1.0, 0.0, 1.0, 2.0))
    p, q = curve.lift(0.5 + 1.0j), curve.lift(2.6 + 0.3j)
    far_legs = len(paths.Route(curve, _routes(curve, p, q)[1], p.y).legs)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        bundle = compute_periods(curve)
        assert tracer.counts["paths.quad_calls"] == 1
        # only the route via the far point with its loop ends on q's sheet
        abel_map(curve, bundle, p, q)
        assert tracer.counts["paths.quad_calls"] == 1
        assert tracer.counts["paths.legs"] == far_legs + 8
        abel_map(curve, bundle, p, q)
        assert tracer.counts["paths.quad_calls"] == 1
        assert tracer.counts["paths.legs"] == 2 * far_legs + 8
        # the s^2 leg out of e_0, which ties with e_1 as the nearest
        abel_from_infinity(curve, bundle, curve.lift(-1.5))
        assert tracer.counts["paths.quad_calls"] == 1
        assert tracer.counts["paths.legs"] == 2 * far_legs + 9
        abel_map(curve, bundle, p, curve.lift(1.0))
        assert tracer.counts["paths.quad_calls"] == 1
        assert tracer.counts["paths.legs"] == 2 * far_legs + 10
    finally:
        tracer.uninstall()
    counts = tracer.summary(1)
    assert counts["paths.nodes"] == sum(sizes)
    assert counts["paths.panels"] == len(sizes) < sum(sizes) / 32
    reference = sum(len(nodes) for f, a, b, tol in calls for g, lo, hi in _per_interval(f, a, b)
                    for nodes in _reference_gl(g, lo, hi, tol)[1])
    assert counts["paths.nodes"] == reference

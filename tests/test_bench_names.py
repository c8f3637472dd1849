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
    panels; ``paths.panels`` then counts integrand calls, one per level."""
    paths = _module("paths")
    assert list(inspect.signature(paths.adaptive_gl).parameters) == ["f", "a", "b", "tol"]
    sizes = []
    batched = paths.adaptive_gl

    def recorded(f, a, b, tol):
        def g(x):
            assert np.ndim(x) == 1 and len(x) % 32 == 0, np.shape(x)
            sizes.append(len(x))
            return f(x)
        return batched(g, a, b, tol)

    monkeypatch.setattr(paths, "adaptive_gl", recorded)
    monkeypatch.setattr(_module("periods"), "adaptive_gl", recorded)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        curve = curve_from_branch_points((-2.0, -1.0, 0.0, 1.0, 2.0))
        bundle = compute_periods(curve)
        abel_map(curve, bundle, curve.lift(0.5 + 1.0j), curve.lift(2.6 + 0.3j))
        abel_from_infinity(curve, bundle, curve.lift(-1.0))
    finally:
        tracer.uninstall()
    counts = tracer.summary(1)
    assert counts["paths.nodes"] == sum(sizes)
    assert counts["paths.panels"] == len(sizes) < sum(sizes) / 32

"""Every name the benchmark's tracer (``bench/spans.py``) wraps exists.

The tracer replaces layer functions by (module, attribute) and patches
three classes in place; a missing name would only show as a failed traced
run.  The tracer module is read from its file; nothing under ``bench/`` is
imported by the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

#: The classes the tracer patches, and the method it replaces on each.
PATCHED = (
    ("paths", "SheetPath", "__init__"),
    ("paths", "BranchLegPath", "__init__"),
    ("series", "TruncatedSeries", "__post_init__"),
)


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


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

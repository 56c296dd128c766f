"""The benchmark's tracer (perfbench/tracing.py) rebinds wdro functions
and methods by name.  Every name it lists must still exist, so that a
rename or a deletion fails here rather than inside a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in load_tracing().FUNCTIONS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_traced_methods_exist():
    missing = []
    for mod, cls_name, meth, _ in load_tracing().METHODS:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if cls is None or meth not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{meth}")
    assert missing == []

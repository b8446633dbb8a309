"""The benchmark's tracer wraps crnregions functions by name; every name it
lists must exist, or `bench/run.py --trace 1` breaks silently."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"crnregions.{name}")


def test_every_traced_name_resolves():
    spans = _spans()
    for module, function, _layer in spans.FUNCTIONS:
        assert callable(getattr(_module(module), function)), (module, function)
    # methods are looked up in the class's own namespace, as the tracer does
    methods = [entry[:3] for entry in spans.METHODS] + [spans.SQUAREFREE]
    for module, cls, method in methods:
        assert callable(vars(getattr(_module(module), cls)).get(method)), (module, cls, method)

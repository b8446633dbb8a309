"""The benchmark reaches into crnregions by name: its tracer wraps functions
and reads result attributes, and its workloads call the package's functions.
Every such name must exist, or `bench/run.py` breaks silently."""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

from crnregions.connectivity import ProbeReport
from crnregions.massaction import SteadyStateCount

BENCH = Path(__file__).parent.parent / "bench"
SPANS = BENCH / "spans.py"


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


def _readable(cls) -> set[str]:
    """Attributes an instance of the dataclass cls has: fields and class attributes."""
    return {f.name for f in dataclasses.fields(cls)} | set(dir(cls))


def test_every_attribute_the_tracer_reads_exists():
    # the oracle hook reads result.<name>, the probe hook report.<name>
    text = SPANS.read_text()
    for var, cls in (("result", SteadyStateCount), ("report", ProbeReport)):
        names = set(re.findall(rf"\b{var}\.(\w+)", text))
        assert names, var
        assert names <= _readable(cls), (cls.__name__, names - _readable(cls))


def test_every_name_the_workloads_call_resolves():
    text = (BENCH / "workloads.py").read_text()
    # prog.cr is the package, prog.regions its regions module
    for pattern, module in (
        (r"\bcr\.(\w+)", "crnregions"),
        (r"\bprog\.regions\.(\w+)", "crnregions.regions"),
    ):
        names = set(re.findall(pattern, text))
        assert names, pattern
        owner = importlib.import_module(module)
        missing = {name for name in names if not hasattr(owner, name)}
        assert not missing, (module, missing)

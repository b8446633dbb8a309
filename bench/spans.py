"""Spans around the public functions of each crnregions module.

Tracer.install replaces each listed function wherever the program looks it
up: in its defining module and in every crnregions module or package
namespace that imported it by name.  Each call made inside Tracer.run_op
records a span (operation, layer, start, end, parent) in memory;
Tracer.uninstall puts the originals back, and write() saves the spans as
tab-separated lines.  A layer's self
time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, function, layer): timed spans
FUNCTIONS = (
    ("network", "parse_network", "network.parse"),
    ("classify", "classify", "classify.classify"),
    ("regions", "regions_for_network", "regions.build"),
    ("regions", "connectivity_verdict", "regions.verdict"),
    ("regions", "region_to_json", "regions.json"),
    ("regions", "membership", "regions.membership"),
    ("regions", "membership_float", "regions.membership_float"),
    ("massaction", "steady_state_system", "massaction.system"),
    ("massaction", "count_positive_steady_states", "massaction.oracle"),
    ("unipoly", "sturm_count_positive", "unipoly.sturm"),
    ("unipoly", "sturm_count_open_interval", "unipoly.sturm"),
    ("unipoly", "isolate_positive_roots", "unipoly.isolate"),
    ("unipoly", "refine_root", "unipoly.refine"),
    ("connectivity", "probe", "connectivity.probe"),
)
# (module, class, method, layer): timed spans on methods
METHODS = (("regions", "SignCondition", "holds_float", "regions.holds_float"),)
# counted only, and only inside an oracle call
SQUAREFREE = ("unipoly", "UniPoly", "squarefree_part")

OP = "op"
ORACLE = "massaction.oracle"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording -----------------------------------------------------------

    def _timed(self, layer: str, fn, on_result=None):
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:  # outside an operation, e.g. in a check
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[layer] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                active[layer] -= 1
                stack.pop()
                spans[idx] = (self.op, layer, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _squarefree(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active[ORACLE]:
                self.counts["unipoly.squarefree_in_oracle"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _oracle_result(self, result) -> None:
        if not result.certified:
            self.counts["massaction.uncertified"] += 1

    def _probe_result(self, report) -> None:
        self.counts["connectivity.samples"] += report.n_samples
        self.counts["connectivity.accepted"] += report.accepted_samples
        self.counts["connectivity.edges"] += report.edge_count
        self.counts["connectivity.components"] += report.component_count

    def run_op(self, index: int, fn, *args):
        """Run one benchmark operation inside an ``op`` span."""
        self.op = index
        try:
            return self._timed(OP, fn)(*args)
        finally:
            self.op = -1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapper in reversed(self._patches or ()):
            setattr(owner, attr, orig)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every lookup site."""
        hooks = {ORACLE: self._oracle_result, "connectivity.probe": self._probe_result}
        wrapped = {}
        for module, func, layer in FUNCTIONS:
            orig = getattr(sys.modules[f"crnregions.{module}"], func)
            wrapped[id(orig)] = (orig, self._timed(layer, orig, hooks.get(layer)))
        patches = []
        for name, ns in list(sys.modules.items()):
            if name != "crnregions" and not name.startswith("crnregions."):
                continue
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    patches.append((ns, attr, value, wrapped[id(value)][1]))
        for module, cls, method, layer in METHODS:
            owner = getattr(sys.modules[f"crnregions.{module}"], cls)
            orig = vars(owner)[method]
            patches.append((owner, method, orig, self._timed(layer, orig)))
        module, cls, method = SQUAREFREE
        owner = getattr(sys.modules[f"crnregions.{module}"], cls)
        orig = vars(owner)[method]
        patches.append((owner, method, orig, self._squarefree(orig)))
        return patches

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Self time in ns and call count per layer, over all recorded spans."""
        child = [0] * len(self.spans)
        for _op, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i, (_op, layer, start, end, _parent) in enumerate(self.spans):
            self_ns[layer] += end - start - child[i]
            calls[layer] += 1
        return self_ns, calls

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tlayer\tstart_ns\tend_ns\n")
            for i, (op, layer, start, end, parent) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{layer}\t{start}\t{end}\n")

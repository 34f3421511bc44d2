"""Spans around the calls into qcones' public functions, from outside.

The tracer replaces each public function of the package modules by a
wrapper, at every qcones module that binds it, so calls between modules are
seen too (``search.q_spectrum`` lands in ``eigen.q_spectrum``).  A span is
``[name, start, end, parent, op, counts]``; spans stay in memory and are
written out once the run ends.  Private helpers are not wrapped: their time
is the self time of the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import comb

LAYERS = ("cli", "graphs", "graph6", "eigen", "cones", "moments", "search")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _sym_counts(args, kwargs, result) -> dict:
    n = len(_arg(args, kwargs, 0, "matrix"))
    return {"n3_sum": n ** 3}


def _count_counts(args, kwargs, result) -> dict:
    n, pattern = _arg(args, kwargs, 0, "g").n, _arg(args, kwargs, 1, "pattern")
    return {"tuples": {"C3": comb(n, 3), "C4": comb(n, 4)}.get(pattern, 0)}


def _search_counts(args, kwargs, result) -> dict:
    return {"candidates": result.cardinality, "classes": len(result.hits)}


# work counts read from arguments and results at the layer boundary
_COUNTERS = {
    "eigen.sym_eigenvalues": _sym_counts,
    "graphs.count_subgraphs": _count_counts,
    "search.search_family": _search_counts,
    "search.search_exhaustive": _search_counts,
}


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on ``remove``."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "qcones" or name.startswith("qcones.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"qcones.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def remove(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id, counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans) -> dict:
    """Per-function calls, busy and self seconds, plus the counts and ratios
    the benchmark names, keyed ``<module>.<fn>.<what>``."""
    child = [0.0] * len(spans)
    compares = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child[parent] += span[2] - span[1]
            if span[0] == "eigen.spectrum_compare":
                compares[parent] += 1
    out: dict = {}

    def add(key: str, value) -> None:
        out[key] = out.get(key, 0) + value

    for i, (name, start, end, _, _, counts) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", end - start)
        add(f"{name}.self_s", end - start - child[i])
        if not counts:  # no counter, or the call raised
            continue
        if name == "search.search_family":
            add(f"{name}.candidates", counts["candidates"])
            add(f"{name}.compared", compares[i])
            add(f"{name}.hits", counts["classes"])
        elif name == "search.search_exhaustive":
            add(f"{name}.scanned", counts["candidates"])
            add(f"{name}.reverified", compares[i])
            add(f"{name}.classes", counts["classes"])
        else:
            for what, value in counts.items():
                add(f"{name}.{what}", value)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

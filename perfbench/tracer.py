"""Span tracing from outside the program.

`Tracer.patched()` wraps, for the duration of a `with` block, every public
function of the traced prodnet modules, in the module that defines it
and in every prodnet module that imported it by name (for example both
`prodnet.percolation.run_batch` and `prodnet.cli.run_batch`), plus a few
class-level methods and `numpy.random.default_rng`.  Each call records a
span (name, start, end, parent) in memory; nothing inside `src/` changes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Layers are named after the modules.  `bounds` is left out: its solvers
# run in well under a millisecond and no workload exercises them.
LAYERS = (
    "network",
    "generators",
    "fileio",
    "percolation",
    "estimator",
    "contagion",
    "interventions",
    "cli",
)


def _reachability_bytes(tracer, args, result):
    # computed, not measured: the K x K bool closure plus its float32 copy
    k = args[0].node_count
    tracer.counters["network.reachability_bytes"] += 5 * k * k


def _fixed_point_iterations(tracer, args, result):
    tracer.counters["contagion.fixed_point_iterations"] += result.iterations


_RESULT_HOOKS = {
    "network.reachability": _reachability_bytes,
    "contagion.fixed_point_beta": _fixed_point_iterations,
}


class Tracer:
    """In-memory span recorder.

    spans[i] is (name, start, end, parent index or -1); a span's index is
    fixed when it opens, so parents always precede their children.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    def wrap(self, name: str, fn):
        hook = _RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; restore every original on exit."""
        from prodnet.network import ProductionNetwork

        modules = [importlib.import_module(f"prodnet.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "prodnet"]
        targets = []  # (owner, attribute, span name)
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and attr[0] != "_":
                    targets += [
                        (ns, a, f"{layer}.{attr}") for ns in namespaces for a, o in vars(ns).items() if o is obj
                    ]
        targets += [
            (ProductionNetwork, "__init__", "network.build"),
            (ProductionNetwork, "reachability", "network.reachability"),
            (np.random, "default_rng", "rng.default_rng"),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        wrapped = {}
        try:
            for (owner, attr, name), (_, _, original) in zip(targets, saved):
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.wrap(name, original)
                setattr(owner, attr, wrapped[id(original)])
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def wrapper_cost() -> float:
    """Seconds a traced call adds to a plain one, measured on a no-op."""
    tracer = Tracer()
    calls = 20_000

    def noop():
        return None

    def best(fn) -> float:
        times = []
        for _ in range(5):
            tracer.reset()
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return (best(tracer.wrap("noop", noop)) - best(noop)) / calls


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots(spans) -> list[int]:
    """Index of the outermost ancestor of each span."""
    out = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out

"""Span tracer that rebinds module globals of the ``nlirf`` package.

The library is not instrumented. Instead, while a pass is traced, every
function that one ``nlirf`` module imports from another (and every function
re-exported by the package root, which is how the benchmark calls in) is
replaced by a wrapper that opens a span, so each call across a module
boundary becomes a span whose parent is the span that was open when it
started. Layers are the module names. Spans are kept in memory and
aggregated when the run ends.

A few functions are counted rather than spanned: scalar functions called
very often (one span each would dominate the measurement) and functions
whose call count is itself a metric. Those bindings must exist; if one is
missing the tracer raises instead of reporting a zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS = ("models", "kernels", "irf", "hermite", "qmle", "identify", "bench", "cli")
CLIENT = "client"  # the benchmark's own request spans

# (home module, name) -> counter incremented on every call of the function,
# through any binding; in its home module it is counted without a span
COUNTED: Dict[Tuple[str, str], str] = {
    # scalar transition map, called 2*S*h times per Monte Carlo oracle
    ("models", "transition_g"): "models.transition_calls",
    # bandwidth resolution; kernels calls it internally once per weight build
    ("kernels", "silverman_bandwidth"): "kernels.bandwidth_calls",
    # one full paired-path simulation through g_hat
    ("irf", "simulate_paths"): "irf.path_sims",
}
# functions the benchmark calls through their home module, spanned there
ENTRY_POINTS = {("cli", "run")}


class TracerBindingError(RuntimeError):
    """A binding the tracer relies on is missing from the library."""


@dataclass(frozen=True)
class Span:
    request: int
    span_id: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(fn) -> Optional[str]:
    """Layer (module short name) that defines ``fn``, or None outside nlirf."""
    mod = getattr(fn, "__module__", "") or ""
    parts = mod.split(".")
    if len(parts) == 2 and parts[0] == "nlirf" and parts[1] in LAYERS:
        return parts[1]
    return None


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its direct children's.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations can simply be summed.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration - child_time[s.span_id]
    return dict(out)


class Tracer:
    """Holds spans and counters; ``install``/``uninstall`` swap the bindings."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []
        self.request = 0

    # -- span recording -------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Record the enclosed block as a span, child of the innermost open one."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(self.request, sid, parent, layer, name, start, end))
            self.counts[f"{layer}.calls"] += 1

    # -- bindings ---------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, counter: Optional[str]):
        tracer, name = self, fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.counts[counter] += 1
            with tracer.span(layer, name):
                return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bindings(self):
        """Yield (namespace, name, wrapper) for every binding to replace."""
        counted_fns = {}
        for mod, name in [*COUNTED, *ENTRY_POINTS]:
            fn = vars(importlib.import_module(f"nlirf.{mod}")).get(name)
            if not inspect.isfunction(fn):
                raise TracerBindingError(f"expected function nlirf.{mod}.{name} is missing")
            if (mod, name) in COUNTED:
                counted_fns[fn] = COUNTED[mod, name]

        for mod, ns in [("", importlib.import_module("nlirf"))] + [
            (m, importlib.import_module(f"nlirf.{m}")) for m in LAYERS
        ]:
            for name, fn in list(vars(ns).items()):
                if not inspect.isfunction(fn):
                    continue
                layer = layer_of(fn)
                if layer is None:
                    continue
                counter = counted_fns.get(fn)
                if (mod, name) in COUNTED:
                    yield ns, name, self._count_wrapper(fn, counter)
                elif (mod, name) in ENTRY_POINTS or layer != mod:
                    yield ns, name, self._span_wrapper(fn, layer, counter)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for ns, name, wrapper in list(self.bindings()):
            self._saved.append((ns, name, vars(ns)[name]))
            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            ns, name, original = self._saved.pop()
            setattr(ns, name, original)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Self time per layer (``<layer>.self_s``) plus every counter."""
        out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for layer, t in self_times(self.spans).items():
            out[f"{layer}.self_s"] = t
        for key, n in self.counts.items():
            out[key] = float(n)
        return out


"""In-memory span tracing of ``ehl`` from outside the library.

Wrappers replace the public functions of each ``ehl`` module at every place
a module binds them (``ehl.cli.load_samples``, ``ehl.hl.make_binning``, ...),
so calls between modules and inside one module both pass through a wrapper.
A layer is named after the module that defines the function. The
``ThreadPoolExecutor`` a module binds is replaced by one whose tasks open a
worker span whose parent is the span that submitted them, so spans in
worker threads nest under the request that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

MODULES = ("data", "isotonic", "evalue", "hl", "numeric", "recalibrate", "simulate", "cli")


class Span:
    __slots__ = ("id", "parent", "layer", "thread", "request", "t0", "t1", "error", "counts")

    def __init__(self, id_, parent, layer, thread, request, t0):
        self.id = id_
        self.parent = parent
        self.layer = layer
        self.thread = thread
        self.request = request
        self.t0 = t0
        self.t1 = t0
        self.error = False
        self.counts = None


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Work counted at the layer boundary, from a call's arguments and result.
COUNTERS = {
    "data.load_samples": lambda a, k, r: {"rows": len(r)},
    "isotonic.pava_fit": lambda a, k, r: {"obs": len(_first_arg(a, k, "samples").p), "knots": len(r.knots)},
    "evalue.split_evalue": lambda a, k, r: {"splits": r.B},
    "recalibrate.bagged_recalibrate": lambda a, k, r: {"bags": r.n_bags},
    "hl.hl_sweep": lambda a, k, r: {"cells": r.n_cells, "failed_cells": len(r.failures)},
}


class Tracer:
    """Collects spans from every thread; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.layers: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, layer: str, parent: Span | None = None, request: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span = Span(next(self._ids), parent.id if parent else None, layer, threading.get_ident(),
                        parent.request if parent else request, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, layer: str, request: int | None = None):
        s = self.open(layer, request=request)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            self.close(s)

    def wrap(self, layer: str, fn):
        count = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.error = True
                raise
            finally:
                self.close(s)
            if count is not None:
                try:
                    s.counts = count(args, kwargs, result)
                except Exception:  # a changed signature loses the count, not the run
                    s.counts = None
            return result

        return traced

    def executor_class(self, layer: str):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    s = tracer.open(layer, parent=parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.close(s)

                return super().submit(task, *args, **kwargs)

        return TracedExecutor

    @contextmanager
    def installed(self):
        """Swap the wrappers into the ``ehl`` modules for the duration."""
        saved = []
        for short in MODULES:
            module = importlib.import_module(f"ehl.{short}")
            for name, obj in list(vars(module).items()):
                layer = None
                if obj is ThreadPoolExecutor:
                    layer = f"{short}.worker"
                    new = self.executor_class(layer)
                elif (inspect.isfunction(obj) and not name.startswith("_")
                      and obj.__module__.startswith("ehl.") and obj.__module__ != "ehl.cli"):
                    # cli's own functions stay inside the cli layer
                    layer = f"{obj.__module__[4:]}.{obj.__name__}"
                    new = self.wrap(layer, obj)
                if layer is None:
                    continue
                self.layers.add(layer)
                saved.append((module, name, obj))
                setattr(module, name, new)
        try:
            yield self
        finally:
            for module, name, obj in saved:
                setattr(module, name, obj)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _module(span: Span) -> str:
    return span.layer.split(".", 1)[0]


class LayerStats:
    """Per-layer totals over a set of spans.

    A span's self time is its duration minus the time covered by the nearest
    spans below it that belong to another module: calls within one module
    (``hl.make_binning`` into ``hl.bin_quantile``, a study into its worker
    threads) stay in the caller's self time, as they are the same layer.
    """

    def __init__(self, spans: list[Span]):
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def foreign(span: Span, below: Span) -> list[tuple[float, float]]:
            out = []
            for c in children.get(below.id, ()):
                if _module(c) == _module(span):
                    out += foreign(span, c)
                elif min(c.t1, span.t1) > max(c.t0, span.t0):
                    out.append((max(c.t0, span.t0), min(c.t1, span.t1)))
            return out

        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.counts: dict[str, dict[str, float]] = {}
        for s in spans:
            dur = s.t1 - s.t0
            own = dur - _union_length(foreign(s, s))
            self.self_s[s.layer] = self.self_s.get(s.layer, 0.0) + own
            self.total_s[s.layer] = self.total_s.get(s.layer, 0.0) + dur
            self.calls[s.layer] = self.calls.get(s.layer, 0) + 1
            self.errors[s.layer] = self.errors.get(s.layer, 0) + int(s.error)
            if s.counts:
                bucket = self.counts.setdefault(s.layer, {})
                for key, value in s.counts.items():
                    bucket[key] = bucket.get(key, 0) + value

    def count(self, layer: str, key: str) -> float:
        return self.counts.get(layer, {}).get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(stats: LayerStats, layers: set[str], requests: int, overhead: float, scale: float):
    """Per-layer metrics by name: (value, unit), or None when the traced
    name no longer exists in ``ehl``. Times and counts are per traced
    request; times are multiplied by ``scale``, the run's speed factor."""
    out: dict[str, tuple[float, str] | None] = {}

    def need(*names):
        return all(n in layers for n in names)

    def self_s(layer):
        out[f"{layer}.self_s"] = (scale * stats.self_s.get(layer, 0.0) / requests, "s/req") if need(layer) else None

    def calls(layer):
        out[f"{layer}.calls"] = (stats.calls.get(layer, 0) / requests, "calls/req") if need(layer) else None

    def put(name, ok, value, unit):
        out[name] = (value, unit) if ok else None

    self_s("isotonic.pava_fit")
    calls("isotonic.pava_fit")
    put("isotonic.knots_per_obs", need("isotonic.pava_fit"),
        _ratio(stats.count("isotonic.pava_fit", "knots"), stats.count("isotonic.pava_fit", "obs")), "ratio")
    self_s("evalue.split_evalue")
    put("evalue.splits", need("evalue.split_evalue"),
        stats.count("evalue.split_evalue", "splits") / requests, "splits/req")
    self_s("data.split_indices")
    calls("data.split_indices")
    self_s("recalibrate.bagged_recalibrate")
    put("recalibrate.bags", need("recalibrate.bagged_recalibrate"),
        stats.count("recalibrate.bagged_recalibrate", "bags") / requests, "bags/req")
    self_s("isotonic.laplace_smooth")
    self_s("isotonic.interpolate")
    self_s("data.load_samples")
    put("data.load_samples.rows_per_s", need("data.load_samples"),
        _ratio(stats.count("data.load_samples", "rows"), scale * stats.total_s.get("data.load_samples", 0.0)),
        "rows/s")
    self_s("hl.make_binning")
    self_s("hl.hl_statistic")
    calls("hl.hl_test")
    put("hl.sweep.failed_cells_ratio", need("hl.hl_sweep"),
        _ratio(stats.count("hl.hl_sweep", "failed_cells"), stats.count("hl.hl_sweep", "cells")), "ratio")
    self_s("numeric.chisq_sf")
    calls("numeric.chisq_sf")
    self_s("evalue.sequential_evalue")
    self_s("evalue.exact_symmetrized_evalue")
    self_s("isotonic.oos_predict")
    self_s("simulate.generate_data")
    self_s("simulate.fit_logistic_linear")
    put("simulate.fit_failures_ratio", need("simulate.fit_logistic_linear"),
        _ratio(stats.errors.get("simulate.fit_logistic_linear", 0), stats.calls.get("simulate.fit_logistic_linear", 0)),
        "ratio")
    put("simulate.run_power_study.parallelism", need("simulate.run_power_study", "simulate.worker"),
        _ratio(stats.total_s.get("simulate.worker", 0.0), stats.total_s.get("simulate.run_power_study", 0.0)),
        "ratio")
    self_s("numeric.logsumexp")
    calls("numeric.logsumexp")
    self_s("cli")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out

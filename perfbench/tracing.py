"""Spans around every public function of the benford_xy modules.

The tracer wraps, from outside the package, each public function defined in
each module, and rebinds it wherever a module holds it (the module that
defines it, and every module that imported it by name). Kernels that are
later merged or renamed are therefore traced without editing this file.

A span records its layer (module), function name, start, end, parent span
and run id. Spans stay in memory until the run writes them out. Counts are
taken at the same boundaries:

- xy_exact: samples (lambda values) and cells (samples times quadrature
  nodes or chain modes) per outermost call, and minor page faults around it;
- numerics: quadrature nodes returned by outermost calls;
- firstdigit: values passed into outermost calls;
- violation: outermost calls (windows scored).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import threading
import time
import types
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "windowscan", "criticality", "xy_exact", "numerics", "firstdigit", "violation")


@dataclass
class Span:
    id: int
    layer: str
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    # set for outermost spans of the counting layers
    samples: int = 0
    modes: int = 0
    nodes: int = 0
    values: int = 0
    minor_faults: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    run: int = 0
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn):
        params = list(inspect.signature(fn).parameters)
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            outermost = parent is None or parent.layer != layer
            with self._lock:
                span = Span(len(self.spans), layer, name,
                            parent.id if parent else None, self.run, 0.0)
                self.spans.append(span)
            stack.append(span)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if (
                outermost and layer == "xy_exact") else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if outermost:
                _count(span, params, args, kwargs, result)
                if layer == "xy_exact":
                    span.minor_faults = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            if layer == "numerics" and outermost and parent is not None:
                # quadrature nodes feed the enclosing kernel's cell count
                owner = _outermost_of(stack, "xy_exact")
                if owner is not None:
                    owner.nodes += span.nodes
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _outermost_of(stack: list[Span], layer: str) -> Span | None:
    for s in stack:
        if s.layer == layer:
            return s
    return None


def _arg(params, args, kwargs, name):
    if name in kwargs:
        return kwargs[name]
    if name in params and params.index(name) < len(args):
        return args[params.index(name)]
    return None


def _count(span: Span, params, args, kwargs, result) -> None:
    if span.layer == "xy_exact":
        model = _arg(params, args, kwargs, "params")  # a ModelParams: one lambda
        lams = _arg(params, args, kwargs, "lams")
        if lams is None:
            lams = _arg(params, args, kwargs, "lam")
        if lams is None and model is not None:
            lams = model.lam
        if lams is None and isinstance(result, np.ndarray):
            lams = result
        span.samples = int(np.size(lams)) if lams is not None else 0
        n_sites = _arg(params, args, kwargs, "n_sites") or getattr(model, "n_sites", None)
        span.modes = int(n_sites) // 2 if n_sites else 0
    elif span.layer == "numerics":
        if (isinstance(result, tuple) and result
                and isinstance(result[0], np.ndarray) and result[0].ndim == 1):
            span.nodes = int(result[0].size)
    elif span.layer == "firstdigit":
        if args and isinstance(args[0], (np.ndarray, list, tuple)):
            span.values = int(np.size(args[0]))


def instrument(package: str = "benford_xy") -> Tracer:
    """Wrap every public function of every layer module; return the tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(layer, obj)
    # rebind in every package module, so names imported with
    # `from .module import name` are traced too
    pkg = importlib.import_module(package)
    holders = [pkg, *modules.values()]
    for mod in holders:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    return tracer


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time and counts from the recorded spans; all additive.

    A span's self time is its duration minus that of its direct children,
    so a layer's self time is the time its spans cover minus the time
    covered by spans of other layers.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        out[f"{s.layer}.self_s"] += (s.end - s.start) - child_time[s.id]
    outer = [s for s in spans if s.parent is None or spans[s.parent].layer != s.layer]
    xy = [s for s in outer if s.layer == "xy_exact"]
    out.update({
        "xy_exact.calls": len(xy),
        "xy_exact.samples": sum(s.samples for s in xy),
        "xy_exact.cells": sum(s.samples * (s.nodes or s.modes) for s in xy),
        "xy_exact.minor_faults": sum(s.minor_faults for s in xy),
        "numerics.nodes": sum(s.nodes for s in outer if s.layer == "numerics"),
        "firstdigit.values": sum(s.values for s in outer if s.layer == "firstdigit"),
        "violation.calls": sum(1 for s in outer if s.layer == "violation"),
        "trace.spans": len(spans),
    })
    return out


def with_rates(totals: dict[str, float]) -> dict[str, float]:
    """Totals plus the throughput of the kernel and digit layers."""
    out = dict(totals)
    for layer, count, rate in (("xy_exact", "cells", "cells_per_s"),
                               ("firstdigit", "values", "values_per_s")):
        busy = totals[f"{layer}.self_s"]
        out[f"{layer}.{rate}"] = totals[f"{layer}.{count}"] / busy if busy > 0 else 0.0
    return out

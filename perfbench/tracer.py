"""In-memory spans around the functions one mzq module calls in another.

``Tracer.install`` replaces each target function, in every loaded ``mzq``
module that holds it, by a wrapper that records a span: name, start, end,
parent and a few counts. ``Tracer.uninstall`` puts the originals back. A
target that a later refactor renames or removes is listed in ``missing``
and simply records nothing; a target that is no longer called reports zero
calls.

Spans are kept in a list and turned into per-layer metrics at the end. The
parent of a span is the innermost open span of the same thread; spans that
open on a thread with no open span (the fit pool's workers) hang under the
root span set by ``Tracer.root_span``. A span's self time is its duration
minus the part of its interval that its children cover, so spans of
concurrent workers are not counted twice.
"""
from __future__ import annotations

import importlib
import itertools
import os
import statistics
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    error: bool = False
    attrs: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _points(index, name, per_point=1):
    def adapt(call, args, kwargs):
        value = _arg(args, kwargs, index, name)
        size = 0 if value is None else int(np.size(value))
        return call(*args, **kwargs), {"points": size // per_point}
    return adapt


def _bytes_written(call, args, kwargs):
    result = call(*args, **kwargs)
    path = _arg(args, kwargs, 0, "path")
    return result, {"bytes": os.path.getsize(path) if path is not None else 0}


def _lm_counts(call, args, kwargs):
    """Count residual evaluations and read accepted steps off the result."""
    if not args or not callable(args[0]):
        return call(*args, **kwargs), {}
    fn = args[0]
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return fn(x)

    result = call(counted, *args[1:], **kwargs)
    history = getattr(result, "cost_history", None)
    attrs = {"evals": evals, "iterations": getattr(result, "iterations", 0),
             "params": len(getattr(result, "x", ()))}
    if history is not None:
        attrs["accepted"] = len(history) - 1
    return result, attrs


def _plain(call, args, kwargs):
    return call(*args, **kwargs), {}


# (module, function, span name, adapter). Span names are the metric prefixes.
TARGETS = (
    ("mzq.netcore", "solve_port_system_many", "netcore.solve_port_system_many",
     _points(0, "totals", per_point=16)),
    ("mzq.components", "total_matrix_stack", "components.total_matrix_stack", _plain),
    ("mzq.components", "bs_stack", "components.bs_stack", _plain),
    ("mzq.components", "tl_stack", "components.tl_stack", _plain),
    ("mzq.components", "qubit_stack", "components.qubit_stack", _plain),
    ("mzq.components", "sweep", "components.sweep", _points(1, "freqs")),
    ("mzq.components", "write_trace_csv", "components.trace_write", _bytes_written),
    ("mzq.components", "write_trace_json", "components.trace_write", _bytes_written),
    ("mzq.components", "read_trace", "components.trace_read", _plain),
    ("mzq.leastsq", "levenberg_marquardt", "leastsq.levenberg_marquardt", _lm_counts),
    ("mzq.estimate", "fit_spectrum", "estimate.fit_spectrum", _plain),
    ("mzq.estimate", "fit_ou", "estimate.fit_ou", _plain),
    ("mzq.estimate", "fit_gamma1", "estimate.fit_gamma1", _plain),
    ("mzq.estimate", "fit_gamma_phi_power", "estimate.fit_gamma_phi_power", _plain),
    ("mzq.physics", "gamma_phi_model", "physics.gamma_phi_model", _plain),
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root_span(self, name: str):
        """A span that also adopts the spans of threads with none open."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        self._root = sid
        start = perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            self._root = None
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, perf_counter(), error))

    def _wrap(self, original, name, adapt):
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            attrs = None
            start = perf_counter()
            try:
                result, attrs = adapt(original, args, kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, attrs is None, attrs or {}))
        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mzq" or key.startswith("mzq."))]
        for module_name, attr, name, adapt in self.targets:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, adapt)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c_start, c_end in sorted((c.start, c.end) for c in children.get(s.id, ())):
            lo, hi = max(c_start, reach), min(c_end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# Every per-layer metric with its unit, in the order the run prints them.
PER_LAYER = (
    ("netcore.solve_port_system_many.calls", "count"),
    ("netcore.solve_port_system_many.self_s", "s"),
    ("netcore.solve_port_system_many.us_per_point", "us"),
    ("components.total_matrix_stack.self_s", "s"),
    ("components.bs_stack.self_s", "s"),
    ("components.tl_stack.self_s", "s"),
    ("components.qubit_stack.self_s", "s"),
    ("components.sweep.calls", "count"),
    ("components.sweep.points", "count"),
    ("components.sweep.self_s", "s"),
    ("components.trace_write.s", "s"),
    ("components.trace_write.bytes", "bytes"),
    ("components.trace_read.s", "s"),
    ("leastsq.levenberg_marquardt.calls", "count"),
    ("leastsq.levenberg_marquardt.iterations", "count"),
    ("leastsq.levenberg_marquardt.residual_evals", "count"),
    ("leastsq.levenberg_marquardt.accept_ratio", "ratio"),
    ("leastsq.levenberg_marquardt.self_s", "s"),
    ("estimate.fit_spectrum.calls", "count"),
    ("estimate.fit_spectrum.median_s", "s"),
    ("estimate.fit_spectrum.self_s", "s"),
    ("estimate.fit_spectrum.failures", "count"),
    ("estimate.fit_ou.s", "s"),
    ("estimate.fit_gamma1.s", "s"),
    ("estimate.fit_gamma_phi_power.s", "s"),
    ("physics.gamma_phi_model.calls", "count"),
    ("physics.gamma_phi_model.self_s", "s"),
    ("physics.gamma_phi_model.us_per_call", "us"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.pool_speedup", "ratio"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(spans: list[Span], measured: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the spans; measured supplies the non-span ones."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total(name, key=None):
        if key is None:
            return sum((s.end - s.start for s in group(name)), 0.0)
        return sum(s.attrs.get(key, 0) for s in group(name))

    def self_s(name):
        return sum((own[s.id] for s in group(name)), 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    port = "netcore.solve_port_system_many"
    out[f"{port}.calls"] = len(group(port))
    out[f"{port}.self_s"] = self_s(port)
    out[f"{port}.us_per_point"] = ratio(total(port), total(port, "points"), 1e6)
    for stack in ("total_matrix_stack", "bs_stack", "tl_stack", "qubit_stack"):
        out[f"components.{stack}.self_s"] = self_s(f"components.{stack}")
    out["components.sweep.calls"] = len(group("components.sweep"))
    out["components.sweep.points"] = total("components.sweep", "points")
    out["components.sweep.self_s"] = self_s("components.sweep")
    out["components.trace_write.s"] = total("components.trace_write")
    out["components.trace_write.bytes"] = total("components.trace_write", "bytes")
    out["components.trace_read.s"] = total("components.trace_read")

    lm = "leastsq.levenberg_marquardt"
    accepted = total(lm, "accepted")
    # forward differences: one column per parameter at the start and after
    # every accepted step, plus the initial evaluation
    jacobian = sum(s.attrs.get("params", 0) * (s.attrs.get("accepted", 0) + 1) + 1
                   for s in group(lm))
    out[f"{lm}.calls"] = len(group(lm))
    out[f"{lm}.iterations"] = total(lm, "iterations")
    out[f"{lm}.residual_evals"] = total(lm, "evals")
    out[f"{lm}.accept_ratio"] = ratio(accepted, total(lm, "evals") - jacobian)
    out[f"{lm}.self_s"] = self_s(lm)

    fits = group("estimate.fit_spectrum")
    out["estimate.fit_spectrum.calls"] = len(fits)
    out["estimate.fit_spectrum.median_s"] = (
        statistics.median(s.end - s.start for s in fits) if fits else 0.0)
    out["estimate.fit_spectrum.self_s"] = self_s("estimate.fit_spectrum")
    out["estimate.fit_spectrum.failures"] = sum(s.error for s in fits)
    for fit in ("fit_ou", "fit_gamma1", "fit_gamma_phi_power"):
        out[f"estimate.{fit}.s"] = total(f"estimate.{fit}")

    gpm = "physics.gamma_phi_model"
    out[f"{gpm}.calls"] = len(group(gpm))
    out[f"{gpm}.self_s"] = self_s(gpm)
    out[f"{gpm}.us_per_call"] = ratio(total(gpm), len(group(gpm)), 1e6)

    out["cli.self_s"] = self_s("cli.main")
    out.update(measured)
    return {name: out[name] for name, _ in PER_LAYER}

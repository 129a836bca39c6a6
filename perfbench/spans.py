"""Outside-in tracing of the diskflow package from the benchmark's own code.

``Tracer.install`` rebinds every public function (no leading underscore)
in every ``diskflow.*`` module namespace to a wrapper that records a span.
Rebinding each namespace, not only the defining module, is what catches
calls made through ``from .x import f``.  Private helpers are never
wrapped, so the trace stays valid when internals change.

A span is [name, start, end, parent, op, thread].  Stacks are per thread
because sweeps run a thread pool; a span opened on a worker thread with an
empty stack takes the innermost open span of the installing thread as its
parent.  ``numpy.fft.rfft``/``irfft`` calls are charged to the innermost
open span, with bytes computed from the array shapes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import threading
import time

import numpy as np

MB = 1e6


class Tracer:
    def __init__(self):
        self.spans = []          # [name, t0, t1, parent, op, thread]
        self.fft = {}            # span index -> [calls, bytes]
        self.grids = []          # grids built while tracing (factor counts)
        self.snapshot_bytes = 0  # bytes written by write_snapshot
        self.held = []           # (snapshots, distinct MB) per energy_audit
        self.op = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = None
        self._undo = []

    # --------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else None

    def _wrap(self, fn, name: str):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = tracer._current()
            rec = [name, time.perf_counter(), 0.0, parent, tracer.op,
                   threading.get_ident()]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack = tracer._stack()
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return spanned

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            idx = tracer._current()
            nbytes = np.asarray(a).nbytes + out.nbytes
            with tracer._lock:
                c = tracer.fft.setdefault(idx, [0, 0])
                c[0] += 1
                c[1] += nbytes
            return out
        return counted

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import diskflow
        modules = [diskflow] + [
            importlib.import_module("diskflow." + m.name)
            for m in pkgutil.iter_modules(diskflow.__path__)]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("diskflow."):
                    continue
                if id(obj) not in wrappers:
                    name = "%s.%s" % (obj.__module__.split(".", 1)[1],
                                      obj.__name__)
                    wrappers[id(obj)] = self._wrap(obj, name)
                setattr(mod, attr, wrappers[id(obj)])
                self._undo.append((mod, attr, obj))
        for attr in ("rfft", "irfft"):
            fn = getattr(np.fft, attr)
            setattr(np.fft, attr, self._wrap_fft(fn))
            self._undo.append((np.fft, attr, fn))
        self._main = self._stack()

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()
        self._main = None

    def take(self) -> dict:
        """Aggregates of everything recorded so far, then clears the record."""
        agg = aggregate(self.spans, self.fft)
        agg["factor_count"] = sum(len(g.solver_cache) for g in self.grids)
        agg["snapshot_mb"] = self.snapshot_bytes / MB
        agg["held"] = list(self.held)
        spans = self.spans
        self.spans, self.fft, self.grids, self.held = [], {}, [], []
        self.snapshot_bytes = 0
        agg["spans"] = spans
        return agg


# --------------------------------------------------------------- hooks

def _grid_built(tracer, args, kwargs, grid):
    tracer.grids.append(grid)


def _snapshot_written(tracer, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.snapshot_bytes += os.path.getsize(path)


def _audit_inputs(tracer, args, kwargs, result):
    """Snapshots the audit holds, and their distinct array bytes."""
    seen, nbytes, count = set(), 0, 0
    for traj in args[:2]:
        for s in traj.snapshots:
            count += 1
            for arr in (s.q.values, s.w.values, s.phi.values,
                        s.u.u_r, s.u.u_theta):
                if id(arr) not in seen:
                    seen.add(id(arr))
                    nbytes += arr.nbytes
    tracer.held.append((count, nbytes / MB))


_HOOKS = {
    "grid.build_grid": _grid_built,
    "fields.write_snapshot": _snapshot_written,
    "harness.energy_audit": _audit_inputs,
}


# ---------------------------------------------------------- aggregation

def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def aggregate(spans, fft) -> dict:
    """Per span name: calls, durations and self time; FFT counts by layer."""
    children = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    by_name = {}
    for idx, (name, t0, t1, _, _, _) in enumerate(spans):
        s = by_name.setdefault(name, {"calls": 0, "self_s": 0.0,
                                      "durations": []})
        s["calls"] += 1
        s["durations"].append(t1 - t0)
        s["self_s"] += (t1 - t0) - _covered(children.get(idx, ()), t0, t1)
    fft_by_layer = {}
    for idx, (calls, nbytes) in fft.items():
        layer = spans[idx][0].split(".")[0] if idx is not None else "none"
        c = fft_by_layer.setdefault(layer, [0, 0])
        c[0] += calls
        c[1] += nbytes
    return {"names": by_name, "fft": fft_by_layer}

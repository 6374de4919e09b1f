"""Spans around the calls into each ncup module, installed from outside.

install() wraps every public function and public method defined in an
ncup.* module and rebinds the wrapper in every ncup.* namespace that holds
the original, so calls through re-exports are seen too.  It also wraps the
numpy kernel entry points and json.load.  ncup itself is not modified.

A span is (op, name, thread id, span id, parent span id, start, end).
Each thread keeps its own stack and totals, so worker threads of the audit
pool never update shared counters; totals are merged when read.  A span
that opens on an empty stack in a thread other than the one driving the
ops (a pool worker) is a child of the innermost span open in the driving
thread, so the audit waiting on its pool is not counted as self time.
Self time is a span's duration minus the union of its children's
intervals; over several threads it is summed, waits for the interpreter
lock included.  Raw spans are kept in memory up to a cap and written out
at the end; the totals cover every span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

SPAN_CAP = 100_000


def _matrices(a, *args, **kwargs) -> int:
    """Matrices in one (batched) linear-algebra call: prod(shape[:-2])."""
    return int(np.prod(np.shape(a)[:-2], dtype=np.int64))


def _file_bytes(fp, *args, **kwargs) -> int:
    """json.load reads the whole file."""
    return os.fstat(fp.fileno()).st_size


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _ThreadState:
    __slots__ = ("stack", "totals")

    def __init__(self) -> None:
        self.stack: list[tuple] = []
        self.totals: dict = {}


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._op_thread = self._thread_state()

    def _thread_state(self) -> "_ThreadState":
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._threads.append(state)
            return state

    def wrap(self, name: str, func, units=None):
        """Wrapper recording a span per call; `units(*args)` adds work units."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = self._thread_state()
            stack = state.stack
            outer = stack or (state is not self._op_thread and self._op_thread.stack)
            parent = outer[-1] if outer else None
            span_id = next(self._ids)
            frame = (span_id, [])
            stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1].append((start, end))
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0, 0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - _covered(frame[1])
                if units is not None:
                    total[3] += units(*args, **kwargs)
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (self.op, name, threading.get_ident(), span_id,
                         -1 if parent is None else parent[0], start, end)
                    )

        return traced

    def totals(self) -> dict:
        """name -> [calls, seconds, self seconds, units], over all threads."""
        merged: dict = {}
        for state in list(self._threads):
            for name, (calls, seconds, own, units) in list(state.totals.items()):
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0])
                acc[0] += calls
                acc[1] += seconds
                acc[2] += own
                acc[3] += units
        return merged

    def threads(self) -> int:
        return len(self._threads)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tthread\tspan\tparent\tstart_s\tend_s\n")
            for op, name, tid, span, parent, start, end in self.spans:
                fh.write(f"{op}\t{name}\t{tid}\t{span}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def _ncup_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "ncup" or name.startswith("ncup.")]


def install(tracer: Tracer) -> None:
    """Wrap the public API of every loaded ncup module and numpy's kernels."""
    wrappers = {}
    for module in _ncup_modules():
        layer = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    span = f"{layer}.{name}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        setattr(obj, attr, type(raw)(tracer.wrap(span, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(obj, attr, tracer.wrap(span, raw))
    for module in _ncup_modules():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])

    np.einsum = tracer.wrap("numpy.einsum", np.einsum)
    np.linalg.svd = tracer.wrap("numpy.svd", np.linalg.svd, units=_matrices)
    np.linalg.eigh = tracer.wrap("numpy.eigh", np.linalg.eigh, units=_matrices)
    np.linalg.norm = tracer.wrap("numpy.norm", np.linalg.norm)
    json.load = tracer.wrap("json.load", json.load, units=_file_bytes)

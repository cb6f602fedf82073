"""Spans around the public functions of the seven ``ttbell`` modules.

The traced run replaces every public function of ``quantum``,
``montecarlo``, ``lhv``, ``chsh``, ``polytope``, ``model_io`` and ``cli``
at its module attribute with a wrapper that records one span: name, start,
end and the span that was open when it was called.  Names a module bound
with ``from .x import f`` (``cli.scan_alpha``, ``lhv.quantum_joint``, ...)
are rebound to the same wrapper, so a call is traced whichever name it
goes through.  Spans stay in flat arrays in memory and are written out
once, when the run ends.

All spans come from one thread's call stack: a span's children are
disjoint and lie inside it, so the time they cover is the sum of their
durations, and a span's self time is its duration minus that sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from array import array

import numpy as np

MODULES = ("quantum", "montecarlo", "lhv", "chsh", "polytope", "model_io", "cli")

ROOT = -1  # parent index of a span opened outside any other span


class Tracer:
    """In-memory span store with one wrapper per traced function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self.work: dict[str, float] = {}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording a span per call; ``work(args, kwargs, result)``
        adds to ``self.work[name]`` after each call that returns."""
        nid = self.name_index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, totals = self._stack, self.clock, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if work is not None:
                totals[name] = totals.get(name, 0.0) + work(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        """(name_id, parent, duration) as numpy arrays, one entry per span."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return (
            np.frombuffer(self.name_id, dtype=np.int32).astype(np.intp),
            np.frombuffer(self.parent, dtype=np.int32).astype(np.intp),
            end - start,
        )

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    has_parent = parent != ROOT
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - child_time


def outermost(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Members with no member among their ancestors.

    Summing the durations of these counts nested calls within a group
    (``random_factorized_model`` -> ``factorized_model``) once.
    """
    nested = np.zeros(len(parent), dtype=bool)
    ancestor = parent.copy()
    live = ancestor != ROOT
    while live.any():
        nested[live] |= member[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor != ROOT
    return member & ~nested


def install(make_wrapper, only=None):
    """Replace the public functions of the traced modules by
    ``make_wrapper(name, fn)`` everywhere the modules bind them; returns a
    callable that puts the originals back.

    ``only`` limits the functions to a set of ``module.function`` names.
    """
    modules = [importlib.import_module(f"ttbell.{short}") for short in MODULES]
    replacement = {}
    for short, module in zip(MODULES, modules):
        for attr, fn in vars(module).items():
            name = f"{short}.{attr}"
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__ and (only is None or name in only)):
                replacement[fn] = make_wrapper(name, fn)
    saved = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacement:
                saved.append((module, attr, obj))
                setattr(module, attr, replacement[obj])

    def restore():
        for module, attr, obj in saved:
            setattr(module, attr, obj)

    return restore


class AllocProbe:
    """tracemalloc peak of single calls, traced only while the call runs."""

    def __init__(self):
        self.peak_bytes: dict[str, int] = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)

        return probed

"""Run-time wrappers around the library's layer boundaries.

Nothing here edits the library: :func:`install` replaces each span's
function in every ``coevents`` module namespace that binds it (and the two
``__str__`` methods on their classes) with a wrapper, and returns a
function that puts the originals back.

Two wrappers exist.  :class:`SpanTracer` records one span per call
(name, start, end, parent span, op id) in compact arrays and derives
calls and self time from them afterwards.  :class:`MemoryTracer` takes
the ``tracemalloc`` peak of each outermost span of a layer; it runs in a
pass of its own, since tracemalloc slows every allocation.
"""

from __future__ import annotations

import gzip
import json
import sys
import tracemalloc
from array import array
from itertools import count
from pathlib import Path
from time import perf_counter

import coevents.beables
import coevents.coevent
import coevents.measure

from layers import LAYERS, NAMES

# Spans that live on a class rather than in a module namespace.
_METHODS = {
    "measure.from_amplitudes": (coevents.measure.Measure, "from_amplitudes", True),
    "measure.from_atom_weights": (coevents.measure.Measure, "from_atom_weights", True),
    "coevent.render": (coevents.coevent.Coevent, "__str__", False),
    "beables.render": (coevents.beables.ValuationEvent, "__str__", False),
}


def _modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "coevents" or k.startswith("coevents.")]


def install(make_wrapper):
    """Wrap every span; ``make_wrapper(index, name, fn)`` builds one wrapper."""
    undo = []
    by_id = {}
    for idx, name in enumerate(NAMES):
        if name in _METHODS:
            cls, attr, is_classmethod = _METHODS[name]
            original = cls.__dict__[attr]
            fn = original.__func__ if is_classmethod else original
            wrapped = make_wrapper(idx, name, fn)
            setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)
            undo.append((cls, attr, original))
        else:
            layer, span = name.split(".")
            fn = getattr(sys.modules[f"coevents.{layer}"], span)
            by_id[id(fn)] = make_wrapper(idx, name, fn)
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
                undo.append((module, attr, value))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


class SpanTracer:
    """Spans in memory: per span, (id, name, parent, op) ints and (start, end) times."""

    def __init__(self):
        self.ints = array("q")
        self.times = array("d")
        self.op = -1
        self._stack = []
        self._ids = count()
        self.counts = {
            "violations_listed": 0,
            "validator_calls": 0,
            "distinct_rendered": set(),
        }

    def make_wrapper(self, idx, name, fn):
        ints, times, stack, ids = self.ints, self.times, self._stack, self._ids
        hook = self._hook(name)

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ints.extend((sid, idx, parent, self.op))
                times.extend((t0, t1))
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, name):
        counts = self.counts
        if name in ("measure.validate_classical", "measure.validate_quantum"):
            def hook(args, result):
                counts["violations_listed"] += len(result.violations)
                counts["validator_calls"] += 1
            return hook
        if name == "coevent.render":
            seen = counts["distinct_rendered"]

            def hook(args, result):
                phi = args[0]
                seen.add((phi.algebra.space.labels, phi.support))
            return hook
        return None

    def summary(self) -> dict:
        """Calls and self time per span name; self = duration minus child spans."""
        ints, times = self.ints, self.times
        total = len(times) // 2
        child = array("d", bytes(8 * total))
        for j in range(total):
            parent = ints[4 * j + 2]
            if parent >= 0:
                child[parent] += times[2 * j + 1] - times[2 * j]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for j in range(total):
            sid, idx = ints[4 * j], ints[4 * j + 1]
            calls[idx] += 1
            self_s[idx] += times[2 * j + 1] - times[2 * j] - child[sid]
        return {
            "calls": dict(zip(NAMES, calls)),
            "self_s": dict(zip(NAMES, self_s)),
            "spans": total,
        }

    def write(self, path: Path) -> None:
        """Spans as a gzip file: a JSON header line, then the int and time arrays."""
        header = {
            "names": NAMES,
            "spans": len(self.times) // 2,
            "ints": "int64 x4 (id, name index, parent id, op id)",
            "times": "float64 x2 (start, end), perf_counter seconds",
        }
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write((json.dumps(header) + "\n").encode())
            f.write(self.ints.tobytes())
            f.write(self.times.tobytes())


class MemoryTracer:
    """tracemalloc peak above the starting level, per outermost span of each layer."""

    def __init__(self):
        self.peak_kb = {layer: 0.0 for layer in LAYERS}
        self._depth = {layer: 0 for layer in LAYERS}
        self._open = []  # [start bytes, peak bytes] of each open outermost span

    def _fold(self):
        _, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            if peak > frame[1]:
                frame[1] = peak
        tracemalloc.reset_peak()

    def make_wrapper(self, idx, name, fn):
        layer = name.split(".")[0]
        depth, frames = self._depth, self._open

        def wrapper(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            self._fold()
            start = tracemalloc.get_traced_memory()[0]
            frame = [start, start]
            frames.append(frame)
            depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                frames.pop()
                depth[layer] -= 1
                kb = (frame[1] - frame[0]) / 1024
                if kb > self.peak_kb[layer]:
                    self.peak_kb[layer] = kb

        wrapper.__wrapped__ = fn
        return wrapper

"""Spans around calls into the grassfoil layers, recorded from outside.

The benchmark wraps every public function of the layer modules
(``geometry``, ``grassmann``, ``pga``, ``blade``, ``io``, ``svg``) and rebinds
the wrapper in every ``grassfoil`` namespace that holds the function, because
``cli`` and the layers import names such as ``validate_shape`` and ``log_map``
directly. A span holds its name, start, end and parent; spans are kept in
memory while tracing is on and written out when the run ends. Nothing under
``src/`` changes: a wrapper only times the call and reads its arguments and
result.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import time
from collections import defaultdict

LAYERS = ("geometry", "grassmann", "pga", "blade", "io", "svg")

# io functions that open a file themselves; the others (read_model,
# read_affine, read_blade) go through read_json, so counting these leaves
# counts every file once
_FILE_READERS = ("io.read_coordinates", "io.read_json", "io.read_wireframe")


class Tracer:
    """In-memory span recorder; while inactive a wrapper only tests a flag."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        faults = name == "geometry.validate_shape"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if faults:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
                if faults:
                    self.counters["geometry.validate_shape.minflt"] += (
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                        - before)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every grassfoil namespace."""
        package = importlib.import_module("grassfoil")
        modules = {m: importlib.import_module(f"grassfoil.{m}")
                   for m in LAYERS + ("cli",)}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for ns in (package, *modules.values()):
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _count_ordered(counters, args, result) -> None:
    counters["geometry.validate_shape.ordered"] += bool(result.ordering_ok)


def _count_attempts(counters, args, result) -> None:
    # args[0] is the baseline list; the first len(baselines) items are the
    # baselines themselves, evaluated once each and never resampled
    perturbed = result[len(args[0]):]
    counters["geometry.gen_dataset.kept"] += len(perturbed)
    counters["geometry.gen_dataset.evaluated"] += sum(
        s.attempts for s in perturbed)


def _count_bytes_read(counters, args, result) -> None:
    counters["io.bytes_read"] += os.path.getsize(args[0])


_OBSERVERS = {
    "geometry.validate_shape": _count_ordered,
    "geometry.gen_dataset_detailed": _count_attempts,
    **{name: _count_bytes_read for name in _FILE_READERS},
}


def self_times(spans) -> tuple[dict, dict, list]:
    """Per-name call counts and self seconds, plus each span's root span id.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    for sid, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[sid] = root[parent]
        else:
            root[sid] = sid
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for sid, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
    return calls, self_s, root

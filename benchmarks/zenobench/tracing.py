"""Span tracing of zenolab from outside the package.

Tracer.install() wraps every public function of the measured modules, and
every public method, classmethod and constructor of their public classes, in
a span recorder. A function is replaced under every name it is bound to in
any loaded zenolab module, so calls that go through ``from .x import y``
bindings are traced too. uninstall() puts the originals back.

A span records its id, name, start, end, parent span and op id. Every span
record is kept in memory, packed into two typed arrays (a 55-s traced run
makes about 1.8 million spans), and written out by the caller when the run
ends. Aggregates (inclusive time, self time and calls per name) are kept
as well. Self time is the duration minus the time covered by child spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "states", "channels", "curves", "measurement", "bounds", "scenario", "sweep", "corpus")
# Columns of the span records: INT_FIELDS in one int32 array, TIME_FIELDS
# (perf_counter seconds) in one float64 array. A span with no parent has
# parent -1; spans outside any op (the setup) have op -1.
INT_FIELDS = ("id", "name", "parent", "op")
TIME_FIELDS = ("start", "end")
UNSET = -1


def _count_steps(counts, args, kwargs, result):
    partition = args[3] if len(args) > 3 else kwargs["partition"]
    counts["steps"] += partition.n
    counts["times"] += partition.n + 1


def _count_projectors(counts, args, kwargs, result):
    counts["projectors"] += len(result.projectors)


def _count_checks(counts, args, kwargs, result):
    counts["checks"] += result.checks_run


def _count_frames_bytes(counts, args, kwargs, result):
    curve_spec = args[0] if args else kwargs["curve_spec"]
    if "sampled" in curve_spec:
        base_dir = args[4] if len(args) > 4 else kwargs.get("base_dir", ".")
        counts["frames_bytes"] += os.path.getsize(os.path.join(base_dir, curve_spec["sampled"]["file"]))


def _count_csv_bytes(counts, args, kwargs, result):
    counts["csv_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Counts taken from a call's arguments or result, keyed by span name.
HOOKS = {
    "measurement.run_measurement": _count_steps,
    "channels.rank1_family": _count_projectors,
    "corpus.run_battery": _count_checks,
    "scenario.build_curve": _count_frames_bytes,
    "sweep.write_csv": _count_csv_bytes,
}


def _public_targets(module, layer):
    """(owner, attribute, span name, function) for each traced callable."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{layer}.{attr}", obj
        elif inspect.isclass(obj):
            # A dataclass's generated __init__ calls __post_init__; trace only that.
            constructor = "__post_init__" if dataclasses.is_dataclass(obj) else "__init__"
            for mname, member in list(vars(obj).items()):
                if mname.startswith("_") and mname != constructor:
                    continue
                func = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    yield obj, mname, f"{layer}.{attr}.{mname}", member


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.op_id = UNSET
        self.name_ids: dict[str, int] = {}
        self.span_ints = array("i")
        self.span_times = array("d")
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def clear(self):
        """Drop the aggregates and counts; span records are kept."""
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, name, func):
        stack = self._stack
        hook = HOOKS.get(name)
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        ints, times = self.span_ints, self.span_times

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else UNSET
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                ints.extend((span_id, name_id, parent, self.op_id))
                times.extend((start, end))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        traced.__doc__ = func.__doc__
        traced.__wrapped__ = func
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zenolab.{layer}")
            for owner, attr, name, member in _public_targets(module, layer):
                if inspect.isclass(owner):
                    if isinstance(member, (classmethod, staticmethod)):
                        patched = type(member)(self._wrap(name, member.__func__))
                    else:
                        patched = self._wrap(name, member)
                    self._patches.append((owner, attr, member))
                    setattr(owner, attr, patched)
                else:
                    wrappers[id(member)] = (member, self._wrap(name, member))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "zenolab" or modname.startswith("zenolab.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: str):
        """Write every span record to a compressed .npz file, one row per span."""
        np.savez_compressed(
            path,
            names=np.array(list(self.name_ids)),
            int_fields=np.array(INT_FIELDS),
            ints=np.frombuffer(self.span_ints, dtype=np.intc).reshape(-1, len(INT_FIELDS)),
            time_fields=np.array(TIME_FIELDS),
            times=np.frombuffer(self.span_times, dtype=np.float64).reshape(-1, len(TIME_FIELDS)),
        )

"""Span tracing of the passivenet layers, installed from outside the package.

``install`` wraps every public function and public method defined in the
layer modules, and rebinds each name wherever a passivenet module imported
it, so calls between modules are traced too.  Each call records one span:
name, start, end (ns) and the index of its parent span.  Spans are kept in
flat arrays in memory and written out by ``save``; ``layer_totals`` derives
per-name call counts and self time (span minus the part its child spans
cover).  A name that the package no longer defines is simply never called,
so it reports zero calls.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array

LAYER_MODULES = ("config", "lti", "delay", "observer", "allocator", "sim", "output")
ROOT = -1


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [ROOT]
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording one span per call; ``after`` sees each call's arguments and result."""
        ident = self.intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(index)
            start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def save(self, path) -> None:
        """Write every span as fixed-width columns: name_id, parent, start_ns, end_ns."""
        with open(path, "wb") as fh:
            fh.write(("\n".join(self.names) + "\n\n").encode())
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)

    def layer_totals(self) -> dict[str, dict]:
        """{name: {"calls", "total_ns", "self_ns"}} over every recorded span."""
        import numpy as np

        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child_ns
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_ns, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }


def _count_allocation(recorder, args, kwargs, result):
    e_obs = args[0] if args else kwargs["e_obs"]
    if result.fired:
        recorder.count("allocator.allocate.fired")
    elif e_obs < 0.0:
        recorder.count("allocator.allocate.deferred")


def _count_trace_rows(recorder, args, kwargs, result):
    trace, path = args[0], args[1]
    decimation = args[2] if len(args) > 2 else kwargs.get("decimation", 1)
    recorder.count("output.write_trace.rows", sum(1 for r in trace.records if r.n % decimation == 0))
    recorder.count("output.write_trace.bytes", os.path.getsize(path))


AFTER = {
    "allocator.allocate": _count_allocation,
    "output.write_trace": _count_trace_rows,
}


def _public_callables(module):
    """(owner, attribute, qualified name) for each public function and method defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}"
        elif inspect.isclass(obj):
            for meth, fn in list(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{short}.{attr}.{meth}"


def install(recorder: Recorder, package: str = "passivenet") -> None:
    """Wrap the public callables of every layer module of the imported ``package``."""
    importlib.import_module(package)
    modules = [m for key, m in list(sys.modules.items())
               if key == package or key.startswith(package + ".")]
    for module in modules:
        if module.__name__ not in {f"{package}.{name}" for name in LAYER_MODULES}:
            continue
        for owner, attr, qualname in list(_public_callables(module)):
            original = vars(owner)[attr]
            traced = recorder.wrap(original, qualname, AFTER.get(qualname))
            setattr(owner, attr, traced)
            if owner is module:  # rebind the copies that `from .x import f` made
                for other in modules:
                    if vars(other).get(attr) is original:
                        setattr(other, attr, traced)

"""In-memory span recorder that wraps jpencil's public functions from outside.

A span is one call of a wrapped function: its name, start, end, parent span
and certificate id.  Spans are stored column-wise in `array` buffers so that
a run with a million gcd-layer calls stays in tens of megabytes; they are
written out only when the run ends.

Wrapping replaces the module attribute, and every other module attribute
bound to the same function object by `from .x import y`, so a call such as
`coefficient_gcd` inside `exterior.saturate` is attributed to its span.
Dunder arithmetic is never wrapped.
"""

import functools
import json
import os
from array import array
from time import perf_counter


class Tracer:
    """Records spans of the functions wrapped by `install`; one per run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cert = array("i")
        self.nested = array("b")  # 1 when a span of the same name encloses it
        self._stack = [-1]
        self._active = []
        self._cert_id = -1
        self.observers = {}  # name -> callable(args, kwargs, result)
        self._patched = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def call(self, nid, fn, args, kwargs):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.cert.append(self._cert_id)
        self.nested.append(1 if self._active[nid] else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._active[nid] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._active[nid] -= 1
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        observer = self.observers.get(self.names[nid])
        if observer is not None:
            observer(args, kwargs, result)
        return result

    def wrapper(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        return traced

    def certificate(self, cert_id, fn, *args):
        """Run fn(*args) as the root span of certificate cert_id."""
        self._cert_id = cert_id
        try:
            return self.call(self.name_id("bench.certificate"), fn, args, {})
        finally:
            self._cert_id = -1

    def install(self, targets, modules):
        """Wrap each (owner, attribute, span name) in targets.

        The original object is also replaced wherever a module in modules
        binds it under any name.
        """
        for owner, attr, span_name in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrapper(span_name, original)
            self._patch(owner, attr, original, traced)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, original, traced)

    def _patch(self, owner, attr, original, traced):
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- aggregation -----------------------------------------------------

    def summary(self):
        """Per span name: calls, busy_s (outermost spans only), self_s."""
        n = len(self.name)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            if not self.nested[i]:
                row["busy_s"] += dur
        return out

    def root_time(self):
        return sum(self.end[i] - self.start[i] for i in range(len(self.name))
                   if self.parent[i] < 0)

    def write(self, directory, header):
        """Write the spans as raw columns (machine byte order) plus a JSON header."""
        os.makedirs(directory, exist_ok=True)
        columns = {"name": self.name, "start": self.start, "end": self.end,
                   "parent": self.parent, "cert": self.cert}
        for key, column in columns.items():
            with open(os.path.join(directory, key + ".bin"), "wb") as fh:
                column.tofile(fh)
        meta = dict(header)
        meta["names"] = self.names
        meta["count"] = len(self.name)
        meta["columns"] = {key: column.typecode for key, column in columns.items()}
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)

"""In-memory span recorder that wraps a package's entry points from outside.

A wrapped call appends one span: name, start, end, the span it was called
under, and the trace id current at the time (the benchmark uses one trace
id per item).  Self time is a span's duration minus the part of it that
its direct children cover; work counts are taken from the wrapped call's
arguments and return value by a per-entry-point count function.
"""

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict


def _resolve(path):
    """(owner, attribute) for a dotted path such as pkg.mod.Class.method."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(f"traced entry point {path} does not exist")
        return owner, parts[-1]
    raise ModuleNotFoundError(f"no importable module in {path}")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1, trace id]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.trace_id = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.trace_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _bindings(self, owner, attr, original):
        """Every place a call site can resolve `original` from.

        A class attribute is the only binding of a method.  A module-level
        function is also bound wherever `from x import f` copied it, so
        every module of the package is searched for the same object.
        """
        if isinstance(owner, type):
            return [(owner, attr)]
        found = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            found += [(mod, key) for key, val in list(vars(mod).items()) if val is original]
        return found

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every binding of each (span name, dotted path, count) target."""
        try:
            for name, path, count in targets:
                owner, attr = _resolve(path)
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, count)
                for where, key in self._bindings(owner, attr, original):
                    self._patches.append((where, key, original))
                    setattr(where, key, wrapped)
            yield self
        finally:
            for where, key, original in reversed(self._patches):
                setattr(where, key, original)
            self._patches.clear()
            self.trace_id = None

    def table(self, keep=lambda trace_id: True):
        """{span name: {"calls", "s", "self_s"}} over spans whose trace id
        passes `keep`.  `s` counts only the outermost of nested same-name
        spans, so a recursive entry point is not counted twice."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        rows = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent, trace_id) in enumerate(spans):
            if not keep(trace_id):
                continue
            row = rows[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[idx]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                row["s"] += end - start
        return dict(rows)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, trace_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace_id}))
                fh.write("\n")

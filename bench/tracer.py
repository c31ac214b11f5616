"""Spans around the package's public functions, recorded from outside.

A Tracer wraps each listed function and rebinds the wrapper under every
name through which the package's modules call it (``metrics.eig_full``,
``suites.eig_full`` and ``linalg.eig_full`` all become the same wrapper),
so nothing under ``src/`` changes.  Each call appends a span
(name, start, end, parent, request) to an in-memory list; a span's self
time is its duration minus the time its direct children cover, and the
request is the outermost span of the CLI call that caused it.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, request]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            request = stack[0] if stack else index
            span = [name, 0.0, 0.0, parent, request]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, modules, targets):
        """Wrap each (module, function name, span name) target and rebind
        the wrapper wherever one of ``modules`` binds the original."""
        for module, func_name, span_name in targets:
            original = getattr(module, func_name)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> tuple[dict, Counter]:
        """Total self seconds and exact call count per span name."""
        if not self.spans:
            return {}, Counter()
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        duration = end - start
        covered = np.zeros(len(self.spans))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        own = duration - covered
        totals: dict[str, float] = {}
        for name, seconds in zip(names, own.tolist()):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals, Counter(names)

    def requests(self) -> int:
        """Number of outermost spans, one per traced CLI call."""
        return sum(1 for s in self.spans if s[3] < 0)

    def write(self, path):
        """Write every span as [name, start, end, parent, request]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "spans": self.spans}, fh)
            fh.write("\n")

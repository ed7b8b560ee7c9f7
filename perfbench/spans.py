"""In-memory span recording for the traced benchmark run.

A span is one call into a wrapped function: its name, host start and end
time (`hosttime.clock`) and the span that was open when it began (its parent).
Spans are kept in flat arrays until the run ends; ``totals`` then
derives, per name, the call count, inclusive time and self time (duration
minus the time covered by direct children).

Wrappers are installed from outside the program: on instance attributes
(which shadow the class methods for that one object) or on module
attributes, and ``Patch`` puts module attributes back afterwards.
"""

from __future__ import annotations

from array import array
from collections import Counter

from hosttime import clock


class Spans:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counts = Counter()   # counts taken at the same boundaries

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` recording one span per call.  `on_result(args,
        result)` runs after the span closes, to take counts."""
        nid = self._id(name)
        stack = self._stack
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def wrap_method(self, obj, method: str, name: str, on_result=None):
        setattr(obj, method,
                self.wrap(name, getattr(obj, method), on_result))

    def totals(self) -> dict:
        """{name: (calls, inclusive seconds, self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            d = end[i] - start[i]
            calls[nid] += 1
            incl[nid] += d
            own[nid] += d - child[i]
        return {name: (calls[i], incl[i], own[i])
                for i, name in enumerate(self.names)}


class Patch:
    """Set module (or class) attributes for the duration of a `with`."""

    def __init__(self, target, **attrs):
        self.target = target
        self.attrs = attrs
        self.saved = {}

    def __enter__(self):
        for k, v in self.attrs.items():
            self.saved[k] = getattr(self.target, k)
            setattr(self.target, k, v)
        return self

    def __exit__(self, *exc):
        for k, v in self.saved.items():
            setattr(self.target, k, v)
        return False

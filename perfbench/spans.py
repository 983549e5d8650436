"""In-memory span recorder for the traced run.

Wrappers are installed from outside the program, by replacing module
attributes, around the calls into each layer. A span records its name,
start, end (perf_counter nanoseconds), parent span and the op it belongs
to. Spans are kept in flat typed arrays so that a run of several hundred
thousand LAPACK calls stays small, and are written out once at the end.
Calls made while no op is running (warm-up is traced too, but output checks
and microbenchmarks are not) record nothing.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.attrs: dict = {}  # span id -> facts taken from the return value
        self._stack: list = []
        self._patches: list = []
        self.op_index = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, describe=None, root: bool = False):
        """Return `fn` wrapped in a span named `name`.

        `describe(args, kwargs, result)` may return a tuple of facts to keep
        with the span. A root wrapper opens a span even with no op running.
        """
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            sid = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else NO_PARENT)
            self.op.append(self.op_index)
            self.start.append(0)
            self.end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if describe is not None:
                self.attrs[sid] = describe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, describe))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Spans as numpy arrays, with durations and self times in ns."""
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        ) if len(dur) else np.zeros(0)
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name", "parent", "op", "start", "end")},
        )

"""In-memory span tracing from outside the library.

Each traced function is replaced, at the module attribute where its caller
looks it up, by a wrapper that records one span: name, start, end, parent
span and operation id.  Spans stay in a list until the run ends.  A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Callable

# A span is a list [name, start_s, end_s, parent_index, op_id, attrs].
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Records spans while ``enabled``; wrappers stay installed until
    ``restore`` puts the original attributes back."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.op: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[ATTRS] = attrs
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def wrap(self, owner: object, attr: str, name: str,
             describe: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``describe(args, kwargs, result)`` returns attributes read from the
        return value.  An exception is recorded as ``{"error": <class>}``
        and re-raised.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, {"error": type(exc).__name__})
                raise
            tracer.close(idx)
            if describe:
                tracer.spans[idx][ATTRS] = describe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            p = spans[parent]
            a, b = max(span[START], p[START]), min(span[END], p[END])
            if b > a:
                children.setdefault(parent, []).append((a, b))
    return [
        (s[END] - s[START]) - _union_length(children.get(i, []))
        for i, s in enumerate(spans)
    ]

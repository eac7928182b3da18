"""Spans around calls into the kernel's layers, recorded from outside `izf`.

A `Tracer` replaces a public function at one caller's binding (for example
`izf.realizability.canon_key`, the name the realizability module looks up at
call time) with a wrapper that records a span.  Recursive internals are never
wrapped, so a span is one call across a layer boundary.  Each span has a name,
a start, an end, its parent span and the operation it belongs to; spans stay
in memory and are written out by `dump`.  Aggregates (calls, inclusive and
self time, plus counts such as reduction steps) are kept for every span, while
the stored span list is capped so a long traced run keeps bounded memory.

A binding that no longer exists is reported in `absent` instead of failing.
"""

from __future__ import annotations

import json
import time
from typing import Callable

SPAN_CAP = 200_000


class _Agg:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self) -> None:
        self.op_id = 0
        self.aggs: dict[str, _Agg] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        on_call: Callable[["Tracer", tuple, object], None] | None = None,
    ) -> None:
        """Record a `span` around every call of `owner.attr` made through that binding.

        `on_call(tracer, args, result)` runs after a call returns, to count work.
        """
        target = getattr(owner, attr, None)
        if target is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        agg = self.aggs.setdefault(span, _Agg())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                agg.calls += 1
                agg.total += dur
                agg.self_time += dur - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, span, t0, t1, parent, self.op_id))
                else:
                    self.dropped += 1
            if on_call is not None:
                on_call(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, target))

    def unwrap(self) -> None:
        for owner, attr, target in reversed(self._installed):
            setattr(owner, attr, target)
        self._installed.clear()

    def summary(self) -> dict:
        return {
            "aggs": {k: [a.calls, a.total, a.self_time] for k, a in self.aggs.items()},
            "counts": self.counts,
            "dropped": self.dropped,
            "absent": self.absent,
        }

    def dump(self, path) -> None:
        """Write the stored spans as JSON lines: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

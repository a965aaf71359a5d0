"""In-memory timing spans around the public functions of each rto_sim layer.

A span records its name, start, end and the span that caused it (its
parent).  Spans are kept in flat arrays, which the garbage collector does not
scan, and ``Tracer.write`` saves them when the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name by name id
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")  # index of the parent span, -1 for a root
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, array] = {}  # only for names that report percentiles
        self.counts: dict[str, float] = {}  # outcome counters, keyed "<span>.<counter>"
        self._open: list[list] = []  # [span index, start, seconds spent in children]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return self._name_ids[name]

    def wrap(self, name: str, fn, *, keep_durations: bool = False, observe=None, name_of=None):
        """Return `fn` wrapped in a span.

        `name_of(args)` may pick the span name per call; `observe(args, result)`
        may add outcome counts once the call returns.
        """
        clock = time.perf_counter
        stack = self._open

        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of is not None else name
            if keep_durations and span_name not in self.durations:
                self.durations[span_name] = array("d")
            index = len(self.span_start)
            self.span_name.append(self._name_id(span_name))
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            opened = [index, 0.0, 0.0]
            stack.append(opened)
            opened[1] = start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(span_name, opened, end)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _close(self, name: str, opened: list, end: float) -> None:
        index, start, child_s = opened
        duration = end - start
        self.span_end[index] = end
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if name in self.durations:
            self.durations[name].append(duration)
        if self._open:
            self._open[-1][2] += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            for name_id, start, end, parent in zip(self.span_name, self.span_start,
                                                   self.span_end, self.span_parent):
                fh.write(f"{self.names[name_id]},{start!r},{end!r},{parent}\n")

"""In-memory spans around the benchmark's own calls into the program.

A span is ``(id, parent, name, start_ns, end_ns, counts)``; the parent is the
span that was open when it started, so the spans of one operation hang off
that operation's span. Spans stay in a list until :meth:`Tracer.write` saves
them at the end of a run. Untraced runs use :data:`NO_TRACE`, whose spans
record nothing and cost well under a microsecond.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start_ns, end_ns, counts)
        self._stack = [None]

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        sid = len(self.spans)
        parent = self._stack[-1]
        self.spans.append(None)  # keeps ids in start order
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield counts
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, counts)

    def named(self, name: str):
        return [s for s in self.spans if s[2] == name]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     **counts}) + "\n")


class _NoSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class _NoTrace:
    _span = _NoSpan()

    def span(self, name: str, **counts):
        return self._span


NO_TRACE = _NoTrace()

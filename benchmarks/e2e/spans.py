"""Benchmark-side spans: recorded around calls into a layer, from outside.

A span is ``(id, name, start_ns, end_ns, parent id, request id)``.  Spans
stay in memory during the run and are written as JSON lines when the
benchmark ends (``results/trace_<workload>.jsonl``), one object per line::

    {"id": 7, "name": "core.window_query", "start_ns": ..., "end_ns": ...,
     "parent": 6, "request": 1234}

Spans of one operation share its ``request`` id; ``parent`` is the span
that was open when this one began (``null`` for an operation's root).  A
layer's *self time* is its span's duration minus the part its children
cover.  Nothing here touches ``src/``: wrappers are installed on object
*instances* by the benchmark and only in the traced run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["SpanRecorder"]

_now = time.perf_counter_ns


class SpanRecorder:
    """In-memory span log for one process (single-threaded use)."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent, request]; the span id is the index.
        self.rows: list[list] = []
        self._open: list[int] = []
        self.request: "int | None" = None
        #: wrappers installed by :meth:`wrap` pass straight through while
        #: this is false (the untraced passes of a traced run).
        self.enabled = True

    @contextmanager
    def span(self, name: str, request: "int | None" = None):
        """Record one span; ``request`` starts a new operation."""
        if request is not None:
            self.request = request
        sid = len(self.rows)
        row = [name, 0, 0, self._open[-1] if self._open else None, self.request]
        self.rows.append(row)
        self._open.append(sid)
        row[1] = _now()
        try:
            yield sid
        finally:
            row[2] = _now()
            self._open.pop()

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: "int | None",
        request: "int | None",
    ) -> int:
        """Record a span measured elsewhere (e.g. a server-reported phase)."""
        self.rows.append([name, int(start_ns), int(end_ns), parent, request])
        return len(self.rows) - 1

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Replace ``obj.attr`` on this *instance* with a span-recording
        wrapper around the original bound method."""
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    # -- analysis ---------------------------------------------------------

    def durations_us(self) -> dict[str, list[float]]:
        """Span durations per name [us]."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _parent, _request in self.rows:
            out[name].append((end - start) / 1e3)
        return out

    def self_times_us(self) -> dict[str, list[float]]:
        """Per-name self time [us]: duration minus what child spans cover."""
        covered = [0] * len(self.rows)
        for _name, start, end, parent, _request in self.rows:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for sid, (name, start, end, _parent, _request) in enumerate(self.rows):
            out[name].append((end - start - covered[sid]) / 1e3)
        return out

    def flush(self, path: str) -> int:
        """Write every span as one JSON object per line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request) in enumerate(self.rows):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self.rows)

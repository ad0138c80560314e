"""perfbench's own in-memory span recorder (host clock).

Spans are recorded from the benchmark's files, around the calls into
each layer's public functions; nothing here imports ``repro.obs``, whose
tracer stamps *virtual* time and is itself one of the layers measured.
A span is ``{id, name, parent, start, end, attrs}``; the recorder keeps
them in memory and the caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class SpanRecorder:
    """Nested spans on one thread; ``parent`` is the enclosing span's id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": None,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    spans: list[dict] = []

    def span(self, name: str, **attrs):
        return nullcontext()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span id: its duration minus the part its children cover.

    Children of one parent never overlap (one thread, strict nesting),
    so the covered part is the sum of their durations.
    """
    covered = dict.fromkeys((s["id"] for s in spans), 0.0)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def path(spans: list[dict], span: dict) -> str:
    """``workload › search › runner.run`` style name of a span."""
    names = [span["name"]]
    while span["parent"] is not None:
        span = spans[span["parent"]]
        names.append(span["name"])
    return " › ".join(reversed(names))


def tree_problems(spans: list[dict]) -> list[str]:
    """Why the span list is not a well-formed tree (empty when it is)."""
    problems = []
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans, expected 1")
    for s in spans:
        if s["start"] is None or s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} ({s['name']}) is not closed")
            continue
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            if not (parent["start"] <= s["start"] and s["end"] <= parent["end"]):
                problems.append(
                    f"span {s['id']} ({s['name']}) leaves its parent "
                    f"{parent['id']} ({parent['name']})"
                )
    for sid, self_time in self_times(spans).items():
        if self_time < 0:
            problems.append(f"span {sid} has negative self time {self_time}")
    return problems


def chrome_trace(spans: list[dict], workload: str) -> dict:
    """Chrome ``trace_event`` document (complete events, microseconds)."""
    origin = min(s["start"] for s in spans)
    own = self_times(spans)
    events = [
        {
            "name": s["name"],
            "cat": s["name"].split(".")[0],
            "ph": "X",
            "ts": (s["start"] - origin) * 1e6,
            "dur": duration(s) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {
                "id": s["id"],
                "parent": s["parent"],
                "workload": workload,
                "self_us": own[s["id"]] * 1e6,
                **s["attrs"],
            },
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}

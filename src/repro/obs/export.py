"""Trace and run-report exporters, and the ASCII Gantt view.

Two machine-readable artifacts per traced run:

* :func:`chrome_trace` — the Chrome ``trace_event`` JSON format (complete
  ``"X"`` events with ``ph``/``ts``/``dur``/``pid``/``tid``), loadable in
  Perfetto / ``chrome://tracing`` with one track per simulated rank;
  virtual seconds are exported as microseconds, the format's native unit.
* :func:`run_report` — a self-contained JSON run report (graph, machine,
  algorithm and wire-format config, per-phase and per-level times, comm
  volumes, GTEPS) that :mod:`repro.obs.regress` gates on.

Both take the run's :class:`~repro.obs.tracer.Tracer`; ``run_report``
additionally takes the :class:`~repro.core.runner.BFSResult` and finds
the tracer in ``result.meta["tracer"]`` when one was installed.

:func:`render_timeline` draws the same tracer for a human: one ASCII
Gantt row per rank, its communication spans lettered by phase — the
fastest way to *see* where a schedule loses time (e.g. Figure 4's
off-diagonal ranks parked inside the fold's all-to-all)::

    rank 0 |g.g..aaaaggg.....aaaaaaaa.gggg....aaaag..rr|
    rank 1 |g.g..arrrggg.....aaaaaaarrgggg....aaarg..rr|
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.analysis import (
    COMM_PHASES,
    comm_comp_summary,
    critical_path,
    load_imbalance,
)
from repro.obs.tracer import Span, Tracer

#: Schema tag stamped into every run report (bump on breaking changes).
#: v2 added the ``faults`` section (fault/retry/checkpoint accounting);
#: v3 added the ``metrics`` snapshot and the ``query`` section
#: (kind/batch/queries-per-second for batched-query runs).
REPORT_SCHEMA = "repro.obs/run-report/v3"

#: Older schemas :func:`load_run_report` still accepts (the additions
#: are backward compatible: readers treat a missing section as absent).
_ACCEPTED_SCHEMAS = frozenset(
    {"repro.obs/run-report/v1", "repro.obs/run-report/v2", REPORT_SCHEMA}
)

#: Seconds -> Chrome trace microseconds.
_US = 1e6


def chrome_trace(tracer: Tracer, pid: int = 0) -> dict:
    """Render a tracer as a Chrome ``trace_event`` JSON object.

    Every rank becomes one named thread track (``tid`` = rank) of process
    ``pid``; spans become complete (``"X"``) events and instants become
    thread-scoped instant (``"i"``) events.  Span metadata and the BFS
    level land in ``args`` so Perfetto's selection panel shows them.
    """
    events: list[dict] = []
    for rank in tracer.ranks:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
        for span in tracer.spans_for(rank):
            args: dict = {}
            if span.level is not None:
                args["level"] = span.level
            args.update(span.meta)
            event = {
                "name": span.phase,
                "cat": "bfs",
                "pid": pid,
                "tid": rank,
                "ts": span.t_start * _US,
                "args": args,
            }
            if span.instant:
                event["ph"] = "i"
                event["s"] = "t"
            else:
                event["ph"] = "X"
                event["dur"] = span.duration * _US
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, tracer: Tracer, pid: int = 0) -> Path:
    """Write :func:`chrome_trace` JSON to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer, pid=pid)) + "\n")
    return path


#: Communication phase -> Gantt glyph, one per :data:`COMM_PHASES` member.
TIMELINE_GLYPHS = {
    "alltoallv": "a",
    "allgatherv": "g",
    "allreduce": "r",
    "transpose": "x",
    "exchange": "e",
    "bcast": "c",
}


def comm_spans(tracer: Tracer, rank: int) -> list[Span]:
    """``rank``'s outermost communication spans, in the order they opened.

    A span counts when its phase is in :data:`COMM_PHASES` and no
    enclosing span's is, so a collective nested inside another is drawn
    (and timed) once.  The spans include waiting for slower ranks, so on
    a fully spanned path their seconds sum to the rank's ``mpi_time``.
    """
    spans = tracer.spans_for(rank)
    inside = [False] * len(spans)
    out = []
    for i, span in enumerate(spans):
        enclosed = span.parent is not None and inside[span.parent]
        inside[i] = enclosed or span.phase in COMM_PHASES
        if inside[i] and not enclosed and not span.instant:
            out.append(span)
    return out


def render_timeline(
    tracer: Tracer, width: int = 72, ranks: list[int] | None = None
) -> str:
    """ASCII Gantt chart of a traced run's communication.

    Each rank gets one row spanning ``[0, tracer.makespan]`` in virtual
    time; its :func:`comm_spans` are drawn with their phase's glyph
    (:data:`TIMELINE_GLYPHS`), everything else (local computation, and
    collectives outside any span) with ``.``.  ``ranks`` picks and orders
    the rows (default: every traced rank).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if ranks is None:
        ranks = tracer.ranks
    elif not ranks:
        raise ValueError("ranks must name at least one rank")
    else:
        unknown = sorted(set(ranks) - set(tracer.ranks))
        if unknown:
            raise ValueError(
                f"ranks {unknown} were not traced (traced: {tracer.ranks})"
            )
    makespan = tracer.makespan
    if makespan <= 0:
        raise ValueError(
            "nothing to render: trace a run with a cost model (machine=...)"
        )
    label_width = max(len(f"rank {rank}") for rank in ranks)
    scale = (width - 1) / makespan
    lines = []
    for rank in ranks:
        row = ["."] * width
        for span in comm_spans(tracer, rank):
            lo = int(span.t_start * scale)
            hi = max(lo, int(span.t_end * scale))
            row[lo : hi + 1] = TIMELINE_GLYPHS[span.phase] * (hi + 1 - lo)
        lines.append(f"{f'rank {rank}'.rjust(label_width)} |{''.join(row)}|")
    legend = "  ".join(f"{g}={phase}" for phase, g in TIMELINE_GLYPHS.items())
    lines.append(f"{' ' * label_width}  0{' ' * (width - 10)}{makespan:.3g}s")
    lines.append(f"legend: {legend}, .=compute")
    return "\n".join(lines)


def _stringify_levels(by_level: dict) -> dict:
    """JSON object keys must be strings; sort numerically first."""
    return {str(level): dict(kinds) for level, kinds in sorted(by_level.items())}


def run_report(result, tracer: Tracer | None = None) -> dict:
    """Build the machine-readable run report of one BFS traversal.

    ``result`` is a :class:`~repro.core.runner.BFSResult`; ``tracer``
    defaults to the one ``run_bfs`` stored in ``result.meta["tracer"]``.
    Without a tracer the report still carries config, stats and volumes —
    only the span-derived sections (``phases``/``levels``/``comm_comp``/
    ``imbalance``) are empty.
    """
    if tracer is None:
        tracer = result.meta.get("tracer")
    meta = result.meta
    timed = result.stats is not None and result.time_total > 0
    report: dict = {
        "schema": REPORT_SCHEMA,
        "graph": {
            # shape[0] not size: batched-query results carry (n, batch)
            # lane columns, and n must stay the vertex count.
            "n": int(result.levels.shape[0]),
            "name": meta.get("graph"),
            "m_traversed": int(result.m_traversed),
            "nlevels": int(result.nlevels),
            "source": int(result.source),
        },
        "machine": meta.get("machine"),
        "algorithm": result.algorithm,
        "nranks": int(result.nranks),
        "threads": int(result.threads),
        "config": {
            "kernel": meta.get("kernel"),
            "dedup_sends": meta.get("dedup_sends"),
            "codec": meta.get("codec"),
            "sieve": meta.get("sieve"),
            "vector_dist": meta.get("vector_dist"),
            "dirop_alpha": meta.get("dirop_alpha"),
            "dirop_beta": meta.get("dirop_beta"),
        },
        "time": {
            "total": result.time_total,
            "comm": result.time_comm,
            "comp": result.time_comp,
        },
        "gteps": result.gteps() if timed else None,
        "faults": meta.get("faults"),
        "query": None,
        "metrics": None,
        "comm": None,
        "phases": {},
        "levels": [],
        "comm_comp": None,
        "imbalance": [],
    }
    batch = getattr(result, "batch", None)
    if batch is not None:
        report["graph"]["batch"] = int(batch)
    # Batched-query runs (QueryResult) carry their workload metrics in a
    # first-class section so perf-diff/trajectory can gate on throughput.
    kind = getattr(result, "kind", None)
    if kind is not None:
        report["query"] = {
            "kind": kind,
            "batch": int(batch) if batch is not None else None,
            "queries_per_second": result.queries_per_second() if timed else None,
        }
    registry = meta.get("metrics")
    if registry is not None:
        report["metrics"] = registry.snapshot()
    if result.stats is not None:
        summary = result.stats.summary()
        summary["words_by_level"] = _stringify_levels(summary["words_by_level"])
        report["comm"] = summary
    if tracer is not None and tracer.nranks:
        path = critical_path(tracer)
        report["phases"] = path.phase_totals()
        report["levels"] = [
            {
                "level": lc.level,
                "duration": lc.duration,
                "critical_rank": lc.rank,
                "bounding_phase": lc.bounding_phase,
                "phases": dict(lc.phases),
            }
            for lc in path.levels
        ]
        report["comm_comp"] = comm_comp_summary(tracer)
        report["imbalance"] = [
            {
                "level": im.level,
                "phase": im.phase,
                "max": im.max_seconds,
                "mean": im.mean_seconds,
                "straggler": im.straggler,
                "imbalance": im.imbalance,
            }
            for im in load_imbalance(tracer)
        ]
    return report


def write_run_report(path: str | Path, report: dict) -> Path:
    """Write a run report dict as indented JSON to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    return path


def load_run_report(path: str | Path) -> dict:
    """Read a run report back, checking the schema tag."""
    report = json.loads(Path(path).read_text())
    schema = report.get("schema")
    if schema not in _ACCEPTED_SCHEMAS:
        raise ValueError(
            f"{path}: not a run report (schema {schema!r}, "
            f"expected one of {sorted(_ACCEPTED_SCHEMAS)})"
        )
    return report


def validate_chrome_trace(trace: dict) -> None:
    """Sanity-check a :func:`chrome_trace` object against the format.

    Raises ``ValueError`` on a malformed trace: missing ``traceEvents``,
    events without ``ph``/``pid``/``tid``, complete (``"X"``) events
    without ``ts``/``dur``, instant (``"i"``) events without ``ts`` or a
    scope, non-finite timestamps, or malformed span metadata — a
    ``level`` arg that is not a non-negative integer, or a query span's
    ``lanes`` arg outside ``[1, 64]`` (the uint64 lane-word capacity of
    ``msbfs-1d``).  Used by the tests and the CI telemetry job before
    uploading artifacts.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no traceEvents")
    for event in events:
        for key in ("ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event}")
        if event["ph"] == "X":
            for key in ("name", "ts", "dur"):
                if key not in event:
                    raise ValueError(f"complete event missing {key!r}: {event}")
            if not (math.isfinite(event["ts"]) and math.isfinite(event["dur"])):
                raise ValueError(f"non-finite timestamps: {event}")
            if event["dur"] < 0:
                raise ValueError(f"negative duration: {event}")
        elif event["ph"] == "i":
            for key in ("name", "ts"):
                if key not in event:
                    raise ValueError(f"instant event missing {key!r}: {event}")
            if not math.isfinite(event["ts"]) or event["ts"] < 0:
                raise ValueError(f"bad instant timestamp: {event}")
            if event.get("s") not in ("t", "p", "g"):
                raise ValueError(f"instant event without a valid scope: {event}")
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        level = args.get("level")
        if level is not None and (not isinstance(level, int) or level < 0):
            raise ValueError(f"span with non-integer level: {event}")
        lanes = args.get("lanes")
        if lanes is not None and (
            not isinstance(lanes, int) or not 1 <= lanes <= 64
        ):
            raise ValueError(f"query span with lanes outside [1, 64]: {event}")

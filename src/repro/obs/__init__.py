"""Structured tracing + metrics for simulated BFS runs (``repro.obs``).

Layered on the virtual clocks of :mod:`repro.mpsim`:

* :mod:`~repro.obs.tracer` — nested per-rank, per-level phase spans
  stamped in virtual time; the 1D/2D/direction-optimizing algorithms,
  the comm channel and the SpMSV kernels are instrumented.  Installing
  no tracer costs nothing (shared no-op handles).
* :mod:`~repro.obs.metrics` — labeled counters/gauges/histograms behind
  the same null-object pattern; engine, comm channel and query steps
  are instrumented, and every counter reconciles
  exactly with the span/stats-derived quantities.
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON, the one file
  format spans are written in (one track per rank; Perfetto and
  speedscope open it as a flame chart), the machine-readable run report,
  and the ASCII Gantt chart of each rank's collectives
  (:func:`render_timeline`).
* :mod:`~repro.obs.analysis` — per-level critical paths that sum exactly
  to the modeled makespan, load-imbalance metrics with straggler
  attribution, comm/comp decompositions (programmatic Figure 6/8), and
  the host wall-clock breakdown of the same spans (:func:`wall_table`).

Typical flow::

    from repro.obs import Tracer, run_report, write_chrome_trace

    tracer = Tracer()
    result = repro.run_bfs(graph, src, "1d-dirop", nprocs=8,
                           machine="hopper", tracer=tracer)
    write_chrome_trace("trace.json", tracer)
    report = run_report(result)          # the BENCH_*.json format

See ``docs/observability.md`` for the span taxonomy and file schemas.
"""

from repro.obs.analysis import (
    COMM_PHASES,
    RENDEZVOUS,
    UNTRACED,
    CriticalPath,
    LevelCritical,
    PhaseImbalance,
    check_critical_path,
    comm_comp_summary,
    critical_path,
    load_imbalance,
    wall_table,
)
from repro.obs.export import (
    REPORT_SCHEMA,
    chrome_trace,
    load_run_report,
    render_timeline,
    run_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_run_report,
)
from repro.obs.metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    NULL_RANK_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NullRankMetrics,
    RankMetrics,
    resolve_metrics,
)
from repro.obs.tracer import (
    HOST_RANK,
    NULL_RANK_TRACER,
    NULL_TRACER,
    NullRankTracer,
    NullTracer,
    RankTracer,
    Span,
    Tracer,
    resolve_tracer,
)

__all__ = [
    "COMM_PHASES",
    "RENDEZVOUS",
    "UNTRACED",
    "CriticalPath",
    "LevelCritical",
    "PhaseImbalance",
    "check_critical_path",
    "comm_comp_summary",
    "critical_path",
    "load_imbalance",
    "wall_table",
    "REPORT_SCHEMA",
    "chrome_trace",
    "load_run_report",
    "render_timeline",
    "run_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_run_report",
    "METRICS_SCHEMA",
    "NULL_METRICS",
    "NULL_RANK_METRICS",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullRankMetrics",
    "RankMetrics",
    "resolve_metrics",
    "HOST_RANK",
    "NULL_RANK_TRACER",
    "NULL_TRACER",
    "NullRankTracer",
    "NullTracer",
    "RankTracer",
    "Span",
    "Tracer",
    "resolve_tracer",
]

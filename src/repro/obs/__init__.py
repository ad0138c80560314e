"""Structured tracing + metrics for simulated BFS runs (``repro.obs``).

Layered on the virtual clocks of :mod:`repro.mpsim`:

* :mod:`~repro.obs.tracer` — nested per-rank, per-level phase spans
  stamped in virtual time; the 1D/2D/direction-optimizing algorithms,
  the comm channel and the SpMSV kernels are instrumented.  Installing
  no tracer costs nothing (shared no-op handles).
* :mod:`~repro.obs.metrics` — labeled counters/gauges/histograms behind
  the same null-object pattern; engine, comm channel, fault injector
  and query steps are instrumented, and every counter reconciles
  exactly with the span/stats-derived quantities.
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON (one track per
  rank; open in Perfetto) and the machine-readable run report.
* :mod:`~repro.obs.events` — the schema-versioned JSONL event log and
  the collapsed-stack flamegraph exporter (speedscope/flamegraph.pl).
* :mod:`~repro.obs.analysis` — per-level critical paths that sum exactly
  to the modeled makespan, load-imbalance metrics with straggler
  attribution, and comm/comp decompositions (programmatic Figure 6/8).
* :mod:`~repro.obs.regress` — the perf gate: run reports become
  per-metric series with median-reference gating, changepoint detection
  and a markdown/HTML dashboard.  ``repro-bench trajectory`` gates a
  fresh report against the committed ``BENCH_*.json`` series;
  ``repro-bench perf-diff`` is its two-point case.

Typical flow::

    from repro.obs import Tracer, run_report, write_chrome_trace

    tracer = Tracer()
    result = repro.run_bfs(graph, src, "1d-dirop", nprocs=8,
                           machine="hopper", tracer=tracer)
    write_chrome_trace("trace.json", tracer)
    report = run_report(result)          # feeds repro-bench perf-diff

See ``docs/observability.md`` for the span taxonomy and file schemas.
"""

from repro.obs.analysis import (
    COMM_PHASES,
    UNTRACED,
    CriticalPath,
    LevelCritical,
    PhaseImbalance,
    check_critical_path,
    comm_comp_summary,
    critical_path,
    load_imbalance,
)
from repro.obs.events import (
    EVENTS_SCHEMA,
    collapsed_stacks,
    load_events_jsonl,
    run_events,
    validate_collapsed_stacks,
    validate_events,
    write_events_jsonl,
    write_flamegraph,
)
from repro.obs.export import (
    REPORT_SCHEMA,
    chrome_trace,
    load_run_report,
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
from repro.obs.regress import (
    DEFAULT_THRESHOLD,
    GATED_METRICS,
    MetricTrend,
    Trajectory,
    analyze_reports,
    analyze_trajectory,
    perf_diff,
    resolve_series,
)
from repro.obs.tracer import (
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
    "UNTRACED",
    "CriticalPath",
    "LevelCritical",
    "PhaseImbalance",
    "check_critical_path",
    "comm_comp_summary",
    "critical_path",
    "load_imbalance",
    "REPORT_SCHEMA",
    "chrome_trace",
    "load_run_report",
    "run_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_run_report",
    "DEFAULT_THRESHOLD",
    "GATED_METRICS",
    "MetricTrend",
    "Trajectory",
    "analyze_reports",
    "analyze_trajectory",
    "perf_diff",
    "resolve_series",
    "EVENTS_SCHEMA",
    "collapsed_stacks",
    "load_events_jsonl",
    "run_events",
    "validate_collapsed_stacks",
    "validate_events",
    "write_events_jsonl",
    "write_flamegraph",
    "METRICS_SCHEMA",
    "NULL_METRICS",
    "NULL_RANK_METRICS",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullRankMetrics",
    "RankMetrics",
    "resolve_metrics",
    "NULL_RANK_TRACER",
    "NULL_TRACER",
    "NullRankTracer",
    "NullTracer",
    "RankTracer",
    "Span",
    "Tracer",
    "resolve_tracer",
]

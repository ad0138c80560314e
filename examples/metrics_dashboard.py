#!/usr/bin/env python
"""Meter a simulated BFS and build a telemetry dashboard from it.

``trace_profiling.py`` dissects one run's *timeline*; this example shows
the rest of the telemetry layer:

* a ``MetricsRegistry`` of labeled counters/gauges/histograms recorded
  through the engine, the comm channel and the wire codecs — and the
  reconciliation contract: counter totals equal the stats ledger's
  numbers exactly, not approximately,
* the OpenMetrics text exposition (what a Prometheus scrape would see),
* the Chrome trace of the same spans, the one file format they are
  written in (Perfetto and speedscope open it as a flame chart).

Run::

    python examples/metrics_dashboard.py
"""

import json
import tempfile
from pathlib import Path

import repro
from repro.obs import MetricsRegistry, Tracer, validate_chrome_trace, write_chrome_trace

NPROCS = 16


def main() -> None:
    graph = repro.rmat_graph(13, 16, seed=21)
    source = int(graph.random_nonisolated_vertices(1, seed=1)[0])

    # -- one metered + traced run -------------------------------------
    registry = MetricsRegistry()
    tracer = Tracer()
    result = repro.run_bfs(
        graph, source, "1d-dirop", nprocs=NPROCS, machine="hopper",
        codec="auto", sieve=True, tracer=tracer, metrics=registry,
    )
    print(f"=== {result.algorithm} on {result.nranks} ranks: "
          f"{result.time_total * 1e3:.3f} ms, {result.gteps():.3f} GTEPS ===")

    # Counters reconcile exactly against the stats ledger.
    for kind in ("alltoallv", "allreduce"):
        metered = registry.counter_value("comm_wire_words", kind=kind)
        ledger = result.stats.wire_words(kind)
        status = "==" if metered == ledger else "!="
        print(f"  comm_wire_words{{kind={kind}}} {metered:>10.0f} "
              f"{status} stats ledger {ledger:.0f}")
    dropped = registry.counter_value("sieve_dropped")
    cand = registry.counter_value("sieve_candidates")
    print(f"  sieve dropped {dropped:.0f} of {cand:.0f} candidates "
          f"({dropped / cand:.1%})")
    hist = registry.histogram_value("engine_frontier_size")
    print(f"  frontier sizes: {hist.count} observations, "
          f"mean {hist.sum / hist.count:.1f} vertices\n")

    # -- OpenMetrics exposition (first lines) -------------------------
    print("OpenMetrics exposition (head):")
    for line in registry.render_openmetrics().splitlines()[:8]:
        print(f"  {line}")

    # -- Chrome trace -------------------------------------------------
    # Written to a scratch directory that is removed on exit.
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp:
        path = write_chrome_trace(Path(tmp) / "trace.json", tracer)
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        print(f"\nwrote {len(trace['traceEvents'])} trace events to {path} "
              "(open in https://ui.perfetto.dev or https://speedscope.app)")


if __name__ == "__main__":
    main()

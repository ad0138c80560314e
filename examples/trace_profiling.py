#!/usr/bin/env python
"""Profile a simulated BFS with the structured tracing subsystem.

Where ``timeline_debugging.py`` draws a traced run's collectives as an
ASCII Gantt chart, this example reads the same ``repro.obs`` spans to
answer the profiling questions programmatically:

* which rank and phase bound each BFS level (critical path),
* where the run's modeled time went per phase (the paper's Figure 6/8
  decompositions),
* how skewed each phase is across ranks (straggler attribution), and
* a Chrome ``trace_event`` file to inspect span-by-span in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.

Run::

    python examples/trace_profiling.py
"""

import tempfile
from pathlib import Path

import repro
from repro.obs import Tracer, check_critical_path, load_imbalance, run_report

NPROCS = 16


def main() -> None:
    graph = repro.rmat_graph(14, 16, seed=21)
    source = int(graph.random_nonisolated_vertices(1, seed=1)[0])
    tracer = Tracer()
    result = repro.run_bfs(
        graph, source, "1d-dirop", nprocs=NPROCS, machine="hopper",
        tracer=tracer,
    )

    # The critical path accounts for every modeled second: init plus the
    # straggler rank's phase decomposition of each level.
    path = check_critical_path(tracer, result.time_total)
    print(f"=== {result.algorithm} on {result.nranks} ranks: "
          f"{result.time_total * 1e3:.3f} ms, {result.gteps():.3f} GTEPS ===")
    print(f"{'level':>5} {'ms':>8} {'crit rank':>9}  bounding phase")
    for lc in path.levels:
        print(f"{lc.level:>5} {lc.duration * 1e3:>8.4f} {lc.rank:>9}  "
              f"{lc.bounding_phase}")

    print("\nper-phase critical-path totals (Figure 6/8 style):")
    totals = path.phase_totals()
    for phase in sorted(totals, key=totals.get, reverse=True):
        share = totals[phase] / result.time_total
        print(f"  {phase:<12} {totals[phase] * 1e6:>9.2f} us  "
              f"{'#' * int(40 * share)}")

    # Straggler attribution: the most skewed phases across ranks.
    records = sorted(
        load_imbalance(tracer), key=lambda r: r.imbalance, reverse=True
    )
    print("\nmost imbalanced (level, phase) pairs [max/mean across ranks]:")
    for rec in records[:5]:
        print(f"  level {rec.level:<2} {rec.phase:<12} "
              f"{rec.imbalance:5.2f}x  straggler rank {rec.straggler}")

    # Artifacts: the Chrome trace for Perfetto and the machine-readable
    # run report, in a scratch directory removed on exit (the CLI's
    # --trace-out / --report-out keep them).
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        outdir = Path(tmp)
        trace_path = repro.write_chrome_trace(outdir / "trace.json", tracer)
        report_path = repro.write_run_report(
            outdir / "report.json", run_report(result)
        )
        print(f"\nwrote {trace_path} (open in https://ui.perfetto.dev)")
        print(f"wrote {report_path} (the benchmarks/BENCH_*.json format)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""See a schedule: virtual-time Gantt charts of the 2D algorithm.

Figure 4 of the paper is a heat map of time spent in MPI under two vector
distributions.  The simulator can show the *schedule itself*: a traced
run records every collective as a span on its rank's virtual clock, and
``repro.obs.render_timeline`` draws those spans as an ASCII Gantt chart
that makes load imbalance visible at a glance — watch the off-diagonal
ranks sit inside collectives (waiting for the diagonal's merge) under
the 1D vector distribution, and the balanced rows under the 2D
distribution.

For structured profiling of the same spans — critical paths, per-phase
time decompositions, straggler attribution, Chrome traces — see
``examples/trace_profiling.py`` and ``docs/observability.md``.

Run::

    python examples/timeline_debugging.py
"""

import numpy as np

import repro
from repro.model import FRANKLIN
from repro.obs import Tracer, render_timeline

SIDE = 4


def main() -> None:
    graph = repro.rmat_graph(14, 16, seed=21)
    source = int(graph.random_nonisolated_vertices(1, 1)[0])
    machine = FRANKLIN.with_overrides(net_latency=1e-9)  # isolate imbalance

    for dist, label in (("1d", "1D (diagonal-only) vector distribution"),
                        ("2d", "2D vector distribution")):
        tracer = Tracer()
        res = repro.run_bfs(graph, source, "2d", nprocs=SIDE * SIDE,
                            vector_dist=dist, machine=machine, tracer=tracer)
        print(f"\n=== {label} — {SIDE}x{SIDE} grid, R-MAT scale 14 ===")
        print(render_timeline(tracer, width=70))
        diag = [i * SIDE + i for i in range(SIDE)]
        off = [r for r in range(SIDE * SIDE) if r not in diag]
        wait_off = np.mean([res.stats.clocks[r].mpi_wait_time for r in off])
        wait_diag = np.mean([res.stats.clocks[r].mpi_wait_time for r in diag])
        print(f"mean idle: off-diagonal {wait_off * 1e6:7.1f} us, "
              f"diagonal {wait_diag * 1e6:7.1f} us "
              f"(ratio {wait_off / max(wait_diag, 1e-12):.2f})")
    print("\n(the paper's Figure 4 reports the same contrast as a heat map "
          "of normalized MPI time on a 16x16 grid)")


if __name__ == "__main__":
    main()

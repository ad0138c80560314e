#!/usr/bin/env python
"""See a schedule: virtual-time Gantt charts of the 2D algorithm.

Figure 4 of the paper is a heat map of time spent in MPI under two vector
distributions.  The simulator can show the *schedule itself*: with
``record_timeline=True`` every collective leaves a span on its rank's
virtual clock, and the ASCII renderer makes load imbalance visible at a
glance — watch the off-diagonal ranks sit inside collectives (waiting for
the diagonal's merge) under the 1D vector distribution, and the balanced
rows under the 2D distribution.

For structured profiling — critical paths, per-phase time decompositions,
straggler attribution, Chrome traces — use the ``repro.obs`` tracing
subsystem instead; see ``examples/trace_profiling.py`` and
``docs/observability.md``.

Run::

    python examples/timeline_debugging.py
"""

import numpy as np

import repro
from repro.core.bfs2d import SpMSV2D, build_2d_blocks
from repro.core.engine import traversal_body
from repro.core.partition import Decomp2D
from repro.model import FRANKLIN, NetworkCostModel
from repro.mpsim import render_timeline, run_spmd


def traverse(graph, source, side, diagonal):
    machine = FRANKLIN.with_overrides(net_latency=1e-9)  # isolate imbalance
    decomp = Decomp2D(graph.n, side, diagonal_vectors=diagonal)
    blocks = build_2d_blocks(graph.csr, decomp)
    return run_spmd(
        side * side,
        traversal_body,
        SpMSV2D,
        (blocks, decomp, source),
        {},
        machine=machine,
        cost_model=NetworkCostModel(machine, total_ranks=side * side),
        record_timeline=True,
    )


def main() -> None:
    side = 4
    graph = repro.rmat_graph(14, 16, seed=21)
    source = int(
        np.asarray(graph.to_internal(graph.random_nonisolated_vertices(1, 1)[0]))
    )

    for diagonal, label in ((True, "1D (diagonal-only) vector distribution"),
                            (False, "2D vector distribution")):
        res = traverse(graph, source, side, diagonal)
        print(f"\n=== {label} — {side}x{side} grid, R-MAT scale 14 ===")
        print(render_timeline(res.stats, width=70))
        diag = [i * side + i for i in range(side)]
        off = [r for r in range(side * side) if r not in diag]
        wait_off = np.mean([res.stats.clocks[r].mpi_wait_time for r in off])
        wait_diag = np.mean([res.stats.clocks[r].mpi_wait_time for r in diag])
        print(f"mean idle: off-diagonal {wait_off * 1e6:7.1f} us, "
              f"diagonal {wait_diag * 1e6:7.1f} us "
              f"(ratio {wait_off / max(wait_diag, 1e-12):.2f})")
    print("\n(the paper's Figure 4 reports the same contrast as a heat map "
          "of normalized MPI time on a 16x16 grid)")


if __name__ == "__main__":
    main()

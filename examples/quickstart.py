#!/usr/bin/env python
"""Quickstart: generate a Graph 500 R-MAT graph and traverse it with every
algorithm in the paper, validating against the serial reference.

Run::

    python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    # 1. A Graph 500-style R-MAT graph: skewed degrees, low diameter,
    #    randomly relabeled for load balance (Section 4.4).
    scale, edgefactor = 15, 16
    graph = repro.rmat_graph(scale, edgefactor, seed=42)
    print(f"graph: {graph.name}")
    print(f"  vertices : {graph.n:,}")
    print(f"  input edges (TEPS denominator): {graph.m_input:,}")
    print(f"  stored adjacencies (symmetric): {graph.nnz:,}")
    print(f"  max degree: {graph.degrees().max():,} "
          f"(mean {graph.degrees().mean():.1f} — the R-MAT skew)")

    # 2. Pick a source the Graph 500 way: non-isolated, inside the giant
    #    component.
    source = int(graph.random_nonisolated_vertices(1, seed=7)[0])
    print(f"\nsource vertex: {source}")

    # 3. Serial reference (Algorithm 1).
    ref = repro.run_bfs(graph, source, algorithm="serial")
    reached = int((ref.levels >= 0).sum())
    print(f"serial BFS: {ref.nlevels} levels, {reached:,} vertices reached, "
          f"{ref.m_traversed:,} edges traversed")

    # 4. Every distributed variant, functionally simulated, validated
    #    against the Graph 500 rules and compared with the reference.
    #    threads > 1 runs the paper's hybrid (threads per rank).
    print("\nalgorithm      ranks  threads  levels  matches serial")
    for algo, nprocs, threads in [
        ("1d", 8, 1),
        ("1d", 4, 4),
        ("2d", 16, 1),
        ("2d", 9, 4),
        ("pbgl", 8, 1),
        ("graph500-ref", 8, 1),
    ]:
        res = repro.run_bfs(
            graph, source, algo, nprocs=nprocs, threads=threads, validate=True
        )
        same = np.array_equal(res.levels, ref.levels) and np.array_equal(
            res.parents, ref.parents
        )
        print(f"{algo:<14s} {res.nranks:>5d}  {threads:>7d}  {res.nlevels:>6d}  {same}")

    # 5. The same traversal *timed* under the paper's machine models.
    print("\nmodeled on Franklin (Cray XT4) at 16 simulated ranks:")
    for algo in ("1d", "2d"):
        res = repro.run_bfs(graph, source, algo, nprocs=16, machine="franklin")
        print(
            f"  {algo}: {res.time_total * 1e3:7.2f} ms total, "
            f"{res.time_comm * 1e3:6.2f} ms MPI "
            f"({100 * res.time_comm / res.time_total:4.1f}%), "
            f"{res.gteps():.3f} GTEPS"
        )
    print("\n(the 2D fold exchanges far less data even at 16 ranks; run "
          "`repro-bench fig5 fig7` for the paper-scale projections, where "
          "the machine balance decides the winner)")


if __name__ == "__main__":
    main()

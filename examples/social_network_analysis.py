#!/usr/bin/env python
"""Degrees-of-separation analysis of a synthetic social network.

The paper's introduction motivates BFS with social-interaction data:
hop-distance distributions, reachability, and centrality-style queries all
reduce to breadth-first traversals.  This example builds an R-MAT "social
network" (skewed degrees = celebrities and lurkers), runs distributed BFS
from several seed users, and reports the small-world statistics.

Run::

    python examples/social_network_analysis.py
"""

import numpy as np

import repro


def main() -> None:
    # A scale-16 R-MAT graph is a decent synthetic stand-in for a social
    # network: heavy-tailed degrees and a tiny diameter.
    graph = repro.rmat_graph(16, 16, seed=2024)
    degrees = graph.degrees()
    print(f"social network: {graph.n:,} users, {graph.m_input:,} follow edges")
    top = np.sort(degrees)[-5:][::-1]
    print(f"most-connected users (degree): {', '.join(map(str, top))}")
    print(f"median degree: {int(np.median(degrees[degrees > 0]))}")

    seeds = graph.random_nonisolated_vertices(4, seed=1)
    print(f"\nseed users: {list(map(int, seeds))}")

    for seed in seeds:
        # Production-style setting: the 2D algorithm, hybrid, on a
        # simulated 6-threads-per-rank Hopper allocation.
        res = repro.run_bfs(
            graph, int(seed), "2d", nprocs=16, threads=6, machine="hopper"
        )
        reached = res.levels >= 0
        reachable_pct = 100.0 * reached.mean()
        hops = res.levels[reached]
        histogram = np.bincount(hops, minlength=res.nlevels + 1)
        mean_hops = hops.mean()
        print(
            f"\nfrom user {int(seed)}: reaches {reachable_pct:.1f}% of the "
            f"network, mean separation {mean_hops:.2f} hops, "
            f"eccentricity {hops.max()}"
        )
        print("  hop histogram:", end=" ")
        for level, count in enumerate(histogram):
            if count:
                print(f"{level}:{count:,}", end="  ")
        print(f"\n  modeled traversal: {res.time_total * 1e3:.2f} ms "
              f"({res.gteps():.3f} GTEPS on the Hopper model)")

    # Who is "between" two users?  The BFS tree gives shortest paths.
    a, b = int(seeds[0]), int(seeds[1])
    res = repro.run_bfs(graph, a, "2d", nprocs=16)
    if res.levels[b] > 0:
        path = [b]
        while path[-1] != a:
            path.append(int(res.parents[path[-1]]))
        print(f"\nshortest path {a} -> {b} ({res.levels[b]} hops): "
              f"{' -> '.join(map(str, reversed(path)))}")
    else:
        print(f"\nusers {a} and {b} are not connected")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Run the Graph 500 benchmark flow end to end.

The paper's evaluation follows the Graph 500 methodology (the authors
helped define the benchmark): construct an R-MAT graph, traverse from a
set of random search keys, validate every BFS tree, and report the
harmonic-mean TEPS the list ranks by.  This example runs the official
two-kernel flow at laptop scale on two modeled machines and compares the
algorithms' submissions.

Run::

    python examples/graph500_benchmark.py
"""

from repro.graph500 import run_graph500


def main() -> None:
    scale, nbfs = 14, 8
    print(f"Graph 500 flow: SCALE={scale}, edgefactor=16, NBFS={nbfs}")
    print("(downscaled from the official SCALE>=26 / NBFS=64)\n")

    submissions = []
    for algorithm, nprocs, threads, machine in (
        ("1d", 16, 1, "franklin"),
        ("2d", 16, 1, "franklin"),
        ("2d", 16, 6, "hopper"),  # the hybrid: 6 threads per rank
    ):
        result = run_graph500(
            scale=scale,
            nprocs=nprocs,
            threads=threads,
            algorithm=algorithm,
            machine=machine,
            nbfs=nbfs,
            seed=7,
        )
        submissions.append(result)
        print(f"=== {algorithm} on {machine} "
              f"({result.nranks} simulated ranks x {threads} threads) ===")
        print(result.report())
        print()

    print("ranking by harmonic-mean TEPS (the Graph 500 criterion):")
    for rank, res in enumerate(
        sorted(submissions, key=lambda r: -r.harmonic_mean_teps), start=1
    ):
        print(
            f"  {rank}. {res.algorithm:<4s} x{res.threads} threads on {res.machine:<10s} "
            f"{res.harmonic_mean_teps / 1e6:8.1f} MTEPS"
        )
    print("\nall traversals validated against the Graph 500 rules "
          "(source/parent consistency, tree edges, level spans)")


if __name__ == "__main__":
    main()

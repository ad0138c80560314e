#!/usr/bin/env python
"""Partitioning study: randomization vs locality, measured on the wire.

Section 4.4 justifies randomly shuffling vertex ids: "this leads to each
process getting roughly the same number of vertices and edges ... the
downside is that the edge cut is potentially as high as an average random
balanced cut".  This example measures both sides of that trade with exact
simulated traffic — per-rank load, edge cut, all-to-all volume, and the
rank-to-rank communication matrix — and shows why the answer differs
between a structured web crawl and R-MAT.

Run::

    python examples/partitioning_study.py
"""

import numpy as np

import repro
from repro.graphs import Graph, build_csr
from repro.graphs.ordering import edge_cut, rcm_ordering
from repro.graphs.permutation import apply_permutation
from repro.mpsim import run_spmd
from repro.core.bfs1d import TopDown1D
from repro.core.engine import traversal_body
from repro.core.partition import Partition1D

NPROCS = 8


def as_graph(csr, name):
    return Graph(csr=csr, m_input=csr.nnz // 2, perm=None, name=name)


def relabel(csr, perm):
    rows = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    src, dst = apply_permutation(perm, rows, csr.indices)
    return build_csr(csr.n, src, dst, symmetrize=False, dedup=False)


def study(name, natural_csr):
    print(f"\n=== {name} ({natural_csr.n:,} vertices, "
          f"{natural_csr.nnz // 2:,} edges) on {NPROCS} ranks ===")
    rng = np.random.default_rng(0)
    orderings = {
        "natural": natural_csr,
        "random (paper)": relabel(
            natural_csr, rng.permutation(natural_csr.n).astype(np.int64)
        ),
        "RCM": relabel(natural_csr, rcm_ordering(natural_csr)),
    }
    print(f"{'ordering':<16} {'edge cut':>9} {'load max/mean':>14} "
          f"{'a2a words':>10} {'traffic spread':>15}")
    for label, csr in orderings.items():
        part = Partition1D(csr.n, NPROCS)
        deg = csr.degrees()
        per_rank = np.array(
            [deg[part.range_of(r)[0] : part.range_of(r)[1]].sum()
             for r in range(NPROCS)]
        )
        graph = as_graph(csr, label)
        source = int(graph.random_nonisolated_vertices(1, seed=1)[0])
        res = run_spmd(
            NPROCS, traversal_body, TopDown1D, (csr, source), {}, record_peers=True
        )
        words = res.stats.words_sent("alltoallv")
        matrix = res.stats.comm_matrix()
        off = matrix[~np.eye(NPROCS, dtype=bool)]
        spread = off.max() / max(off[off > 0].min(), 1) if off.any() else 0
        print(
            f"{label:<16} {edge_cut(csr, NPROCS):>9.3f} "
            f"{per_rank.max() / max(per_rank.mean(), 1):>14.2f} "
            f"{int(words):>10,} {spread:>14.1f}x"
        )


def main() -> None:
    crawl = repro.webcrawl_graph(12_000, n_hosts=24, seed=2, shuffle=False)
    study("web crawl", crawl.csr)
    rmat = repro.rmat_graph(13, 16, seed=2, shuffle=False)
    study("R-MAT scale 13", rmat.csr)

    print(
        "\nreading the table: randomization buys a tight load balance and"
        "\nuniform rank-to-rank traffic at a near-worst-case cut.  On the"
        "\ncrawl, locality-preserving orders move ~4-9x fewer words.  On"
        "\nR-MAT the cut barely moves ('the graphs lack good separators',"
        "\nSec. 6) while skew wrecks the balance (3-4x) and concentrates"
        "\ntraffic on hot rank pairs (>100x spread) — which is why the"
        "\npaper randomizes, and the Graph 500 benchmark does too."
    )


if __name__ == "__main__":
    main()

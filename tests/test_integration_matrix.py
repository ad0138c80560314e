"""Cross-product integration matrix: every algorithm on every graph family.

The heart of the correctness story: all distributed variants must produce
*bit-identical* levels and parents to the serial reference on every
workload shape the paper discusses — skewed (R-MAT), uniform (Erdős–Rényi
and near-regular), high-diameter (web crawl), directed, disconnected —
across rank counts that do and do not divide the vertex count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import run_bfs
from repro.graphs import (
    Graph,
    erdos_renyi_edges,
    rmat_graph,
    uniform_degree_edges,
    webcrawl_graph,
)

from tests.conftest import thread_params

#: ``(algorithm, threads)``: flat MPI and the hybrid of 1D and 2D, and the baselines.
ALGOS_UNDIRECTED = [("1d", 1), ("1d", 4), ("2d", 1), ("2d", 4), ("pbgl", 1), ("graph500-ref", 1)]


def _graph_families():
    yield "rmat", rmat_graph(11, 16, seed=5)
    yield "erdos-renyi", Graph.from_edges(
        1500, *erdos_renyi_edges(1500, 10.0, seed=6), shuffle=True, seed=6
    )
    yield "uniform-degree", Graph.from_edges(
        1200, *uniform_degree_edges(1200, 6, seed=7), shuffle=True, seed=7
    )
    yield "webcrawl", webcrawl_graph(2500, n_hosts=12, seed=8)
    # Very sparse: large diameter components + many isolated vertices.
    yield "sparse-er", Graph.from_edges(
        800, *erdos_renyi_edges(800, 1.5, seed=9), shuffle=True, seed=9
    )


@pytest.mark.parametrize("name,graph", list(_graph_families()))
@pytest.mark.parametrize("algo,threads", thread_params(ALGOS_UNDIRECTED))
def test_algorithm_family_matrix(name, graph, algo, threads):
    source = int(graph.random_nonisolated_vertices(1, seed=1)[0])
    ref = run_bfs(graph, source, "serial")
    nprocs = 9 if algo.startswith("2d") else 6
    res = run_bfs(graph, source, algo, nprocs=nprocs, threads=threads, validate=True)
    assert np.array_equal(res.levels, ref.levels), (name, algo)
    assert np.array_equal(res.parents, ref.parents), (name, algo)


@pytest.mark.parametrize("nprocs", [1, 2, 5, 7, 12])
def test_awkward_rank_counts_1d(nprocs):
    """Rank counts that do not divide n exercise the remainder block."""
    graph = rmat_graph(10, 8, seed=2)
    source = int(graph.random_nonisolated_vertices(1, seed=2)[0])
    ref = run_bfs(graph, source, "serial")
    res = run_bfs(graph, source, "1d", nprocs=nprocs)
    assert np.array_equal(res.levels, ref.levels)


@pytest.mark.parametrize("side", [1, 2, 5, 7])
def test_awkward_grid_sides_2d(side):
    graph = rmat_graph(10, 8, seed=3)
    source = int(graph.random_nonisolated_vertices(1, seed=3)[0])
    ref = run_bfs(graph, source, "serial")
    res = run_bfs(graph, source, "2d", nprocs=side * side)
    assert np.array_equal(res.levels, ref.levels)
    assert np.array_equal(res.parents, ref.parents)


def test_timed_and_untimed_agree_functionally():
    """The cost model must never change what is computed, only the clock."""
    graph = rmat_graph(11, 16, seed=4)
    source = int(graph.random_nonisolated_vertices(1, seed=4)[0])
    for algo, threads in (("1d", 1), ("2d", 1), ("2d", 6)):
        untimed = run_bfs(graph, source, algo, nprocs=9, threads=threads)
        timed = run_bfs(graph, source, algo, nprocs=9, threads=threads, machine="hopper")
        assert np.array_equal(untimed.levels, timed.levels), algo
        assert np.array_equal(untimed.parents, timed.parents), algo
        assert untimed.time_total == 0.0
        assert timed.time_total > 0.0


def test_every_source_in_component_gives_same_component():
    graph = rmat_graph(10, 16, seed=5)
    sources = graph.random_nonisolated_vertices(4, seed=5)
    reached_sets = []
    for source in sources:
        res = run_bfs(graph, int(source), "2d", nprocs=4)
        reached_sets.append(frozenset(np.flatnonzero(res.levels >= 0)))
    # All sampled sources land in the giant component of this graph.
    assert len(set(reached_sets)) == 1


def test_deterministic_across_repeats():
    """Thread scheduling must never leak into results or virtual times."""
    graph = rmat_graph(11, 16, seed=6)
    source = int(graph.random_nonisolated_vertices(1, seed=6)[0])
    runs = [
        run_bfs(graph, source, "2d", nprocs=9, threads=4, machine="franklin")
        for _ in range(3)
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0].levels, other.levels)
        assert runs[0].time_total == other.time_total
        assert runs[0].time_comm == other.time_comm


def test_self_loops_and_multi_edges_ignored_gracefully():
    src = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
    dst = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)  # loops + dups
    graph = Graph.from_edges(4, src, dst, shuffle=False)
    ref = run_bfs(graph, 0, "serial")
    assert np.array_equal(ref.levels, [0, 1, 2, -1])
    for algo in ("1d", "2d"):
        res = run_bfs(graph, 0, algo, nprocs=4, validate=True)
        assert np.array_equal(res.levels, ref.levels)


def test_star_hub_source_single_level():
    """A hub source discovers everything in one exchange — the extreme
    load-imbalance case random shuffling exists to handle."""
    n = 600
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    graph = Graph.from_edges(n, src, dst, shuffle=True, seed=10)
    res = run_bfs(graph, 0, "1d", nprocs=8, validate=True)
    assert res.levels[0] == 0
    assert np.all(res.levels[1:] == 1)

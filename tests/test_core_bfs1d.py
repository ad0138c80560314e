"""Tests for the 1D distributed BFS (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import bfs_serial
from repro.core.bfs1d import TopDown1D
from repro.core.engine import traversal_body
from repro.mpsim import run_spmd
from repro.obs import MetricsRegistry

from tests.conftest import make_disconnected_graph, make_path_graph, make_star_graph


def run_1d(graph, source_internal, nranks, **step_kwargs):
    res = run_spmd(
        nranks, traversal_body, TopDown1D, (graph.csr, source_internal), step_kwargs
    )
    levels = np.empty(graph.n, dtype=np.int64)
    parents = np.empty(graph.n, dtype=np.int64)
    for out in res.returns:
        levels[out["lo"] : out["hi"]] = out["levels"]
        parents[out["lo"] : out["hi"]] = out["parents"]
    return levels, parents, res.stats


class TestBfs1dCorrectness:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    def test_matches_serial_on_rmat(self, rmat_small, nranks):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 1)[0])
        )
        ref_levels, ref_parents = bfs_serial(rmat_small.csr, src)
        levels, parents, _ = run_1d(rmat_small, src, nranks)
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(parents, ref_parents)

    def test_path_graph(self):
        g = make_path_graph(23)
        levels, parents, _ = run_1d(g, 0, 4)
        assert np.array_equal(levels, np.arange(23))

    def test_star_graph(self):
        g = make_star_graph(40)
        levels, _, _ = run_1d(g, 0, 8)
        assert np.all(levels[1:] == 1)

    def test_disconnected(self):
        g = make_disconnected_graph()
        levels, parents, _ = run_1d(g, 0, 3)
        assert np.array_equal(levels, [0, 1, 1, -1, -1, -1])

    def test_source_on_last_rank(self):
        g = make_path_graph(10)
        levels, _, _ = run_1d(g, 9, 4)
        assert np.array_equal(levels, np.arange(10)[::-1])

    def test_more_ranks_than_vertices(self):
        g = make_path_graph(3)
        levels, _, _ = run_1d(g, 0, 6)
        assert np.array_equal(levels, [0, 1, 2])

    def test_dedup_off_same_result(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 2)[0])
        )
        lv_on, pa_on, _ = run_1d(rmat_small, src, 4, dedup_sends=True)
        lv_off, pa_off, _ = run_1d(rmat_small, src, 4, dedup_sends=False)
        assert np.array_equal(lv_on, lv_off)
        assert np.array_equal(pa_on, pa_off)


class TestBfs1dCommunication:
    def test_dedup_reduces_volume(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 3)[0])
        )
        _, _, stats_on = run_1d(rmat_small, src, 4, dedup_sends=True)
        _, _, stats_off = run_1d(rmat_small, src, 4, dedup_sends=False)
        # Send-side dedup is what separates the paper's 1D code from the
        # reference implementation: strictly less all-to-all traffic.
        assert stats_on.words_sent("alltoallv") < stats_off.words_sent("alltoallv")
        # Without dedup the volume is exactly 2 words per traversed edge
        # aimed off-rank.
        assert stats_off.counter("candidates") == stats_off.counter("unique_sends")

    def test_alltoallv_calls_equal_levels(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 4)[0])
        )
        ref_levels, _ = bfs_serial(rmat_small.csr, src)
        _, _, stats = run_1d(rmat_small, src, 4)
        # One alltoallv per executed level (last one finds nothing new).
        assert stats.calls("alltoallv") == ref_levels.max() + 1

    def test_edges_scanned_counts_every_adjacency(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 5)[0])
        )
        levels, _, stats = run_1d(rmat_small, src, 4)
        reached = levels >= 0
        expected = int(rmat_small.degrees()[reached].sum())
        assert stats.counter("edges_scanned") == expected

    def test_volume_conservation(self, rmat_medium):
        src = int(
            rmat_medium.to_internal(rmat_medium.random_nonisolated_vertices(1, 0)[0])
        )
        _, _, stats = run_1d(rmat_medium, src, 8)
        # Everything sent is received (off-rank traffic both ways).
        assert stats.words_sent("alltoallv") == stats.words_recv("alltoallv")


class TestDirectRankBody:
    def test_metrics_reach_the_engine(self, rmat_small):
        """Launching the one rank body directly threads ``metrics=`` like
        the driver does (the per-family wrappers it replaced dropped it)."""
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 6)[0])
        )
        registry = MetricsRegistry()
        res = run_spmd(
            4, traversal_body, TopDown1D, (rmat_small.csr, src), {}, metrics=registry
        )
        nlevels = res.returns[0]["nlevels"]
        assert nlevels > 1
        assert registry.counter_value("engine_levels") == 4.0 * nlevels


class TestBfs1dTimed:
    def test_machine_model_produces_times(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 6)[0])
        )
        from repro.model import FRANKLIN, NetworkCostModel

        res = run_spmd(
            4,
            traversal_body,
            TopDown1D,
            (rmat_small.csr, src),
            {},
            machine=FRANKLIN,
            cost_model=NetworkCostModel(FRANKLIN, total_ranks=4),
        )
        stats = res.stats
        assert stats.makespan > 0
        assert stats.max_mpi_time > 0
        assert stats.max_compute_time > 0
        # Virtual clocks end within one collective of each other (the
        # final allreduce synchronizes everyone).
        times = [c.time for c in stats.clocks]
        assert max(times) - min(times) < 1e-9

    def test_hybrid_threads_reduce_comm_time(self, rmat_medium):
        """At equal rank counts the hybrid's ranks stop sharing a NIC, so
        its collectives are cheaper; compute changes little at this scale
        (modest thread efficiency + per-level overhead, Section 6)."""
        src = int(
            rmat_medium.to_internal(rmat_medium.random_nonisolated_vertices(1, 1)[0])
        )
        from repro.model import FRANKLIN, NetworkCostModel

        flat = run_spmd(
            4, traversal_body, TopDown1D, (rmat_medium.csr, src), {},
            machine=FRANKLIN, threads=1,
            cost_model=NetworkCostModel(FRANKLIN, threads=1, total_ranks=4),
        ).stats
        hybrid = run_spmd(
            4, traversal_body, TopDown1D, (rmat_medium.csr, src), {},
            machine=FRANKLIN, threads=4,
            cost_model=NetworkCostModel(FRANKLIN, threads=4, total_ranks=4),
        ).stats
        assert hybrid.max_mpi_time < flat.max_mpi_time
        # Thread-parallel phases are divided by the modeled speedup while
        # per-level overhead pushes the other way; compute stays bounded.
        assert hybrid.max_compute_time < 1.5 * flat.max_compute_time

"""Direct tests for API surface exercised only indirectly elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partition import Partition1D
from repro.model import FRANKLIN, Charger, beta_L
from repro.model.network import (
    beta_p2p,
    bisection_factor,
    latency_ag,
    per_rank_injection,
)
from repro.mpsim import ProcessorGrid, closest_square, run_spmd
from repro.sparse import SELECT_MAX


class TestGridHelpers:
    def test_closest_square(self):
        assert closest_square(40000) == 40000  # 200^2 exactly
        assert closest_square(10008) == 10000
        assert closest_square(1) == 1
        assert closest_square(3) == 1
        with pytest.raises(ValueError):
            closest_square(0)

    def test_rank_of_and_transpose_partner(self):
        def fn(comm):
            grid = ProcessorGrid(comm)
            assert grid.rank_of(grid.row, grid.col) == comm.rank
            with pytest.raises(ValueError, match="outside"):
                grid.rank_of(9, 0)
            partner = grid.transpose_partner
            i, j = divmod(comm.rank, 3)
            assert partner == j * 3 + i
            return True

        assert all(run_spmd(9, fn).returns)

    def test_transpose_partner_requires_square(self):
        def fn(comm):
            grid = ProcessorGrid(comm, pr=2, pc=3)
            with pytest.raises(ValueError, match="square"):
                _ = grid.transpose_partner
            return True

        assert all(run_spmd(6, fn).returns)


class TestCommunicatorSurface:
    def test_members_and_concat(self):
        def fn(comm):
            assert comm.members == [0, 1, 2]
            send = [np.full(j + 1, comm.rank) for j in range(comm.size)]
            data, counts = comm.alltoallv_concat(send)
            # Rank r receives r+1 elements from each of 3 sources.
            assert np.array_equal(counts, [comm.rank + 1] * 3)
            assert data.size == 3 * (comm.rank + 1)
            assert np.array_equal(np.sort(np.unique(data)), [0, 1, 2])
            return True

        assert all(run_spmd(3, fn).returns)


class TestStatsSurface:
    def test_per_kind_and_fraction_helpers(self):
        from repro.model import NetworkCostModel

        def fn(comm):
            comm.allgatherv(np.arange(100))
            comm.alltoallv([np.arange(10)] * comm.size)
            comm.charge_compute(1e-6)
            return None

        res = run_spmd(
            4, fn, cost_model=NetworkCostModel(FRANKLIN, total_ranks=4)
        )
        stats = res.stats
        assert stats.mpi_time_by_kind("allgatherv") > 0
        assert stats.mpi_time_by_kind("alltoallv") > 0
        assert stats.mpi_time_by_kind("bcast") == 0.0
        assert 0 < stats.mpi_fraction(0) < 1
        assert stats.mean_mpi_time > 0
        rank0 = stats.comm[0]
        assert rank0.total_words_sent == 100 + 30
        assert rank0.total_words_recv == 400 + 30

    def test_mpi_fraction_zero_time(self):
        res = run_spmd(2, lambda comm: None)
        assert res.stats.mpi_fraction(0) == 0.0


class TestPartitionSurface:
    def test_local_count(self):
        part = Partition1D(10, 3)
        assert [part.local_count(r) for r in range(3)] == [3, 3, 4]
        assert sum(part.local_count(r) for r in range(3)) == 10


class TestModelSurface:
    def test_beta_l_is_stream_reciprocal(self):
        assert beta_L(FRANKLIN) == pytest.approx(
            1.0 / FRANKLIN.stream_words_per_sec
        )

    def test_network_primitives(self):
        # Injection splits across ranks and loses a bit to contention.
        solo = per_rank_injection(FRANKLIN, 1)
        shared = per_rank_injection(FRANKLIN, 4)
        assert solo == FRANKLIN.nic_words_per_sec
        assert shared < solo / 4 * 1.01
        with pytest.raises(ValueError):
            per_rank_injection(FRANKLIN, 0)
        # Bisection factor is 1 inside the reference size, shrinking past it.
        assert bisection_factor(FRANKLIN, 8) == 1.0
        assert bisection_factor(FRANKLIN, 512) < 1.0
        with pytest.raises(ValueError):
            bisection_factor(FRANKLIN, 0)
        assert beta_p2p(FRANKLIN, 1) == pytest.approx(1.0 / solo)
        assert latency_ag(FRANKLIN, 64) == pytest.approx(64 * FRANKLIN.net_latency)

    def test_charger_enabled_and_intops(self):
        from tests.test_model import _FakeComm

        inert = Charger(_FakeComm(), machine=None)
        assert not inert.enabled
        live = Charger(_FakeComm(), machine=FRANKLIN)
        assert live.enabled
        live.intops(1e6)
        assert live.comm.clock.compute_time == pytest.approx(
            1e6 / FRANKLIN.int_ops_per_sec
        )

    def test_level_overhead_only_for_threads(self):
        from repro.model.costmodel import LEVEL_THREAD_OVERHEAD
        from tests.test_model import _FakeComm

        flat = Charger(_FakeComm(), machine=FRANKLIN, threads=1)
        flat.level_overhead()
        assert flat.comm.clock.compute_time == 0.0
        hybrid = Charger(_FakeComm(), machine=FRANKLIN, threads=4)
        hybrid.level_overhead()
        assert hybrid.comm.clock.compute_time == pytest.approx(
            LEVEL_THREAD_OVERHEAD
        )


class TestSemiringSurface:
    def test_combine_and_reduce_at(self):
        a = np.array([1, 9, 3])
        b = np.array([7, 2, 3])
        assert np.array_equal(SELECT_MAX.combine(a, b), [7, 9, 3])
        dense = np.full(4, SELECT_MAX.identity, dtype=np.int64)
        SELECT_MAX.reduce_at(dense, np.array([1, 1, 3]), np.array([5, 8, 2]))
        assert np.array_equal(dense, [-1, 8, -1, 2])

    def test_semiring_reduce_sorted_runs(self):
        keys = np.array([1, 1, 3, 3, 3, 7])
        vals = np.array([5, 9, 2, 8, 4, 1])
        k, v = SELECT_MAX.reduce_sorted_runs(keys, vals)
        assert np.array_equal(k, [1, 3, 7])
        assert np.array_equal(v, [9, 8, 1])

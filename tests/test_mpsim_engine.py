"""Engine tests: SPMD execution, clocks, stats, aborts, sub-communicators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpsim import ProcessorGrid, RankClock, run_spmd
from repro.runtime import CollectiveCostModel


class TestRunSpmd:
    def test_returns_per_rank_values(self):
        res = run_spmd(5, lambda comm: comm.rank * 2)
        assert res.returns == [0, 2, 4, 6, 8]
        assert list(res) == res.returns
        assert res[3] == 6

    def test_single_rank(self):
        res = run_spmd(1, lambda comm: comm.allreduce(7))
        assert res.returns == [7]

    def test_invalid_nranks(self):
        with pytest.raises(ValueError, match="nranks"):
            run_spmd(0, lambda comm: None)

    def test_alltoallv_round_trip(self):
        def fn(comm):
            send = [np.array([comm.rank * 100 + j]) for j in range(comm.size)]
            recv = comm.alltoallv(send)
            return [int(r[0]) for r in recv]

        res = run_spmd(4, fn)
        for j in range(4):
            assert res[j] == [i * 100 + j for i in range(4)]

    def test_allgatherv_concat_order(self):
        def fn(comm):
            return comm.allgatherv(np.full(comm.rank + 1, comm.rank))

        res = run_spmd(3, fn)
        expected = np.array([0, 1, 1, 2, 2, 2])
        for out in res.returns:
            assert np.array_equal(out, expected)

    def test_allreduce_array(self):
        def fn(comm):
            return comm.allreduce(np.array([comm.rank, 1]), op="sum")

        res = run_spmd(4, fn)
        assert np.array_equal(res[0], [6, 4])

    def test_bcast_non_root_payload_ignored(self):
        def fn(comm):
            return comm.bcast({"n": 42} if comm.rank == 2 else None, root=2)

        res = run_spmd(4, fn)
        assert all(out == {"n": 42} for out in res.returns)

    def test_gather_and_scatter(self):
        def fn(comm):
            gathered = comm.gather(comm.rank**2, root=0)
            items = None
            if comm.rank == 0:
                items = [g + 1 for g in gathered]
            return comm.scatter(items, root=0)

        res = run_spmd(4, fn)
        assert res.returns == [1, 2, 5, 10]

    def test_exception_aborts_run(self):
        def fn(comm):
            if comm.rank == 2:
                raise KeyError("kaput")
            comm.barrier()
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 2 failed"):
            run_spmd(4, fn)

    def test_exception_before_any_collective(self):
        with pytest.raises(RuntimeError, match="ZeroDivisionError"):
            run_spmd(3, lambda comm: 1 // 0)


class TestSplit:
    def test_split_by_parity(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            return (sub.size, sub.rank, sub.allreduce(comm.rank))

        res = run_spmd(6, fn)
        for rank, (size, sub_rank, total) in enumerate(res.returns):
            assert size == 3
            assert sub_rank == rank // 2
            assert total == (0 + 2 + 4 if rank % 2 == 0 else 1 + 3 + 5)

    def test_split_none_color(self):
        def fn(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            if comm.rank == 0:
                return sub  # None (MPI_UNDEFINED)
            return sub.allreduce(1)

        res = run_spmd(3, fn)
        assert res[0] is None
        assert res[1] == res[2] == 2

    def test_split_key_reorders(self):
        def fn(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        res = run_spmd(4, fn)
        assert res.returns == [3, 2, 1, 0]


class TestGrid:
    def test_grid_geometry(self):
        def fn(comm):
            grid = ProcessorGrid(comm)
            return (grid.row, grid.col, grid.row_comm.size, grid.col_comm.size)

        res = run_spmd(9, fn)
        for rank, (i, j, rs, cs) in enumerate(res.returns):
            assert (i, j) == divmod(rank, 3)
            assert rs == cs == 3

    def test_transpose_vector_swaps(self):
        def fn(comm):
            grid = ProcessorGrid(comm)
            out = grid.transpose_vector(np.array([grid.row, grid.col]))
            return (int(out[0]), int(out[1]))

        res = run_spmd(4, fn)
        for rank, (i, j) in enumerate(res.returns):
            my_i, my_j = divmod(rank, 2)
            assert (i, j) == (my_j, my_i)  # received P(j,i)'s coordinates

    def test_non_square_rejected_without_dims(self):
        def fn(comm):
            with pytest.raises(ValueError, match="perfect square"):
                ProcessorGrid(comm)
            return True

        assert all(run_spmd(6, fn).returns)

    def test_rectangular_grid(self):
        def fn(comm):
            grid = ProcessorGrid(comm, pr=2, pc=3)
            return (grid.row_comm.size, grid.col_comm.size, grid.is_square)

        res = run_spmd(6, fn)
        assert res[0] == (3, 2, False)

    def test_row_col_comm_sums(self):
        def fn(comm):
            grid = ProcessorGrid(comm)
            return (
                grid.row_comm.allreduce(comm.rank),
                grid.col_comm.allreduce(comm.rank),
            )

        res = run_spmd(4, fn)
        # Grid: ranks [[0,1],[2,3]]: row sums 1, 5; col sums 2, 4.
        assert res[0] == (1, 2)
        assert res[3] == (5, 4)


class TestClockAccounting:
    def test_charge_compute_accumulates(self):
        clock = RankClock()
        clock.charge_compute(1.5, edges=10)
        clock.charge_compute(0.5, edges=5)
        assert clock.time == 2.0
        assert clock.compute_time == 2.0
        assert clock.counters["edges"] == 15

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            RankClock().charge_compute(-1.0)

    def test_collective_wait_attribution(self):
        clock = RankClock()
        clock.charge_compute(1.0)
        clock.complete_collective(completion_time=3.0, transfer_cost=0.5)
        assert clock.time == 3.0
        assert clock.mpi_transfer_time == 0.5
        assert clock.mpi_wait_time == pytest.approx(1.5)
        assert clock.mpi_time == pytest.approx(2.0)

    def test_slow_ranks_make_fast_ranks_wait(self):
        class UnitCost(CollectiveCostModel):
            def cost(self, kind, parties, s, r):
                return 0.25

        def fn(comm):
            comm.charge_compute(float(comm.rank))  # rank r is r seconds behind
            comm.barrier()
            return comm.clock.snapshot()

        res = run_spmd(3, fn, cost_model=UnitCost())
        # Everyone completes at max(arrivals) + 0.25 = 2.25.
        for rank, snap in enumerate(res.returns):
            assert snap["time"] == pytest.approx(2.25)
            assert snap["mpi_wait_time"] == pytest.approx(2.0 - rank)
            assert snap["mpi_transfer_time"] == pytest.approx(0.25)

    def test_stats_volumes_exact(self):
        def fn(comm):
            send = [np.arange(5) for _ in range(comm.size)]
            comm.alltoallv(send)
            comm.allgatherv(np.arange(3))
            return None

        res = run_spmd(4, fn)
        # alltoallv: each rank sends 5 words to 3 peers (self excluded).
        assert res.stats.words_sent("alltoallv") == 4 * 3 * 5
        # allgatherv: each rank receives 4 pieces of 3 words.
        assert res.stats.words_recv("allgatherv") == 4 * 12
        assert res.stats.calls("alltoallv") == 1

    def test_determinism_across_runs(self):
        class SizedCost(CollectiveCostModel):
            def cost(self, kind, parties, s, r):
                return 1e-6 * (s + r) + 1e-7 * parties

        def fn(comm):
            rng = np.random.default_rng(comm.rank)
            for _ in range(5):
                comm.charge_compute(1e-5 * comm.rank)
                comm.alltoallv(
                    [rng.integers(0, 10, size=j + comm.rank) for j in range(comm.size)]
                )
            return comm.clock.time

        first = run_spmd(6, fn, cost_model=SizedCost()).returns
        second = run_spmd(6, fn, cost_model=SizedCost()).returns
        assert first == second

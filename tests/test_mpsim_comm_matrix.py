"""Tests for rank-to-rank traffic recording (comm_matrix)."""

from __future__ import annotations

import numpy as np

import repro
from repro.mpsim import run_spmd


def _fn(comm):
    send = [np.arange(comm.rank + j) for j in range(comm.size)]
    comm.alltoallv(send)
    return None


class TestCommMatrix:
    def test_disabled_by_default(self):
        res = run_spmd(3, _fn)
        assert res.stats.comm_matrix().sum() == 0

    def test_records_per_destination(self):
        res = run_spmd(4, _fn, record_peers=True)
        matrix = res.stats.comm_matrix()
        for i in range(4):
            for j in range(4):
                assert matrix[i, j] == (0 if i == j else i + j)

    def test_exchange_recorded(self):
        def fn(comm):
            dest = (comm.rank + 1) % comm.size
            comm.exchange(dest, np.arange(comm.rank + 1))
            return None

        res = run_spmd(3, fn, record_peers=True)
        matrix = res.stats.comm_matrix()
        assert matrix[0, 1] == 1 and matrix[1, 2] == 2 and matrix[2, 0] == 3

    def test_subcommunicator_traffic_uses_global_ranks(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            send = [np.arange(3) for _ in range(sub.size)]
            sub.alltoallv(send)
            return None

        res = run_spmd(4, fn, record_peers=True)
        matrix = res.stats.comm_matrix()
        # Even group {0, 2} and odd group {1, 3}: traffic stays in-group.
        assert matrix[0, 2] == 3 and matrix[2, 0] == 3
        assert matrix[1, 3] == 3 and matrix[3, 1] == 3
        assert matrix[0, 1] == 0 and matrix[2, 3] == 0

    def test_bfs_1d_traffic_is_all_to_all_shaped(self, rmat_small):
        """With random shuffling, every rank talks to every other rank
        (the Section 4.4 trade: balanced but cut-heavy)."""
        from repro.core.bfs1d import TopDown1D
        from repro.core.engine import traversal_body

        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 0)[0])
        )
        res = run_spmd(
            4, traversal_body, TopDown1D, (rmat_small.csr, src), {}, record_peers=True
        )
        matrix = res.stats.comm_matrix()
        off_diag = matrix[~np.eye(4, dtype=bool)]
        assert np.all(off_diag > 0)
        # Shuffled R-MAT traffic is near-uniform across pairs.
        assert off_diag.max() < 2.0 * off_diag.min()

    def test_runner_exposes_record_peers(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 0)[0])
        res = repro.run_bfs(rmat_small, src, "1d", nprocs=4)
        assert res.stats.comm_matrix().sum() == 0  # not recorded by default

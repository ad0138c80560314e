"""Tests for scipy sparse interoperability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import rmat_graph
from repro.sparse import DCSC

sp = pytest.importorskip("scipy.sparse")
from repro.sparse.interop import (  # noqa: E402  (needs scipy itself)
    csr_from_scipy,
    csr_to_scipy,
    dcsc_from_scipy,
    dcsc_to_scipy,
    graph_to_scipy,
)


class TestCsrInterop:
    def test_round_trip(self, rmat_small):
        mat = csr_to_scipy(rmat_small.csr)
        back = csr_from_scipy(mat)
        assert np.array_equal(back.indptr, rmat_small.csr.indptr)
        assert np.array_equal(back.indices, rmat_small.csr.indices)

    def test_scipy_matrix_semantics(self, rmat_small):
        mat = csr_to_scipy(rmat_small.csr)
        assert mat.shape == (rmat_small.n, rmat_small.n)
        assert mat.nnz == rmat_small.nnz
        # Symmetric storage: A == A^T for undirected graphs.
        assert (mat != mat.T).nnz == 0

    def test_from_scipy_dedups_and_sorts(self):
        mat = sp.coo_matrix(
            (np.ones(3), ([0, 0, 1], [2, 2, 0])), shape=(3, 3)
        )
        csr = csr_from_scipy(mat)
        assert csr.nnz == 2
        assert csr.has_edge(0, 2) and csr.has_edge(1, 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            csr_from_scipy(sp.eye(3, 4))

    def test_spmv_matches_bfs_level(self, rmat_small):
        """One boolean SpMV == one BFS frontier expansion."""
        from repro.core import bfs_serial

        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 0)[0])
        )
        levels, _ = bfs_serial(rmat_small.csr, src)
        mat = csr_to_scipy(rmat_small.csr)
        x = np.zeros(rmat_small.n, dtype=bool)
        x[src] = True
        reached = x.copy()
        for _ in range(int(levels.max())):
            x = np.asarray((mat.T @ x)).ravel() & ~reached
            reached |= x
        assert np.array_equal(reached, levels >= 0)


class TestDcscInterop:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        d = DCSC.from_coo(40, 30, rng.integers(0, 40, 100), rng.integers(0, 30, 100))
        back = dcsc_from_scipy(dcsc_to_scipy(d))
        assert np.array_equal(back.ir, d.ir)
        assert np.array_equal(back.jc, d.jc)
        assert np.array_equal(back.cp, d.cp)

    def test_empty_block(self):
        d = DCSC.from_coo(5, 5, [], [])
        mat = dcsc_to_scipy(d)
        assert mat.nnz == 0
        assert dcsc_from_scipy(mat).nnz == 0


class TestGraphInterop:
    def test_original_labels_restore_input_edges(self):
        graph = rmat_graph(8, 4, seed=3, shuffle=True)
        mat = graph_to_scipy(graph, original_labels=True)
        # Compare against the unshuffled build of the same edges.
        plain = rmat_graph(8, 4, seed=3, shuffle=False)
        expected = csr_to_scipy(plain.csr)
        assert (mat != expected).nnz == 0

    def test_internal_labels(self, rmat_small):
        mat = graph_to_scipy(rmat_small, original_labels=False)
        assert mat.nnz == rmat_small.nnz

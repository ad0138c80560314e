"""Tests for the sparse substrate: DCSC, SPA, SpMSV kernels, and SpMSV as
the boolean matrix-vector product a BFS level is (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bfs_serial
from repro.graphs import rmat_graph
from repro.sparse import (
    DCSC,
    SPA,
    choose_spmsv_kernel,
    spmsv,
    spmsv_heap,
    spmsv_spa,
)

from tests.conftest import spmsv_reference


def random_coo(nrows, ncols, nnz, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, nrows, nnz), rng.integers(0, ncols, nnz)


class TestDCSC:
    def test_round_trip(self):
        rows, cols = random_coo(40, 30, 150, seed=1)
        d = DCSC.from_coo(40, 30, rows, cols)
        r2, c2 = d.to_coo()
        d2 = DCSC.from_coo(40, 30, r2, c2)
        assert np.array_equal(d.jc, d2.jc)
        assert np.array_equal(d.cp, d2.cp)
        assert np.array_equal(d.ir, d2.ir)

    def test_duplicates_collapse(self):
        d = DCSC.from_coo(5, 5, [1, 1, 2], [3, 3, 3])
        assert d.nnz == 2
        assert d.nzc == 1

    def test_hypersparse_pointer_storage(self):
        # 3 nonzeros in a 1000-column block: pointer arrays are O(nzc),
        # the whole point of DCSC (Section 4.1).
        d = DCSC.from_coo(1000, 1000, [1, 2, 3], [10, 500, 990])
        assert d.nzc == 3
        assert d.cp.size == 4

    def test_empty_block(self):
        d = DCSC.from_coo(10, 10, [], [])
        assert d.nnz == 0
        rows, vals, _ = d.extract_columns(np.array([1, 2]), np.array([1, 2]))
        assert rows.size == 0

    def test_extract_columns_exact(self):
        d = DCSC.from_coo(6, 6, [0, 2, 4, 1], [1, 1, 3, 5])
        rows, vals, lookups = d.extract_columns(
            np.array([1, 2, 3]), np.array([100, 200, 300])
        )
        # Column 1 has rows {0, 2}, column 3 has {4}; column 2 is empty.
        assert sorted(zip(rows.tolist(), vals.tolist())) == [
            (0, 100),
            (2, 100),
            (4, 300),
        ]
        assert lookups == 3

    def test_extract_no_hits(self):
        d = DCSC.from_coo(4, 8, [0], [7])
        rows, vals, _ = d.extract_columns(np.array([0, 3]), np.array([1, 2]))
        assert rows.size == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            DCSC.from_coo(4, 4, [5], [0])

    def test_from_sorted_coo_equals_from_coo(self):
        rows, cols = random_coo(40, 30, 150, seed=5)
        d = DCSC.from_coo(40, 30, rows, cols)
        again = DCSC.from_sorted_coo(40, 30, *d.to_coo())
        assert np.array_equal(again.jc, d.jc)
        assert np.array_equal(again.cp, d.cp)
        assert np.array_equal(again.ir, d.ir)
        empty = DCSC.from_sorted_coo(4, 4, [], [])
        assert empty.nzc == 0 and np.array_equal(empty.cp, [0])

    def test_from_sorted_coo_rejects_unsorted_columns(self):
        with pytest.raises(ValueError, match="column-major"):
            DCSC.from_sorted_coo(4, 4, [0, 1, 2], [1, 0, 1])

    def test_split_rowwise_partitions(self):
        rows, cols = random_coo(64, 20, 300, seed=2)
        d = DCSC.from_coo(64, 20, rows, cols)
        pieces, offsets = d.split_rowwise(4)
        assert len(pieces) == 4
        assert offsets == [0, 16, 32, 48]
        assert sum(p.nnz for p in pieces) == d.nnz
        assert all(p.nrows == 16 for p in pieces)
        # Reassemble and compare.
        all_rows, all_cols = [], []
        for offset, piece in zip(offsets, pieces):
            pr, pc = piece.to_coo()
            all_rows.append(pr + offset)
            all_cols.append(pc)
        rebuilt = DCSC.from_coo(
            64, 20, np.concatenate(all_rows), np.concatenate(all_cols)
        )
        assert np.array_equal(rebuilt.ir, d.ir)

    def test_split_more_pieces_than_rows(self):
        d = DCSC.from_coo(2, 4, [0, 1], [1, 2])
        pieces, _offsets = d.split_rowwise(2)
        assert sum(p.nnz for p in pieces) == 2


class TestSPA:
    def test_max_select(self):
        spa = SPA(8)
        spa.accumulate(np.array([3, 3, 5]), np.array([10, 20, 7]))
        idx, val = spa.extract()
        assert np.array_equal(idx, [3, 5])
        assert np.array_equal(val, [20, 7])

    def test_reset_reuse(self):
        spa = SPA(8)
        spa.accumulate(np.array([1]), np.array([5]))
        spa.reset()
        idx, val = spa.extract()
        assert idx.size == 0
        spa.accumulate(np.array([2]), np.array([9]))
        idx, val = spa.extract_and_reset()
        assert np.array_equal(idx, [2]) and np.array_equal(val, [9])

    def test_identity_value_rejected(self):
        spa = SPA(4)
        with pytest.raises(ValueError, match="identity"):
            spa.accumulate(np.array([0]), np.array([-1]))

    def test_position_bounds(self):
        spa = SPA(4)
        with pytest.raises(ValueError, match="out of range"):
            spa.accumulate(np.array([4]), np.array([1]))

    def test_memory_footprint_reported(self):
        assert SPA(1000).memory_words == 1000


class TestSpMSVKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_spa_heap_reference_agree(self, seed):
        rng = np.random.default_rng(seed)
        nr, nc = rng.integers(5, 60), rng.integers(5, 60)
        nnz = int(rng.integers(0, 4 * max(nr, nc)))
        rows, cols = random_coo(nr, nc, nnz, seed=seed + 100)
        d = DCSC.from_coo(nr, nc, rows, cols)
        k = int(rng.integers(0, nc))
        fi = np.unique(rng.integers(0, nc, size=k)) if k else np.empty(0, np.int64)
        fv = fi * 3 + 1
        i_spa, v_spa, w_spa = spmsv_spa(d, fi, fv)
        i_heap, v_heap, w_heap = spmsv_heap(d, fi, fv)
        i_ref, v_ref = spmsv_reference(nr, rows, cols, fi, fv)
        assert np.array_equal(i_spa, i_heap) and np.array_equal(v_spa, v_heap)
        assert np.array_equal(i_spa, i_ref) and np.array_equal(v_spa, v_ref)
        assert w_spa.candidates == w_heap.candidates
        assert w_spa.kernel == "spa" and w_heap.kernel == "heap"

    def test_output_sorted_unique(self):
        rows, cols = random_coo(30, 30, 200, seed=9)
        d = DCSC.from_coo(30, 30, rows, cols)
        fi = np.arange(0, 30, 2)
        idx, _, _ = spmsv_heap(d, fi, fi + 1)
        assert np.all(np.diff(idx) > 0)

    def test_work_records(self):
        d = DCSC.from_coo(100, 10, [1, 2, 3], [4, 4, 5])
        _, _, w = spmsv_spa(d, np.array([4]), np.array([7]))
        assert w.candidates == 2
        assert w.merge_ws_words == 100
        assert w.heap_comparisons == 0.0
        _, _, wh = spmsv_heap(d, np.array([4, 5]), np.array([7, 8]))
        assert wh.heap_k == 2
        assert wh.heap_comparisons == pytest.approx(3 * 1.0)

    def test_polyalgorithm_predicate(self):
        # Figure 3: SPA below ~10K cores, heap beyond.
        assert choose_spmsv_kernel(1024) == "spa"
        assert choose_spmsv_kernel(20_000) == "heap"
        # Memory pressure forces the heap regardless of concurrency.
        assert (
            choose_spmsv_kernel(64, spa_words=10**9, memory_budget_words=10**6)
            == "heap"
        )
        # A budget without a known SPA working set cannot be enforced and
        # must not be silently ignored.
        with pytest.raises(ValueError, match="spa_words"):
            choose_spmsv_kernel(64, memory_budget_words=10**6)

    def test_auto_dispatch_respects_memory_budget(self):
        # The block's dense accumulator would need nrows=100 words; a
        # tighter budget must force the heap kernel even at low
        # concurrency, and a looser one must keep the SPA.
        d = DCSC.from_coo(100, 10, [1, 2, 3], [4, 4, 5])
        fi, fv = np.array([4, 5]), np.array([7, 8])
        _, _, w = spmsv(d, fi, fv, kernel="auto", modeled_cores=64,
                        memory_budget_words=50)
        assert w.kernel == "heap"
        _, _, w = spmsv(d, fi, fv, kernel="auto", modeled_cores=64,
                        memory_budget_words=1000)
        assert w.kernel == "spa"
        # Both kernels agree on the result either way.
        i1, v1, _ = spmsv(d, fi, fv, kernel="spa")
        i2, v2, _ = spmsv(d, fi, fv, kernel="auto", modeled_cores=64,
                          memory_budget_words=50)
        assert np.array_equal(i1, i2) and np.array_equal(v1, v2)

    def test_dispatch(self):
        d = DCSC.from_coo(10, 10, [1], [2])
        fi, fv = np.array([2]), np.array([3])
        for kernel, expect in [("spa", "spa"), ("heap", "heap")]:
            _, _, w = spmsv(d, fi, fv, kernel=kernel)
            assert w.kernel == expect
        _, _, w = spmsv(d, fi, fv, kernel="auto", modeled_cores=40_000)
        assert w.kernel == "heap"
        with pytest.raises(ValueError, match="unknown SpMSV kernel"):
            spmsv(d, fi, fv, kernel="bogus")


class TestSpMSVAsMatrixProduct:
    def test_transpose_involution(self):
        # Transposing a DCSC is a rebuild from its swapped pairs.
        rows, cols = random_coo(12, 17, 60, seed=4)
        d = DCSC.from_coo(12, 17, rows, cols)
        r, c = d.to_coo()
        dt = DCSC.from_coo(17, 12, c, r)
        rt, ct = dt.to_coo()
        back = DCSC.from_coo(12, 17, ct, rt)
        assert dt.nnz == d.nnz
        assert np.array_equal(back.jc, d.jc)
        assert np.array_equal(back.cp, d.cp)
        assert np.array_equal(back.ir, d.ir)

    def test_spmsv_is_boolean_spmv(self):
        rows, cols = random_coo(25, 25, 90, seed=6)
        d = DCSC.from_coo(25, 25, rows, cols)
        dense = np.zeros((25, 25), dtype=bool)
        dense[rows, cols] = True
        x = np.random.default_rng(7).random(25) < 0.3
        fi = np.flatnonzero(x)
        idx, _, _ = spmsv(d, fi, fi + 1)
        assert np.array_equal(idx, np.flatnonzero(dense @ x))

    def test_spmsv_skips_rows_without_frontier_entries(self):
        d = DCSC.from_coo(4, 4, [0], [0])
        fi = np.arange(4)
        for kernel in ("spa", "heap"):
            idx, vals, _ = spmsv(d, fi, fi + 1, kernel=kernel)
            assert np.array_equal(idx, [0]) and np.array_equal(vals, [1])

    def test_repeated_spmsv_matches_bfs_levels(self):
        """One SpMSV with the frontier, masked by the visited set, is one
        level of a level-synchronous BFS."""
        graph = rmat_graph(9, 8, seed=3)
        csr = graph.csr
        adjacency = DCSC.from_coo(
            csr.n, csr.n, csr.indices, np.repeat(np.arange(csr.n), csr.degrees())
        )
        source = int(np.argmax(csr.degrees()))
        expected, _ = bfs_serial(csr, source)
        levels = np.full(csr.n, -1, dtype=np.int64)
        levels[source] = 0
        frontier, depth = np.array([source]), 0
        while frontier.size:
            depth += 1
            reached, _, _ = spmsv(adjacency, frontier, frontier)
            frontier = reached[levels[reached] < 0]
            levels[frontier] = depth
        assert np.array_equal(levels, expected)

"""Tests for the 2D distributed BFS (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bfs_serial
from repro.core.bfs1d import TopDown1D
from repro.core.bfs2d import SpMSV2D, build_2d_blocks
from repro.core.engine import traversal_body
from repro.core.partition import Decomp2D
from repro.graphs.csr import CSR, build_csr
from repro.mpsim import run_spmd
from repro.sparse import DCSC

from tests.conftest import make_disconnected_graph, make_path_graph, make_star_graph


def run_2d(
    graph, source_internal, side, threads=1, diagonal=False, kernel="auto", **launch
):
    decomp = Decomp2D(graph.n, side, diagonal_vectors=diagonal)
    blocks = build_2d_blocks(graph.csr, decomp, threads=threads)
    res = run_spmd(
        side * side,
        traversal_body,
        SpMSV2D,
        (blocks, decomp, source_internal),
        {"kernel": kernel},
        threads=threads,
        **launch,
    )
    levels = np.empty(graph.n, dtype=np.int64)
    parents = np.empty(graph.n, dtype=np.int64)
    for out in res.returns:
        levels[out["plo"] : out["phi"]] = out["levels"]
        parents[out["plo"] : out["phi"]] = out["parents"]
    return levels, parents, res.stats


class TestBuild2dBlocks:
    def test_blocks_partition_all_entries(self, rmat_small):
        decomp = Decomp2D(rmat_small.n, 3)
        blocks = build_2d_blocks(rmat_small.csr, decomp)
        assert sum(b.nnz for b in blocks) == rmat_small.nnz

    def test_block_contents_match_ranges(self, rmat_small):
        decomp = Decomp2D(rmat_small.n, 2)
        blocks = build_2d_blocks(rmat_small.csr, decomp)
        # Reconstruct all (row=v, col=u) entries and compare with the CSR.
        entries = []
        for rank, local in enumerate(blocks):
            i, j = divmod(rank, 2)
            rlo, _ = decomp.block(i)
            clo, _ = decomp.block(j)
            for piece, off in zip(local.pieces, local.band_offsets):
                rr, cc = piece.to_coo()
                entries.append(
                    np.stack([rr + rlo + off, cc + clo])
                )
        got = np.concatenate(entries, axis=1)
        got = got[:, np.lexsort((got[1], got[0]))]
        rows = np.repeat(
            np.arange(rmat_small.n, dtype=np.int64), rmat_small.degrees()
        )
        # Stored matrix is A^T: entry (v, u) per adjacency u -> v.
        exp = np.stack([rmat_small.csr.indices, rows])
        exp = exp[:, np.lexsort((exp[1], exp[0]))]
        assert np.array_equal(got, exp)

    def test_thread_split_preserves_entries(self, rmat_small):
        decomp = Decomp2D(rmat_small.n, 2)
        flat = build_2d_blocks(rmat_small.csr, decomp, threads=1)
        split = build_2d_blocks(rmat_small.csr, decomp, threads=4)
        for a, b in zip(flat, split):
            assert a.nnz == b.nnz
            assert len(b.pieces) == 4


@st.composite
def csr_inputs(draw):
    """A small directed graph as one of the three CSR flavours the
    distributor must accept: canonical, multigraph (``dedup=False``), and
    hand-built with shuffled adjacencies and parallel edges."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    flavour = draw(st.sampled_from(["canonical", "multigraph", "hand-built"]))
    if flavour == "hand-built":
        order = np.argsort(src, kind="stable")  # dst stays in drawn order
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return CSR(n=n, indptr=indptr, indices=dst[order])
    return build_csr(
        n, src, dst, symmetrize=False, dedup=flavour == "canonical",
        drop_self_loops=False,
    )


def reference_blocks(csr, decomp, threads):
    """Per-block (and per-band) ``DCSC.from_coo`` of the masked COO."""
    rows = csr.indices
    cols = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    out = []
    for i in range(decomp.pr):
        rlo, rhi = decomp.row_block(i)
        band = max(1, (rhi - rlo) // threads)
        for j in range(decomp.pc):
            clo, chi = decomp.col_block(j)
            pieces, offsets = [], []
            for t in range(threads):
                lo = min(rlo + t * band, rhi)
                hi = rhi if t == threads - 1 else min(lo + band, rhi)
                m = (rows >= lo) & (rows < hi) & (cols >= clo) & (cols < chi)
                pieces.append(
                    DCSC.from_coo(hi - lo, chi - clo, rows[m] - lo, cols[m] - clo)
                )
                offsets.append(lo - rlo)
            out.append((pieces, offsets))
    return out


@settings(max_examples=150, deadline=None)
@given(
    csr_inputs(),
    st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (1, 4), (5, 1)]),
    st.sampled_from([1, 3]),
)
def test_build_2d_blocks_equals_per_block_from_coo(csr, grid, threads):
    """The sort-free distributor is bit-identical to sorting every block
    from scratch — for unsorted and multigraph input, rectangular grids,
    ``p`` not dividing ``n``, empty blocks (``n < pr``) and row bands."""
    decomp = Decomp2D(csr.n, *grid)
    blocks = build_2d_blocks(csr, decomp, threads=threads)
    reference = reference_blocks(csr, decomp, threads)
    assert len(blocks) == len(reference)
    for local, (pieces, offsets) in zip(blocks, reference):
        assert local.band_offsets == offsets
        assert len(local.pieces) == len(pieces)
        for got, ref in zip(local.pieces, pieces):
            assert (got.nrows, got.ncols) == (ref.nrows, ref.ncols)
            assert np.array_equal(got.jc, ref.jc)
            assert np.array_equal(got.cp, ref.cp)
            assert np.array_equal(got.ir, ref.ir)
            assert got.jc.dtype == got.cp.dtype == got.ir.dtype == np.int64


def test_build_2d_blocks_rejects_out_of_range_adjacency():
    bad = CSR(n=3, indptr=np.array([0, 1, 1, 2]), indices=np.array([1, -1]))
    with pytest.raises(ValueError, match="out of range"):
        build_2d_blocks(bad, Decomp2D(3, 2))


class TestBfs2dCorrectness:
    @pytest.mark.parametrize("side", [1, 2, 3, 4])
    def test_matches_serial_on_rmat(self, rmat_small, side):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 1)[0])
        )
        ref_levels, ref_parents = bfs_serial(rmat_small.csr, src)
        levels, parents, _ = run_2d(rmat_small, src, side)
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(parents, ref_parents)

    @pytest.mark.parametrize("kernel", ["spa", "heap", "auto"])
    def test_kernels_agree(self, rmat_small, kernel):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 2)[0])
        )
        ref_levels, ref_parents = bfs_serial(rmat_small.csr, src)
        levels, parents, _ = run_2d(rmat_small, src, 3, kernel=kernel)
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(parents, ref_parents)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_hybrid_thread_split_correct(self, rmat_small, threads):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 3)[0])
        )
        ref_levels, ref_parents = bfs_serial(rmat_small.csr, src)
        levels, parents, _ = run_2d(rmat_small, src, 2, threads=threads)
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(parents, ref_parents)

    def test_diagonal_vector_distribution_correct(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 4)[0])
        )
        ref_levels, _ = bfs_serial(rmat_small.csr, src)
        levels, _, _ = run_2d(rmat_small, src, 3, diagonal=True)
        assert np.array_equal(levels, ref_levels)

    def test_path_graph(self):
        g = make_path_graph(29)
        levels, _, _ = run_2d(g, 0, 3)
        assert np.array_equal(levels, np.arange(29))

    def test_star_graph(self):
        g = make_star_graph(30)
        levels, _, _ = run_2d(g, 0, 2)
        assert np.all(levels[1:] == 1)

    def test_disconnected(self):
        g = make_disconnected_graph()
        levels, _, _ = run_2d(g, 0, 2)
        assert np.array_equal(levels, [0, 1, 1, -1, -1, -1])

    def test_high_diameter(self, crawl_graph):
        src = int(crawl_graph.to_internal(0))
        ref_levels, _ = bfs_serial(crawl_graph.csr, src)
        levels, _, stats = run_2d(crawl_graph, src, 2)
        assert np.array_equal(levels, ref_levels)
        # Many levels => many expand/fold rounds.
        assert stats.calls("allgatherv") == ref_levels.max() + 1


class TestBfs2dCommunication:
    def test_expand_volume_bounded_by_frontier(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 5)[0])
        )
        levels, _, stats = run_2d(rmat_small, src, 3)
        n_reach = int((levels >= 0).sum())
        # Aggregate allgatherv input is the frontier total = reached
        # vertices; every rank receives its column's share, so the
        # aggregate received volume is bounded by side * n_reach.
        assert stats.words_recv("allgatherv") <= 3 * n_reach

    def test_fold_traffic_less_than_1d(self, rmat_medium):
        """The headline claim: 2D moves less all-to-all data than 1D."""
        src = int(
            rmat_medium.to_internal(rmat_medium.random_nonisolated_vertices(1, 6)[0])
        )
        res1d = run_spmd(16, traversal_body, TopDown1D, (rmat_medium.csr, src), {})
        _, _, stats2d = run_2d(rmat_medium, src, 4)
        assert stats2d.words_sent("alltoallv") < res1d.stats.words_sent("alltoallv")

    def test_transpose_is_pairwise(self, rmat_small):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 7)[0])
        )
        _, _, stats = run_2d(rmat_small, src, 3)
        assert stats.calls("exchange") >= 1

    def test_diagonal_distribution_idles_offdiagonal(self, rmat_medium):
        """Figure 4: diagonal-only vectors create severe MPI-time imbalance."""
        from repro.model import FRANKLIN, NetworkCostModel

        src = int(
            rmat_medium.to_internal(rmat_medium.random_nonisolated_vertices(1, 8)[0])
        )
        side = 4
        _, _, stats_diag = run_2d(
            rmat_medium, src, side, diagonal=True,
            machine=FRANKLIN,
            cost_model=NetworkCostModel(FRANKLIN, total_ranks=side * side),
        )
        _, _, stats_2d = run_2d(
            rmat_medium, src, side,
            machine=FRANKLIN,
            cost_model=NetworkCostModel(FRANKLIN, total_ranks=side * side),
        )
        diag_ranks = [i * side + i for i in range(side)]
        off_ranks = [r for r in range(side * side) if r not in diag_ranks]
        # Diagonal-only vectors funnel the entire fold output to the
        # diagonal ranks: off-diagonal ranks receive nothing and idle
        # while the diagonal does the additional local merging phase.
        recv_diag = [stats_diag.comm[r].words_recv["alltoallv"] for r in diag_ranks]
        recv_off = [stats_diag.comm[r].words_recv["alltoallv"] for r in off_ranks]
        assert min(recv_diag) > 0
        assert max(recv_off) == 0
        comp_diag = np.mean([stats_diag.clocks[r].compute_time for r in diag_ranks])
        comp_off = np.mean([stats_diag.clocks[r].compute_time for r in off_ranks])
        assert comp_diag > comp_off
        wait_off_diagmode = np.mean(
            [stats_diag.clocks[r].mpi_wait_time for r in off_ranks]
        )
        wait_off_2dmode = np.mean(
            [stats_2d.clocks[r].mpi_wait_time for r in off_ranks]
        )
        assert wait_off_diagmode > 2.0 * wait_off_2dmode
        # The 2D vector distribution spreads the fold traffic evenly.
        recv_2d = [
            stats_2d.comm[r].words_recv["alltoallv"] for r in range(side * side)
        ]
        assert max(recv_2d) < 3.0 * (min(recv_2d) + 1)


class TestRectangularGrids:
    """The paper's general (pr != pc) formulation: the vector transpose
    becomes an all-to-all along the processor row (Section 3.2)."""

    @pytest.mark.parametrize("pr,pc", [(2, 3), (3, 2), (4, 2), (1, 4), (5, 1)])
    def test_matches_serial(self, rmat_small, pr, pc):
        src = int(
            rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 9)[0])
        )
        ref_levels, ref_parents = bfs_serial(rmat_small.csr, src)
        decomp = Decomp2D(rmat_small.n, pr, pc)
        blocks = build_2d_blocks(rmat_small.csr, decomp)
        res = run_spmd(pr * pc, traversal_body, SpMSV2D, (blocks, decomp, src), {})
        levels = np.empty(rmat_small.n, dtype=np.int64)
        parents = np.empty(rmat_small.n, dtype=np.int64)
        for out in res.returns:
            levels[out["plo"] : out["phi"]] = out["levels"]
            parents[out["plo"] : out["phi"]] = out["parents"]
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(parents, ref_parents)

    def test_runner_grid_shape(self, rmat_small):
        from repro.core import run_bfs

        src = int(rmat_small.random_nonisolated_vertices(1, 10)[0])
        ref = run_bfs(rmat_small, src, "serial")
        res = run_bfs(
            rmat_small, src, "2d", nprocs=6, grid_shape=(2, 3), validate=True
        )
        assert res.nranks == 6
        assert np.array_equal(res.levels, ref.levels)

    def test_hybrid_rectangular(self, rmat_small):
        from repro.core import run_bfs

        src = int(rmat_small.random_nonisolated_vertices(1, 11)[0])
        ref = run_bfs(rmat_small, src, "serial")
        res = run_bfs(
            rmat_small, src, "2d", nprocs=6, grid_shape=(3, 2), threads=2
        )
        assert np.array_equal(res.levels, ref.levels)

    def test_diagonal_vectors_need_square(self):
        with pytest.raises(ValueError, match="square"):
            Decomp2D(100, 2, 3, diagonal_vectors=True)

    def test_timed_rectangular(self, rmat_small):
        from repro.core import run_bfs

        src = int(rmat_small.random_nonisolated_vertices(1, 12)[0])
        res = run_bfs(
            rmat_small, src, "2d", nprocs=8, grid_shape=(4, 2), machine="hopper"
        )
        assert res.time_total > 0
        # Rectangular expand gathers over pr=4 parties, fold over pc=2.
        assert res.stats.calls("allgatherv") >= 1

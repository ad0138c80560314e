"""Within-run ratio smokes for the sort-free 2D host path.

ROADMAP 2(c): gate ratios measured inside one process, not seconds.  The
checks time the production code against the formulations it replaced, on
a scale-14 R-MAT, and assert identical results:

* :func:`~repro.core.bfs2d.build_2d_blocks` (the CSR's (column, row
  block) runs bucketed by rank, one range-gather of the row ids) against
  per-block ``DCSC.from_coo`` of the bucketed COO, and against the
  nonzero-wide stable bucket of rank labels it replaced;
* the SPA's occupancy read-out against ``unique_sorted`` of the touched
  list on a dense level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.bfs2d import LocalBlock, build_2d_blocks
from repro.core.partition import Decomp2D
from repro.graphs.csr import build_csr
from repro.graphs.rmat import rmat_edges
from repro.sparse.dcsc import DCSC
from repro.sparse.spa import SPA

SCALE = 14
GRID = 4

#: Loose CI-safe bar; measured on a noisy 2-CPU box 2.3-3.2x (blocks; 4x at
#: scale 16) and several hundred x (SPA).
MIN_SPEEDUP = 2.0

#: CI-safe bar against the nonzero-wide rank bucket.
MIN_RUN_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def csr():
    src, dst = rmat_edges(SCALE, 16, seed=5)
    return build_csr(1 << SCALE, src, dst)


def _per_block_from_coo(csr, decomp):
    """The distributor as it was: label by binary search, stable-sort by
    rank, re-sort every block from scratch."""
    cols = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    rows = csr.indices
    ranks = decomp.row_block_of(rows) * decomp.pc + decomp.col_block_of(cols)
    order = np.argsort(ranks, kind="stable")
    rows, cols = rows[order], cols[order]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(ranks, minlength=decomp.nprocs))])
    blocks = []
    for rank in range(decomp.nprocs):
        i, j = divmod(rank, decomp.pc)
        rlo, rhi = decomp.row_block(i)
        clo, chi = decomp.col_block(j)
        sel = slice(offsets[rank], offsets[rank + 1])
        blocks.append(
            DCSC.from_coo(rhi - rlo, chi - clo, rows[sel] - rlo, cols[sel] - clo)
        )
    return blocks


def _nonzero_bucket(csr, decomp):
    """The distributor as it was before column runs, checks included: a
    rank label per nonzero (a gather for the rows, an ``np.repeat`` for
    the columns), one stable bucket of the labels, each rank's slice
    read off as is."""
    if csr.nnz and (csr.indices.min() < 0 or csr.indices.max() >= csr.n):
        raise ValueError(f"adjacency ids out of range [0, {csr.n})")
    assert csr.is_canonical()
    degrees = csr.degrees()
    row_part, col_part = decomp.rank_tables()
    ranks = row_part[csr.indices]
    ranks += np.repeat(col_part, degrees)
    order = np.argsort(ranks, kind="stable")
    rows = csr.indices[order]
    cols = np.repeat(np.arange(csr.n, dtype=np.int64), degrees)[order]
    ends = np.searchsorted(
        ranks[order], np.arange(decomp.nprocs, dtype=ranks.dtype), side="right"
    )
    offsets = np.concatenate([[0], ends])
    blocks = []
    for rank in range(decomp.nprocs):
        i, j = divmod(rank, decomp.pc)
        rlo, rhi = decomp.row_block(i)
        clo, chi = decomp.col_block(j)
        sel = slice(offsets[rank], offsets[rank + 1])
        block = DCSC.from_sorted_coo(
            rhi - rlo, chi - clo, rows[sel] - rlo, cols[sel] - clo
        )
        blocks.append(LocalBlock(*block.split_rowwise(1)))
    return blocks


def _assert_speedup(what, fast, slow, bar=MIN_SPEEDUP):
    speedup = slow / fast
    assert speedup >= bar, (
        f"{what} only {speedup:.1f}x its reference "
        f"({fast:.4f}s vs {slow:.4f}s); expected >= {bar}x"
    )


def _assert_same_blocks(blocks, reference):
    for local, ref in zip(blocks, reference, strict=True):
        (got,) = local.pieces
        if isinstance(ref, LocalBlock):
            (ref,) = ref.pieces
        assert np.array_equal(got.jc, ref.jc)
        assert np.array_equal(got.cp, ref.cp)
        assert np.array_equal(got.ir, ref.ir)


def test_build_2d_blocks_beats_per_block_sort(csr, race):
    decomp = Decomp2D(csr.n, GRID)
    fast, blocks, slow, reference = race(
        lambda: build_2d_blocks(csr, decomp),
        lambda: _per_block_from_coo(csr, decomp),
    )
    _assert_same_blocks(blocks, reference)
    _assert_speedup("build_2d_blocks", fast, slow)


def test_build_2d_blocks_beats_nonzero_bucket(csr, race):
    """Measured 1.41-1.56x on a noisy 2-CPU box; best of 15 rounds, as
    both sides take only a few milliseconds."""
    decomp = Decomp2D(csr.n, GRID)
    fast, blocks, slow, reference = race(
        lambda: build_2d_blocks(csr, decomp),
        lambda: _nonzero_bucket(csr, decomp),
        rounds=15,
    )
    _assert_same_blocks(blocks, reference)
    _assert_speedup("build_2d_blocks", fast, slow, MIN_RUN_SPEEDUP)


def test_spa_occupancy_beats_unique_sorted(csr, race):
    """A dense level: every row of a block touched several times over."""
    length = csr.n // GRID
    positions = csr.indices[csr.indices < length]
    values = np.arange(positions.size, dtype=np.int64)
    spa = SPA(length)
    spa.accumulate(positions, values)
    # extract() leaves the SPA loaded, so every round reads the same level.
    fast, (idx, val), slow, want = race(
        spa.extract, lambda: kernels.unique_sorted(positions)
    )
    assert np.array_equal(idx, want)
    dense = np.full(length, -1, dtype=np.int64)
    np.maximum.at(dense, positions, values)
    assert np.array_equal(val, dense[want])
    _assert_speedup("SPA occupancy read-out", fast, slow)

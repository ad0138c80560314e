"""Tests for 1D and 2D partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partition import Decomp2D, Partition1D, block_bounds


class TestBlockBounds:
    def test_even_division(self):
        assert np.array_equal(block_bounds(12, 4), [0, 3, 6, 9, 12])

    def test_remainder_to_last(self):
        assert np.array_equal(block_bounds(10, 4), [0, 2, 4, 6, 10])

    def test_more_parts_than_items(self):
        bounds = block_bounds(2, 5)
        assert bounds[0] == 0 and bounds[-1] == 2
        assert np.all(np.diff(bounds) >= 0)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            block_bounds(5, 0)


class TestPartition1D:
    def test_ranges_cover_everything(self):
        part = Partition1D(103, 8)
        covered = []
        for rank in range(8):
            lo, hi = part.range_of(rank)
            covered.extend(range(lo, hi))
        assert covered == list(range(103))

    def test_owner_matches_range(self):
        part = Partition1D(100, 7)
        vertices = np.arange(100)
        owners = part.owner_of(vertices)
        for rank in range(7):
            lo, hi = part.range_of(rank)
            assert np.all(owners[lo:hi] == rank)

    def test_single_rank(self):
        part = Partition1D(10, 1)
        assert part.range_of(0) == (0, 10)
        assert np.all(part.owner_of(np.arange(10)) == 0)

    def test_out_of_range_vertex(self):
        part = Partition1D(10, 2)
        with pytest.raises(ValueError, match="out of range"):
            part.owner_of(np.array([10]))

    def test_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            Partition1D(10, 2).range_of(2)


class TestDecomp2D:
    def test_blocks_cover(self):
        d = Decomp2D(101, 4)
        covered = []
        for k in range(4):
            lo, hi = d.block(k)
            covered.extend(range(lo, hi))
        assert covered == list(range(101))

    def test_vec_pieces_tile_blocks(self):
        d = Decomp2D(100, 3)
        for i in range(3):
            lo, hi = d.block(i)
            covered = []
            for j in range(3):
                plo, phi = d.vec_piece(i, j)
                assert lo <= plo <= phi <= hi
                covered.extend(range(plo, phi))
            assert covered == list(range(lo, hi))

    def test_vec_owner_col_consistent_with_pieces(self):
        d = Decomp2D(97, 4)
        for i in range(4):
            lo, hi = d.block(i)
            vertices = np.arange(lo, hi)
            owners = d.vec_owner_col(i, vertices)
            for j in range(4):
                plo, phi = d.vec_piece(i, j)
                assert np.all(owners[plo - lo : phi - lo] == j)

    def test_diagonal_vector_distribution(self):
        d = Decomp2D(64, 4, diagonal_vectors=True)
        for i in range(4):
            lo, hi = d.block(i)
            for j in range(4):
                plo, phi = d.vec_piece(i, j)
                if i == j:
                    assert (plo, phi) == (lo, hi)
                else:
                    assert plo == phi  # empty
            owners = d.vec_owner_col(i, np.arange(lo, hi))
            assert np.all(owners == i)

    def test_block_of(self):
        d = Decomp2D(100, 5)
        blocks = d.block_of(np.arange(100))
        for k in range(5):
            lo, hi = d.block(k)
            assert np.all(blocks[lo:hi] == k)

    def test_vertices_outside_block_rejected(self):
        d = Decomp2D(100, 4)
        with pytest.raises(ValueError, match="outside block"):
            d.vec_owner_col(0, np.array([99]))

    def test_tiny_n_large_grid(self):
        # More processors than vertices: blocks may be empty but must tile.
        d = Decomp2D(3, 4)
        total = sum(d.block(k)[1] - d.block(k)[0] for k in range(4))
        assert total == 3

    @pytest.mark.parametrize("n,pr,pc", [(100, 4, 4), (37, 3, 2), (3, 4, 4), (50, 1, 300)])
    def test_rank_tables(self, n, pr, pc):
        d = Decomp2D(n, pr, pc)
        row_part, col_part = d.rank_tables()
        v = np.arange(n)
        assert np.array_equal(row_part, d.row_block_of(v) * pc)
        assert np.array_equal(col_part, d.col_block_of(v))
        # Narrowest unsigned dtype in which a rank id (their sum) fits.
        assert row_part.dtype == col_part.dtype == np.min_scalar_type(pr * pc - 1)

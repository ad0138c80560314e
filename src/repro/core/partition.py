"""Graph and vector partitioning (Sections 3.1 and 3.2).

1D: each of ``p`` processes owns ``n/p`` consecutive vertices and all
their outgoing edges (the last process absorbs the remainder).

2D: processors form a square ``s x s`` grid.  The adjacency matrix is
block-distributed — ``P(i, j)`` stores the sub-matrix with rows in block
``i`` and columns in block ``j`` — and the *vector* follows the "2D vector
distribution" (Section 3.2): processor row ``i`` collectively owns vector
block ``i``, split evenly among the ``s`` processors of the row.  The
paper's alternative "1D vector distribution" (only the diagonal processors
own vector entries) is also provided for the Figure 4 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def block_bounds(n: int, parts: int) -> np.ndarray:
    """Offsets of an even block partition: floor(n/parts) per block, the
    last block absorbing the remainder (the paper's convention)."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    size = n // parts
    bounds = np.arange(parts + 1, dtype=np.int64) * size
    bounds[-1] = n
    return bounds


@dataclass(frozen=True)
class Partition1D:
    """Block distribution of ``n`` vertices over ``p`` ranks."""

    n: int
    p: int
    bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        object.__setattr__(self, "bounds", block_bounds(self.n, self.p))

    def range_of(self, rank: int) -> tuple[int, int]:
        """Half-open global vertex range owned by ``rank``."""
        if not 0 <= rank < self.p:
            raise ValueError(f"rank {rank} out of range [0, {self.p})")
        return int(self.bounds[rank]), int(self.bounds[rank + 1])

    def local_count(self, rank: int) -> int:
        lo, hi = self.range_of(rank)
        return hi - lo

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized ``find_owner``: which rank owns each vertex."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.n):
            raise ValueError(f"vertex ids out of range [0, {self.n})")
        owners = np.searchsorted(self.bounds, vertices, side="right") - 1
        return np.minimum(owners, self.p - 1)


@dataclass(frozen=True)
class Decomp2D:
    """2D block decomposition of matrix and vector over a ``pr x pc`` grid.

    Matrix block ``(i, j)`` covers rows ``row_block(i)`` (one of ``pr``
    even bands) and columns ``col_block(j)`` (one of ``pc``); vector piece
    ``(i, j)`` is the ``j``-th even subdivision of ``row_block(i)`` (the
    2D vector distribution), or — with ``diagonal_vectors=True``, square
    grids only — the whole ``row_block(i)`` for ``j == i`` and empty
    otherwise (the 1D vector distribution of Figure 4).

    The paper runs all its 2D experiments on "the closest square processor
    grid" (``pc`` defaults to ``pr``), but its general formulation allows
    rectangular grids, where the vector transpose becomes an all-to-all
    instead of a pairwise swap (Section 3.2).
    """

    n: int
    pr: int
    pc: int | None = None
    diagonal_vectors: bool = False
    row_bounds: np.ndarray = field(init=False)
    col_bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.pc is None:
            object.__setattr__(self, "pc", self.pr)
        if self.pr < 1 or self.pc < 1:
            raise ValueError(f"grid dims must be >= 1, got {self.pr}x{self.pc}")
        if self.diagonal_vectors and self.pr != self.pc:
            raise ValueError(
                "the diagonal (1D) vector distribution needs a square grid"
            )
        object.__setattr__(self, "row_bounds", block_bounds(self.n, self.pr))
        object.__setattr__(self, "col_bounds", block_bounds(self.n, self.pc))

    @property
    def is_square(self) -> bool:
        return self.pr == self.pc

    @property
    def side(self) -> int:
        """Grid dimension of a square decomposition (most call sites)."""
        if not self.is_square:
            raise ValueError(
                f"side is only defined for square grids, this one is "
                f"{self.pr}x{self.pc}"
            )
        return self.pr

    @property
    def nprocs(self) -> int:
        return self.pr * self.pc

    def row_block(self, i: int) -> tuple[int, int]:
        """Row range of processor-row ``i``'s matrix blocks."""
        if not 0 <= i < self.pr:
            raise ValueError(f"row block {i} out of range [0, {self.pr})")
        return int(self.row_bounds[i]), int(self.row_bounds[i + 1])

    def col_block(self, j: int) -> tuple[int, int]:
        """Column range of processor-column ``j``'s matrix blocks."""
        if not 0 <= j < self.pc:
            raise ValueError(f"col block {j} out of range [0, {self.pc})")
        return int(self.col_bounds[j]), int(self.col_bounds[j + 1])

    def block(self, k: int) -> tuple[int, int]:
        """Square-grid shorthand: row/column range of block ``k``."""
        if not self.is_square:
            raise ValueError("block() needs a square grid; use row_block/col_block")
        return self.row_block(k)

    def row_block_of(self, vertices: np.ndarray) -> np.ndarray:
        """Which row block each global vertex id falls into."""
        vertices = np.asarray(vertices, dtype=np.int64)
        blocks = np.searchsorted(self.row_bounds, vertices, side="right") - 1
        return np.minimum(blocks, self.pr - 1)

    def col_block_of(self, vertices: np.ndarray) -> np.ndarray:
        """Which column block each global vertex id falls into."""
        vertices = np.asarray(vertices, dtype=np.int64)
        blocks = np.searchsorted(self.col_bounds, vertices, side="right") - 1
        return np.minimum(blocks, self.pc - 1)

    def rank_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex rank contributions: matrix entry ``(row=v, col=u)``
        lives on rank ``row_part[v] + col_part[u]``.

        ``n`` lookups each, in the narrowest unsigned dtype that holds a
        rank id: the distributor gathers one byte label per nonzero row
        (a change inside an adjacency starts a new (column, row block)
        run), labels each run with its column's entry and buckets the
        runs with a radix pass — no binary search anywhere.
        """
        vertices = np.arange(self.n, dtype=np.int64)
        dtype = np.min_scalar_type(self.nprocs - 1)
        return (
            (self.row_block_of(vertices) * self.pc).astype(dtype),
            self.col_block_of(vertices).astype(dtype),
        )

    def block_of(self, vertices: np.ndarray) -> np.ndarray:
        """Square-grid shorthand for :meth:`row_block_of`."""
        if not self.is_square:
            raise ValueError(
                "block_of() needs a square grid; use row_block_of/col_block_of"
            )
        return self.row_block_of(vertices)

    # -- vector distribution -------------------------------------------------
    def vec_piece(self, i: int, j: int) -> tuple[int, int]:
        """Global range of the vector piece owned by ``P(i, j)``."""
        lo, hi = self.row_block(i)
        if self.diagonal_vectors:
            return (lo, hi) if i == j else (lo, lo)
        piece_bounds = block_bounds(hi - lo, self.pc)
        return lo + int(piece_bounds[j]), lo + int(piece_bounds[j + 1])

    def vec_owner_col(self, i: int, vertices: np.ndarray) -> np.ndarray:
        """Within processor row ``i``, the column index owning each vertex.

        ``vertices`` must lie inside ``row_block(i)``.
        """
        lo, hi = self.row_block(i)
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < lo or vertices.max() >= hi):
            raise ValueError(f"vertices outside block {i} range [{lo}, {hi})")
        if self.diagonal_vectors:
            return np.full(vertices.shape, i, dtype=np.int64)
        piece_bounds = lo + block_bounds(hi - lo, self.pc)
        owners = np.searchsorted(piece_bounds, vertices, side="right") - 1
        return np.minimum(owners, self.pc - 1)

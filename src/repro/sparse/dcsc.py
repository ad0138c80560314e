"""Doubly-compressed sparse columns (Buluc & Gilbert [7]; Section 4.1).

After 2D decomposition each processor's block is *hypersparse*: the block
has ``n/sqrt(p)`` columns but only ``m/p`` nonzeros, so most columns are
empty and a conventional CSC's ``O(n/sqrt(p))`` column-pointer array would
dominate memory (aggregate ``O(n * sqrt(p) + m)`` instead of ``O(n + m)``).
DCSC stores:

* ``JC`` — the ids of the ``nzc`` columns that have at least one nonzero,
  sorted ascending;
* ``CP`` — ``nzc + 1`` pointers into ``IR``;
* ``IR`` — row ids, sorted within each column.

Column lookup is a binary search in ``JC``; the SpMSV extracts all
frontier columns in one vectorized searchsorted + range-gather pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels


@dataclass(frozen=True)
class DCSC:
    """Hypersparse boolean matrix block in doubly-compressed form."""

    nrows: int
    ncols: int
    jc: np.ndarray  # distinct non-empty column ids, sorted
    cp: np.ndarray  # column pointers into ir, length nzc + 1
    ir: np.ndarray  # row ids, sorted within each column

    def __post_init__(self):
        if self.cp.size != self.jc.size + 1:
            raise ValueError(
                f"CP length {self.cp.size} != nzc + 1 = {self.jc.size + 1}"
            )
        if self.cp.size and (self.cp[0] != 0 or self.cp[-1] != self.ir.size):
            raise ValueError("CP does not span IR")
        if self.jc.size and (self.jc[0] < 0 or self.jc[-1] >= self.ncols):
            raise ValueError(f"column ids out of range [0, {self.ncols})")

    @property
    def nnz(self) -> int:
        return int(self.ir.size)

    @property
    def nzc(self) -> int:
        """Number of columns with at least one nonzero."""
        return int(self.jc.size)

    @classmethod
    def from_coo(
        cls, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray
    ) -> "DCSC":
        """Build from (row, col) pairs; duplicates are collapsed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows/cols must be equal-length 1-D")
        if rows.size and (
            rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
        ):
            raise ValueError(f"entries out of range {nrows}x{ncols}")
        if rows.size and nrows <= (1 << 31) and ncols <= (1 << 31):
            # Single quicksort of the composite (col, row) key: ~20x
            # faster than lexsort's two stable passes; dedup collapses to
            # one comparison per neighbour on the sorted keys.
            key = cols * np.int64(nrows) + rows
            key.sort()
            keep = np.empty(key.size, dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
            cols = key // nrows
            rows = key - cols * nrows
        else:
            order = np.lexsort((rows, cols))
            rows, cols = rows[order], cols[order]
            if rows.size:
                keep = np.empty(rows.size, dtype=bool)
                keep[0] = True
                np.not_equal(cols[1:], cols[:-1], out=keep[1:])
                keep[1:] |= rows[1:] != rows[:-1]
                rows, cols = rows[keep], cols[keep]
        return cls.from_sorted_coo(nrows, ncols, rows, cols)

    @classmethod
    def from_sorted_coo(
        cls, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray
    ) -> "DCSC":
        """Build from pairs already in (col, row) order without duplicates.

        The caller guarantees the order — a row-band mask of an existing
        block, :meth:`from_coo`'s own sort, a CSR's column-major pairs
        — so ``JC``/``CP`` are read off the column run boundaries with one
        adjacent compare: no sort, no ``np.unique``.  Pairs that are not
        column-major are rejected (``JC`` would not be increasing); row
        order within a column is the caller's contract and is not
        re-checked.  An ``int64`` ``rows`` array becomes ``IR`` as is,
        without a copy.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows/cols must be equal-length 1-D")
        new_col = np.empty(cols.size, dtype=bool)
        new_col[:1] = True
        np.not_equal(cols[1:], cols[:-1], out=new_col[1:])
        heads = np.flatnonzero(new_col)
        jc = cols[heads]
        if not np.all(jc[1:] > jc[:-1]):
            raise ValueError("pairs are not in column-major order")
        cp = np.append(heads, cols.size)
        return cls(nrows=nrows, ncols=ncols, jc=jc, cp=cp, ir=rows)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (rows, cols) pairs, column-major sorted."""
        counts = np.diff(self.cp)
        return self.ir.copy(), np.repeat(self.jc, counts)

    def extract_columns(
        self, col_ids: np.ndarray, col_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Gather all nonzeros in the requested columns.

        Parameters
        ----------
        col_ids:
            Sorted frontier column ids (block-local).
        col_values:
            Semiring payload attached to each column (the parent id).

        Returns
        -------
        (rows, values, lookups):
            One (row, payload) pair per selected nonzero, plus the number
            of binary-search probes performed (for cost accounting).
        """
        col_ids = np.asarray(col_ids, dtype=np.int64)
        col_values = np.asarray(col_values, dtype=np.int64)
        if col_ids.shape != col_values.shape:
            raise ValueError("col_ids/col_values must be equal length")
        if col_ids.size == 0 or self.nzc == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, int(col_ids.size)
        pos = np.searchsorted(self.jc, col_ids)
        pos_clipped = np.minimum(pos, self.nzc - 1)
        hit = self.jc[pos_clipped] == col_ids
        pos, values = pos_clipped[hit], col_values[hit]
        starts = self.cp[pos]
        counts = self.cp[pos + 1] - starts
        rows = self.ir[kernels.range_gather(starts, counts)]
        return rows, np.repeat(values, counts), int(col_ids.size)

    def split_rowwise(self, pieces: int) -> tuple[list["DCSC"], list[int]]:
        """Split into ``pieces`` row bands (the hybrid's per-thread blocks).

        Figure 2 / Section 4.1: "we split the node local matrix rowwise to
        t pieces ... each thread local n/(pr*t) x n/pc sparse matrix is
        stored in DCSC format."  Bands partition the row space evenly;
        the last band absorbs the remainder.  Returns the bands and the
        row offset of each within this block.  A row-band mask keeps the
        pairs column-major, so no band is re-sorted.
        """
        if pieces < 1:
            raise ValueError(f"pieces must be >= 1, got {pieces}")
        if pieces == 1:
            return [self], [0]
        rows, cols = self.to_coo()
        band = max(1, self.nrows // pieces)
        out, offsets = [], []
        for t in range(pieces):
            lo = min(t * band, self.nrows)
            hi = self.nrows if t == pieces - 1 else min((t + 1) * band, self.nrows)
            mask = (rows >= lo) & (rows < hi)
            out.append(
                DCSC.from_sorted_coo(hi - lo, self.ncols, rows[mask] - lo, cols[mask])
            )
            offsets.append(lo)
        return out, offsets

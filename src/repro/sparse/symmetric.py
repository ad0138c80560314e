"""Triangle-only storage for undirected graphs (Section 7, future work).

"If the graph is undirected, then one can save 50% space by storing only
the upper (or lower) triangle of the sparse adjacency matrix, effectively
doubling the size of the maximum problem that can be solved in-memory ...
The algorithmic modifications needed to save a comparable amount in
communication costs for BFS iterations is not well-studied."

:class:`SymmetricDCSC` realizes the storage half of that trade-off for a
*square, symmetric* block: it keeps only the lower triangle in DCSC form
(halving the index arrays) and answers the SpMSV column extraction in two
passes:

1. **column pass** — the stored triangle's columns, exactly as the full
   DCSC would (emits candidates with ``row >= col``);
2. **row pass** — the mirrored entries, found by scanning the stored
   nonzeros for rows that are frontier members (emits ``row < col``
   candidates).

The row pass touches every stored nonzero once per call — that is the
algorithmic price the paper anticipated; :class:`SymWork` reports it so
the cost model can weigh ~50% memory against ~O(nnz) extra streaming per
level (see ``repro-bench abl-symmetric``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.dcsc import DCSC
from repro.sparse.semiring import SELECT_MAX, Semiring


@dataclass(frozen=True)
class SymWork:
    """Operation counts of one symmetric extraction."""

    candidates: int  # (row, payload) pairs emitted (both passes)
    lookups: int  # binary-search probes (column pass)
    scanned: int  # stored nonzeros streamed by the row pass


class SymmetricDCSC:
    """Lower-triangle DCSC of a symmetric boolean matrix."""

    def __init__(self, triangle: DCSC):
        if triangle.nrows != triangle.ncols:
            raise ValueError(
                f"symmetric blocks must be square, got "
                f"{triangle.nrows}x{triangle.ncols}"
            )
        rows, cols = triangle.to_coo()
        if np.any(rows < cols):
            raise ValueError("triangle must contain only entries with row >= col")
        self.triangle = triangle
        # Cached COO view for the row pass (shares the triangle's memory
        # budget in spirit; materialized here for vectorized scanning).
        self._rows = rows
        self._cols = cols

    @property
    def n(self) -> int:
        return self.triangle.nrows

    @property
    def stored_nnz(self) -> int:
        return self.triangle.nnz

    @property
    def logical_nnz(self) -> int:
        """Nonzeros of the full symmetric matrix this block represents."""
        diagonal = int((self._rows == self._cols).sum())
        return 2 * self.stored_nnz - diagonal

    @property
    def memory_words(self) -> int:
        """Index storage of the triangle (IR + JC + CP)."""
        tri = self.triangle
        return int(tri.ir.size + tri.jc.size + tri.cp.size)

    @classmethod
    def from_coo(cls, n: int, rows: np.ndarray, cols: np.ndarray) -> "SymmetricDCSC":
        """Build from (possibly unsymmetrized) entries of a square matrix.

        Every entry (r, c) is folded into the lower triangle as
        ``(max(r,c), min(r,c))``; duplicates collapse.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        return cls(DCSC.from_coo(n, n, hi, lo))

    @classmethod
    def from_full(cls, full: DCSC) -> "SymmetricDCSC":
        """Fold a full symmetric DCSC into triangle storage."""
        rows, cols = full.to_coo()
        return cls.from_coo(full.nrows, rows, cols)

    def to_full(self) -> DCSC:
        """Expand back to the full symmetric DCSC (for tests)."""
        off = self._rows != self._cols
        rows = np.concatenate([self._rows, self._cols[off]])
        cols = np.concatenate([self._cols, self._rows[off]])
        return DCSC.from_coo(self.n, self.n, rows, cols)

    def extract_columns(
        self, col_ids: np.ndarray, col_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, SymWork]:
        """All nonzeros of the *full* matrix in the requested columns.

        Semantically identical to ``to_full().extract_columns(...)`` but
        served from the triangle: a column pass plus a row-scan pass.
        """
        col_ids = np.asarray(col_ids, dtype=np.int64)
        col_values = np.asarray(col_values, dtype=np.int64)
        if col_ids.shape != col_values.shape:
            raise ValueError("col_ids/col_values must be equal length")

        # Pass 1: stored columns (candidates with row >= col).
        r1, v1, lookups = self.triangle.extract_columns(col_ids, col_values)

        # Pass 2: mirrored entries — stored rows that are frontier
        # members contribute their *column* as the discovered vertex.
        # Strictly-lower entries only, to avoid double-emitting diagonals.
        if col_ids.size and self._rows.size:
            strict = self._rows != self._cols
            rows = self._rows[strict]
            cols = self._cols[strict]
            pos = np.searchsorted(col_ids, rows)
            pos_clipped = np.minimum(pos, col_ids.size - 1)
            hit = col_ids[pos_clipped] == rows
            r2 = cols[hit]
            v2 = col_values[pos_clipped[hit]]
        else:
            r2 = np.empty(0, dtype=np.int64)
            v2 = np.empty(0, dtype=np.int64)

        rows_out = np.concatenate([r1, r2])
        vals_out = np.concatenate([v1, v2])
        work = SymWork(
            candidates=int(rows_out.size),
            lookups=lookups,
            scanned=self.stored_nnz,
        )
        return rows_out, vals_out, work


def spmsv_symmetric(
    block: SymmetricDCSC,
    frontier_idx: np.ndarray,
    frontier_val: np.ndarray,
    semiring: Semiring = SELECT_MAX,
) -> tuple[np.ndarray, np.ndarray, SymWork]:
    """SpMSV over a triangle-stored symmetric block (heap-style merge)."""
    rows, vals, work = block.extract_columns(frontier_idx, frontier_val)
    out_idx, out_val = semiring.reduce_sorted_runs(rows, vals)
    return out_idx, out_val, work

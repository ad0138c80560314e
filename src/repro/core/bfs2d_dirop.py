"""Direction-optimizing BFS on the 2D matrix partition.

The follow-up work of Buluc, Beamer, Madduri, Asanovic and Patterson
("Distributed-Memory Breadth-First Search Revisited", arXiv:1705.04590)
combines the two refinements this repo previously modeled separately:
Algorithm 3's 2D SpMSV decomposition and Beamer's direction-optimizing
search.  On the hub-dominated middle levels the top-down SpMSV — whose
fold ships one (vertex, parent) pair per candidate edge — is replaced by
a *bottom-up* sweep inside the same processor grid:

* **expand** — the transposed frontier is gathered along the processor
  column as a dense bitmap (``~n_block/64`` words on the wire via
  :meth:`~repro.comm.CommChannel.gather_mask`), instead of a sparse
  vertex list;
* **completed exchange** — each rank contributes its vector piece's
  visited vertices to a second bitmap gather along the processor *row*,
  assembling the block-row "completed" array every rank of the row scans
  against (the paper's per-level bottom-up row communication);
* **fold** — each rank reverse-scans the unvisited rows of its local
  block against the frontier bitmap, early-exiting at the first hit.
  The stored matrix is ``A^T`` (block row ``v`` holds the in-neighbours
  of ``v``), and the reverse scan of a sorted list lands on the *maximum*
  frontier in-neighbour inside the rank's column block; the usual pair
  fold along the row plus the receiver's (select, max) dedup then picks
  the global maximum — exactly the parent every other algorithm in the
  repo produces, so the variant stays bit-identical to the serial
  oracle.  (Because the matrix is pre-transposed, the sweep is correct
  on directed inputs too, unlike the 1D variant which must pin
  top-down.)

Direction choice is collective and deterministic, and is DirOpt1D's:
:class:`~repro.core.bfs_dirop.DirectionSwitch` carries the global
frontier size, its incident-edge count and the unexplored-edge count on
the level-closing ``Allreduce`` and applies the shared ``alpha``/``beta``
predicates in lockstep.

Only the level *interior* lives here: :class:`DirOpt2D` is an
:class:`~repro.core.engine.AlgorithmStep` plugin subclassing
:class:`~repro.core.bfs2d.SpMSV2D` (top-down levels run the parent's
transpose/expand/SpMSV/fold phases unchanged); the level loop,
per-level profile and result marshaling are the
:class:`~repro.core.engine.TraversalEngine`'s.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.bfs2d import SpMSV2D
from repro.core.bfs_dirop import DirectionSwitch
from repro.core.engine import LevelOutcome, TraversalEngine
from repro.core.frontier import bitmap_words


class DirOpt2D(DirectionSwitch, SpMSV2D):
    """The direction-optimizing 2D level interior, as an engine plugin.

    Top-down levels are the parent's Algorithm 3 phases verbatim;
    bottom-up levels run the bitmap expand + completed exchange +
    reverse-scan fold described in the module docstring.  No symmetry
    gate on the switch: the stored matrix is ``A^T``, so the bottom-up
    row scan sees in-neighbours and is exact on directed inputs too.
    """

    def __init__(
        self,
        blocks,
        decomp,
        source: int,
        kernel: str = "auto",
        modeled_cores: int | None = None,
        codec="raw",
        sieve=False,
        alpha: float | None = None,
        beta: float | None = None,
        degrees: np.ndarray | None = None,
    ):
        super().__init__(
            blocks,
            decomp,
            source,
            kernel=kernel,
            modeled_cores=modeled_cores,
            codec=codec,
            sieve=sieve,
            alpha=alpha,
            beta=beta,
        )
        #: Global per-vertex degree array (shared, read-only): the
        #: switching statistics need edge counts for the rank's vector
        #: piece, which the rank's matrix block alone cannot provide.
        self.global_degrees = degrees

    def setup(self, engine: TraversalEngine) -> None:
        super().setup(engine)
        if self.global_degrees is None:
            raise ValueError("DirOpt2D needs the global degree array")

        # Row-major view of the local block: the bottom-up sweep walks
        # whole block *rows* (in-adjacencies), which the column-major
        # DCSC pieces cannot serve.  Built once per rank, like the DCSC
        # itself — graph (re)structuring is unpriced setup throughout.
        rows_parts, cols_parts = [], []
        for t, piece in enumerate(self.local.pieces):
            prows, pcols = piece.to_coo()
            rows_parts.append(prows + self.local.band_offsets[t])
            cols_parts.append(pcols)
        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        nrows_block = self.row_hi - self.row_lo
        self.bu_indptr = np.zeros(nrows_block + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nrows_block), out=self.bu_indptr[1:])
        #: Ascending global in-neighbour ids per block row.
        self.bu_cols = cols + self.col_lo

        # Switching statistics run over the rank's vector piece.
        self.init_direction(
            np.asarray(self.global_degrees)[self.plo : self.phi], self.decomp.n
        )

    def _bottomup_step(self, level: int) -> LevelOutcome:
        charger, obs = self.charger, self.obs

        # 1. TransposeVector, exactly as top-down: frontier pieces line
        #    up with the processor columns that will gather them.
        transposed = self._transpose_frontier(self.frontier, level)

        # 2. Expand: the column's frontier as a dense bitmap over my
        #    column block (overlapping identical ranges OR-union to the
        #    block's frontier mask).
        with obs.span("bu-expand"):
            payload = float(bitmap_words(self.col_hi - self.col_lo))
            charger.stream(payload + float(transposed.size))
            fmask, expand_info = self.col_channel.gather_mask(
                transposed, level=level
            )
            charger.stream(float(fmask.size) / 64.0)

        # 3. Completed exchange: assemble the block row's visited mask
        #    from the vector pieces along my processor row — the
        #    bottom-up sweep must skip rows any piece owner has already
        #    finished.
        with obs.span("bu-done"):
            visited = np.flatnonzero(self.parents != -1) + self.plo
            done_payload = float(bitmap_words(self.nloc))
            charger.stream(done_payload + float(visited.size))
            row_done, done_info = self.row_channel.gather_mask(
                visited, level=level
            )
            charger.stream(float(row_done.size) / 64.0)

        # 4. Reverse early-exit scan of the unvisited block rows against
        #    the frontier mask.  The last frontier hit of an ascending
        #    in-adjacency list is the maximum frontier in-neighbour in
        #    my column block — the local (select, max) winner.
        with obs.span("bu-scan"):
            charger.stream(float(row_done.size))
            blockdeg = np.diff(self.bu_indptr)
            active = np.flatnonzero(~row_done & (blockdeg > 0))
            counts = blockdeg[active]
            charger.random(
                float(active.size), ws_words=2 * max(row_done.size, 1)
            )
            if active.size:
                ends = np.cumsum(counts)
                starts = ends - counts
                targets = self.bu_cols[
                    kernels.range_gather(self.bu_indptr[active], counts)
                ]
                last_hit = kernels.last_hit_scan(
                    fmask[targets - self.col_lo], starts, counts
                )
                has_parent = last_hit >= 0
                trows = (active + self.row_lo)[has_parent]
                tvals = targets[last_hit[has_parent]]
                # Reverse scan visits positions [last_hit, end) before
                # exiting — the whole list when no frontier neighbour
                # exists.
                scanned = float(
                    np.where(has_parent, ends - last_hit, counts).sum()
                )
            else:
                trows = np.empty(0, dtype=np.int64)
                tvals = np.empty(0, dtype=np.int64)
                scanned = 0.0
            charger.random(scanned, ws_words=max(1.0, float(fmask.size) / 64.0))
            charger.stream(2.0 * scanned, edges_scanned=scanned)
            charger.count(candidates=scanned)

        # 5-6. Fold and update: the surviving local winners travel to
        #    their vector-piece owners along the row and are masked with
        #    pi-bar, exactly as top-down — only far fewer of them (one
        #    candidate per newly-found row, not one per edge).
        xinfo = self._fold_update(trows, tvals, level)

        return LevelOutcome(
            candidates=int(scanned),
            words_sent=int(payload + done_payload + 2 * xinfo.pairs),
            wire_words=int(
                expand_info.wire_words
                + done_info.wire_words
                + xinfo.wire_words
            ),
            sieve_dropped=xinfo.dropped,
        )

"""Distributed BFS with 2D matrix partitioning (Algorithm 3, Section 3.2).

Each level is a sparse matrix - sparse vector product over the
(select, max) semiring, executed in four phases on a square processor
grid:

1. **TransposeVector** — pairwise exchange so the frontier pieces line up
   with processor *columns*;
2. **expand** — ``Allgatherv`` along the processor column: every rank of
   column ``j`` obtains the full frontier restricted to vertex block ``j``
   (the columns of its matrix block);
3. **local SpMSV** — DCSC column extraction plus SPA- or heap-based
   merging, row-split into ``t`` thread pieces in the hybrid variant;
4. **fold** — ``Alltoallv`` along the processor row scatters candidate
   (vertex, parent) pairs to their vector-piece owners, who apply the
   ``t . pi-bar`` mask and update the parents.

Vertex ownership follows the "2D vector distribution" (every rank owns an
equal slice; Section 3.2) by default; ``Decomp2D(diagonal_vectors=True)``
reproduces the load-imbalanced diagonal-only distribution of Figure 4.

Only the level *interior* lives here: :class:`SpMSV2D` is an
:class:`~repro.core.engine.AlgorithmStep` plugin, and the level loop,
per-level profile and result marshaling are the
:class:`~repro.core.engine.TraversalEngine`'s.  Launch it as
``run_spmd(nranks, traversal_body, SpMSV2D, (blocks, decomp, source),
kwargs)`` with ``blocks`` from :func:`build_2d_blocks` on the same
``decomp`` and ``threads``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.comm import CommChannel, ExchangeInfo, VertexRange, make_sieve
from repro.core.engine import LevelOutcome, TraversalEngine
from repro.core.frontier import dedup_candidates
from repro.core.partition import Decomp2D
from repro.graphs.csr import CSR, build_csr
from repro.mpsim.grid import ProcessorGrid
from repro.sparse.dcsc import DCSC
from repro.sparse.spa import SPA
from repro.sparse.spmsv import spmsv


@dataclass(frozen=True)
class LocalBlock:
    """One rank's matrix block, row-split into thread pieces (Figure 2)."""

    pieces: list[DCSC]
    band_offsets: list[int]  # row offset of each piece within the block

    @property
    def nnz(self) -> int:
        return sum(piece.nnz for piece in self.pieces)


def build_2d_blocks(csr: CSR, decomp: Decomp2D, threads: int = 1) -> list[LocalBlock]:
    """Distribute the adjacency matrix over the grid, one block per rank.

    An edge ``u -> v`` becomes matrix entry ``(row=v, col=u)`` — i.e. the
    stored matrix is the transpose ``A^T`` the multiplication needs ("we
    will omit the transpose and assume that the input is pre-transposed",
    Section 3.2).  Returns blocks in rank order (``rank = i * side + j``).
    """
    if csr.nnz and (csr.indices.min() < 0 or csr.indices.max() >= csr.n):
        raise ValueError(f"adjacency ids out of range [0, {csr.n})")
    if not csr.is_canonical():
        # Unsorted adjacencies or parallel edges: restore the invariant
        # the sort-free path below relies on.
        csr = build_csr(
            csr.n,
            np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees()),
            csr.indices,
            symmetrize=False,
            drop_self_loops=False,
        )
    row_part, col_part = decomp.rank_tables()
    # A canonical CSR holds each (column, row block) pair of A^T as one
    # contiguous run: runs start at every adjacency and wherever the row
    # block changes inside one.  Bucketing the runs by rank (a stable
    # radix sort of narrow labels) keeps each rank's runs in the CSR's
    # column order, so they are its DCSC columns as they stand.
    labels = row_part[csr.indices]
    degrees = csr.degrees()
    new_col = np.zeros(csr.nnz, dtype=bool)
    new_col[csr.indptr[:-1][degrees > 0]] = True
    heads = new_col.copy()
    heads[1:] |= labels[1:] != labels[:-1]
    starts = np.flatnonzero(heads)
    lengths = np.diff(starts, append=csr.nnz)
    cols = np.flatnonzero(degrees)[np.cumsum(new_col[starts]) - 1]
    ranks = labels[starts] + col_part[cols]
    order = np.argsort(ranks, kind="stable")
    ranks, starts, lengths, cols = ranks[order], starts[order], lengths[order], cols[order]
    if np.any((ranks[1:] == ranks[:-1]) & (cols[1:] <= cols[:-1])):
        raise ValueError("pairs are not in column-major order")
    rows = csr.indices[kernels.range_gather(starts, lengths)].astype(np.int64, copy=False)
    firsts = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=firsts[1:])
    bounds = np.searchsorted(ranks, np.arange(decomp.nprocs + 1))
    blocks: list[LocalBlock] = []
    for rank in range(decomp.nprocs):
        i, j = divmod(rank, decomp.pc)
        rlo, rhi = decomp.row_block(i)
        clo, chi = decomp.col_block(j)
        lo, hi = bounds[rank], bounds[rank + 1]
        ir = rows[firsts[lo] : firsts[hi]]
        ir -= rlo  # each block's IR is its own slice of the one gather
        block = DCSC(
            rhi - rlo, chi - clo, cols[lo:hi] - clo, firsts[lo : hi + 1] - firsts[lo], ir
        )
        pieces, band_offsets = block.split_rowwise(threads)
        blocks.append(LocalBlock(pieces=pieces, band_offsets=band_offsets))
    return blocks


class SpMSV2D:
    """Algorithm 3's level interior, as an engine step plugin.

    Owns the processor grid, the row/column wire channels (sharing one
    sieve — a vertex observed discovered through the expand never needs
    folding again), the rank's vector piece, and the per-thread SPA
    accumulators; every level runs the transpose/expand/SpMSV/fold/update
    phases and terminates on an ``Allreduce`` of the new-frontier size.
    """

    result_keys = ("plo", "phi")
    # Row-split DCSC pieces are embarrassingly thread-parallel (Figure 2).
    charger_kwargs: dict = {"thread_efficiency": 0.75}

    def __init__(
        self,
        blocks: list[LocalBlock],
        decomp: Decomp2D,
        source: int,
        kernel: str = "auto",
        modeled_cores: int | None = None,
        codec="raw",
        sieve=False,
    ):
        self.blocks = blocks
        self.decomp = decomp
        self.source = source
        self.kernel = kernel
        self.modeled_cores = modeled_cores
        self.codec = codec
        #: The ``sieve`` option until :meth:`setup`, which replaces it
        #: with the live :class:`~repro.comm.Sieve` (or ``None``).
        self.sieve = sieve

    def setup(self, engine: TraversalEngine) -> None:
        decomp = self.decomp
        comm = engine.comm
        self.comm = comm
        self.charger = engine.charger
        self.obs = engine.obs
        self.threads = engine.threads
        with self.obs.span("split"):
            grid = ProcessorGrid(comm, decomp.pr, decomp.pc)
        self.grid = grid
        self.local = self.blocks[comm.rank]
        if self.modeled_cores is None:
            self.modeled_cores = comm.size * engine.threads

        self.row_lo, self.row_hi = decomp.row_block(grid.row)
        self.col_lo, self.col_hi = decomp.col_block(grid.col)
        self.plo, self.phi = decomp.vec_piece(grid.row, grid.col)
        self.nloc = self.phi - self.plo

        # Wire layer: the fold's buffers index into the destination's
        # vector piece along my processor row; every expand contribution
        # lies inside my grid column's block (contributions are disjoint,
        # so per-piece decode + concat is exact).  Both channels share one
        # sieve: a vertex observed discovered through the expand never
        # needs folding again.
        self.sieve = make_sieve(self.sieve, decomp.n)
        row_ranges = [
            VertexRange(vlo, vhi - vlo)
            for vlo, vhi in (
                decomp.vec_piece(grid.row, j) for j in range(decomp.pc)
            )
        ]
        self.row_channel = CommChannel(
            grid.row_comm, row_ranges, codec=self.codec, sieve=self.sieve,
            charger=engine.charger, tracer=engine.obs, metrics=engine.metrics,
        )
        col_ranges = [
            VertexRange(self.col_lo, self.col_hi - self.col_lo)
        ] * grid.col_comm.size
        self.col_channel = CommChannel(
            grid.col_comm, col_ranges, codec=self.codec, sieve=self.sieve,
            charger=engine.charger, tracer=engine.obs, metrics=engine.metrics,
        )

        self.levels = np.full(self.nloc, -1, dtype=np.int64)
        self.parents = np.full(self.nloc, -1, dtype=np.int64)
        self.spas = (
            [SPA(piece.nrows) for piece in self.local.pieces]
            if self.kernel != "heap"
            else None
        )

        if self.plo <= self.source < self.phi:
            self.levels[self.source - self.plo] = 0
            self.parents[self.source - self.plo] = self.source
            self.frontier = np.array([self.source], dtype=np.int64)
        else:
            self.frontier = np.empty(0, dtype=np.int64)

    def vertex_range(self) -> tuple[int, int]:
        return (self.plo, self.phi)

    def initial_sync(self) -> int:
        with self.obs.span("allreduce"):
            return self.comm.allreduce(int(self.frontier.size))

    def begin_level(self, level: int) -> dict:
        return {"level": level}

    def _transpose_frontier(self, frontier: np.ndarray, level: int) -> np.ndarray:
        """TransposeVector: line the frontier up with processor columns.

        On a square grid this is the paper's pairwise P(i,j)<->P(j,i)
        swap; on a rectangular grid it is the general all-to-all
        (Section 3.2): each element is routed along my processor row to
        the grid column owning its column block, and the expand's gather
        unions the rows' contributions.
        """
        decomp, grid = self.decomp, self.grid
        with self.obs.span("transpose", level=level):
            if decomp.is_square:
                return grid.transpose_vector(frontier)
            dest_cols = decomp.col_block_of(frontier)
            grouped, _counts = kernels.bucket_by_owner(
                dest_cols, decomp.pc, frontier
            )
            transposed, _cnt = grid.row_comm.alltoallv_concat(
                [piece for (piece,) in grouped]
            )
            return transposed

    def step(self, level: int) -> LevelOutcome:
        charger, obs = self.charger, self.obs
        frontier = self.frontier
        # 1. TransposeVector (see _transpose_frontier).
        transposed = self._transpose_frontier(frontier, level)

        # 2. Expand: column j assembles the full frontier of column
        #    block j — the column support of every matrix block in
        #    this grid column.  (On square grids the pieces happen to
        #    concatenate in ascending vertex order; nothing downstream
        #    relies on it.)
        with obs.span("expand"):
            f_col, expand_info = self.col_channel.allgatherv_vertices(
                transposed, level=level
            )
            charger.stream(float(f_col.size))

        # 3. Local SpMSV per thread piece; payload = the frontier
        #    vertex id itself, which becomes the parent of the
        #    discovered row.
        with obs.span("spmsv"):
            cand_rows = []
            cand_parents = []
            for t, piece in enumerate(self.local.pieces):
                idx, val, work = spmsv(
                    piece,
                    f_col - self.col_lo,
                    f_col,
                    kernel=self.kernel,
                    modeled_cores=self.modeled_cores,
                    spa=self.spas[t] if self.spas is not None else None,
                    tracer=obs,
                )
                charger.random(
                    float(work.lookups), ws_words=2.0 * max(piece.nzc, 1)
                )
                if work.kernel == "spa":
                    # Flag probe + value scatter + index append per
                    # candidate, plus the per-level dense-accumulator
                    # touch.
                    charger.random(
                        2.5 * work.candidates,
                        ws_words=float(max(piece.nrows, 1)),
                        candidates=float(work.candidates),
                    )
                    charger.stream(1.2 * piece.nrows)
                else:
                    charger.intops(
                        20.0 * work.heap_comparisons,
                        candidates=float(work.candidates),
                    )
                    charger.stream(float(work.candidates))
                cand_rows.append(idx + self.row_lo + self.local.band_offsets[t])
                cand_parents.append(val)
            trows = (
                np.concatenate(cand_rows) if cand_rows else np.empty(0, np.int64)
            )
            tvals = (
                np.concatenate(cand_parents)
                if cand_parents
                else np.empty(0, np.int64)
            )
            charger.count(edges_scanned=float(f_col.size))

        # 4-5. Fold and update.
        xinfo = self._fold_update(trows, tvals, level)

        return LevelOutcome(
            candidates=int(trows.size),
            words_sent=int(2 * xinfo.pairs + f_col.size),
            wire_words=int(xinfo.wire_words + expand_info.wire_words),
            sieve_dropped=xinfo.dropped,
        )

    def _fold_update(
        self, trows: np.ndarray, tvals: np.ndarray, level: int
    ) -> ExchangeInfo:
        """Fold the (row, parent) candidates to their owners and update.

        The tail both sweep directions share: candidates travel to their
        vector-piece owners along the processor row, owners mask them
        with pi-bar and record parents, levels and the next frontier
        (Algorithm 3 lines 8-11).  Returns the fold's accounting.
        """
        charger, obs = self.charger, self.obs
        with obs.span("fold-pack"):
            send, xinfo = self.row_channel.pack_pairs(trows, tvals)
            charger.intops(float(xinfo.pairs))
            charger.count(unique_sends=float(xinfo.pairs))
        with obs.span("fold-exchange"):
            rv, rp = self.row_channel.exchange_pairs(send, xinfo, level=level)
        with obs.span("update"):
            charger.random(float(rv.size), ws_words=float(max(self.nloc, 1)))
            unvisited = self.parents[rv - self.plo] == -1
            rv, rp = dedup_candidates(rv[unvisited], rp[unvisited])
            self.parents[rv - self.plo] = rp
            self.levels[rv - self.plo] = level
            self.frontier = rv
            if self.threads > 1:
                charger.thread_merge(float(self.frontier.size))
        return xinfo

    def termination_sync(self) -> int:
        return self.comm.allreduce(int(self.frontier.size))


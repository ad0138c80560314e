"""Per-layer probes of the traced run.

Every layer is measured from outside, by timing calls into its public
functions.  The kernel, sparse and comm probes do not invent inputs:
they *replay* two levels of the workload's first search — the widest and
a median-width one, by gathered adjacency — reconstructing from the
serial oracle's levels what every rank would gather, reduce, bucket per
destination and ship at that level, exactly as the workload's step
plugin does.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import kernels
from repro.comm import VertexRange, get_codec
from repro.core.bfs2d import build_2d_blocks
from repro.core.engine import partition_ranges
from repro.core.partition import Decomp2D, Partition1D
from repro.mpsim import run_spmd
from repro.runtime import BACKENDS
from repro.sparse import DCSC, spmsv_heap, spmsv_spa
from spans import duration

#: Words each rank sends per round of the large-buffer probe (1 MiB).
LARGE_WORDS = (1 << 20) // 8
LARGE_ROUNDS = 4


def timed(rec, name: str, fn, reps: int):
    """Median host seconds of ``fn()`` over ``reps`` calls, one span each.

    Returns ``(seconds, last result)``.
    """
    walls = []
    for rep in range(reps):
        with rec.span(name, rep=rep) as span:
            out = fn()
        walls.append(duration(span))
    return statistics.median(walls), out


# -- replaying a level --------------------------------------------------------


@dataclass
class Level:
    """What every rank handles at one replayed level."""

    #: Gathered adjacency over all ranks (the level's width).
    items: int
    #: Per rank, before the send-side reduction: ``(targets, sources)``,
    #: plus the lane words for msbfs.
    candidates: list[tuple] = field(default_factory=list)
    #: Per rank, after it: ``(targets, parents, owners)``.
    sends: list[tuple] = field(default_factory=list)
    #: Per rank: the vertex range each of its destination buckets indexes.
    ranges: list[list[VertexRange]] = field(default_factory=list)
    #: 2d only, per rank: ``(block, frontier_idx, frontier_val)``.
    spmsv: list[tuple] = field(default_factory=list)

    @cached_property
    def buckets(self) -> list[list[tuple]]:
        """Per rank, per destination: the ``(targets, parents)`` to ship."""
        return [
            kernels.bucket_by_owner(owners, len(ranges), targets, parents)[0]
            for (targets, parents, owners), ranges in zip(self.sends, self.ranges)
        ]


def pick_levels(csr, levels_int: np.ndarray) -> tuple[int, int]:
    """Hop indices of the widest and of a median-width level, by gathered
    adjacency.

    ``levels_int`` is the serial oracle's output: ``(n,)`` hop counts, or
    ``(n, lanes)`` for a multi-source batch, where a vertex is on the
    frontier of every level at which some lane has just reached it.
    Level ``i + 1`` expands the vertices at hop ``i``.
    """
    degrees = csr.degrees()
    widths = []
    for hop in range(int(levels_int.max()) + 1):
        mask = levels_int == hop
        widths.append(int(degrees[mask if mask.ndim == 1 else mask.any(axis=1)].sum()))
    order = sorted(range(len(widths)), key=widths.__getitem__)
    return order[-1], order[(len(order) - 1) // 2]


def replay_1d(spec, csr, levels_int: np.ndarray, index: int) -> Level:
    """Level ``index`` as TopDown1D / MSBFS1D ranks would see it."""
    part = Partition1D(csr.n, spec.nprocs)
    ranges = partition_ranges(part, spec.nprocs)
    hit = levels_int == index
    level = Level(items=0)
    for rank in range(spec.nprocs):
        lo, hi = part.range_of(rank)
        if hit.ndim == 1:
            local = np.flatnonzero(hit[lo:hi]) + lo
            targets, sources = csr.gather(local)
            level.candidates.append((targets, sources))
            targets, parents = kernels.dedup_max(targets, sources)
        else:
            # Bit b of a frontier vertex's word: lane b reached it just now.
            words = np.bitwise_or.reduce(
                hit[lo:hi].astype(np.uint64) << np.arange(spec.batch, dtype=np.uint64),
                axis=1,
            )
            local = np.flatnonzero(words) + lo
            targets, sources = csr.gather(local)
            lane_words = words[sources - lo]
            level.candidates.append((targets, sources, lane_words))
            targets, parents, _words = kernels.lane_prune(
                targets, sources, lane_words, spec.batch
            )
        level.items += int(level.candidates[-1][0].size)
        level.sends.append((targets, parents, part.owner_of(targets)))
        level.ranges.append(ranges)
    return level


def replay_2d(csr, levels_int: np.ndarray, index: int, decomp, blocks) -> Level:
    """Level ``index`` as SpMSV2D ranks would see it (expand done)."""
    frontier = np.flatnonzero(levels_int == index)
    level = Level(items=0)
    for rank, local in enumerate(blocks):
        i, j = divmod(rank, decomp.pc)
        row_lo, _row_hi = decomp.row_block(i)
        col_lo, col_hi = decomp.col_block(j)
        f_col = frontier[(frontier >= col_lo) & (frontier < col_hi)]
        block = local.pieces[0]
        rows, payload, _lookups = block.extract_columns(f_col - col_lo, f_col)
        level.candidates.append((rows + row_lo, payload))
        level.items += int(rows.size)
        level.spmsv.append((block, f_col - col_lo, f_col))
        idx, val, _work = spmsv_spa(block, f_col - col_lo, f_col)
        trows = idx + row_lo
        level.sends.append((trows, val, decomp.vec_owner_col(i, trows)))
        level.ranges.append(
            [
                VertexRange(lo, hi - lo)
                for lo, hi in (decomp.vec_piece(i, jj) for jj in range(decomp.pc))
            ]
        )
    return level


# -- partition, kernels, sparse, comm -----------------------------------------


def probe_partition(rec, spec, csr, reps: int) -> tuple[dict, object, list]:
    """What ``run()`` does before a 2d search: decompose and build blocks."""
    side = math.isqrt(spec.nprocs)

    def build():
        decomp = Decomp2D(csr.n, side, side)
        return decomp, build_2d_blocks(csr, decomp)

    seconds, (decomp, blocks) = timed(rec, "partition.build_2d", build, reps)
    nnz = [block.nnz for block in blocks]
    metrics = {
        "partition.build_2d_s": seconds,
        "partition.block_nnz_imbalance": max(nnz) / (sum(nnz) / len(nnz)),
    }
    return metrics, decomp, blocks


def probe_kernels(rec, spec, csr, level: Level, reps: int) -> dict:
    """The send-side kernels over every rank's share of the wide level."""
    msbfs = spec.family == "msbfs"
    buckets = level.buckets  # bucketed here, outside the timed calls

    def bucket():
        for (targets, parents, owners), ranges in zip(level.sends, level.ranges):
            kernels.bucket_by_owner(owners, len(ranges), targets, parents)

    def dedup():
        for targets, sources, *_ in level.candidates:
            kernels.dedup_max(targets, sources)

    def pack():
        for per_rank in buckets:
            for targets, parents in per_rank:
                kernels.unpack_pairs(kernels.pack_pairs(targets, parents))

    def scatter():
        if msbfs:
            dense = np.zeros(csr.n, dtype=np.uint64)
            for targets, _sources, words in level.candidates:
                kernels.scatter_reduce(dense, targets, words, "or")
        else:
            dense = np.full(csr.n, -1, dtype=np.int64)
            for targets, sources in level.candidates:
                kernels.scatter_reduce(dense, targets, sources, "max")

    def prune():
        for targets, sources, words in level.candidates:
            kernels.lane_prune(targets, sources, words, spec.batch)

    metrics = {"kernels.replay_items": level.items}
    for name, fn in (
        ("bucket_by_owner", bucket),
        ("dedup_max", dedup),
        ("pack_pairs", pack),
        ("scatter_reduce", scatter),
    ):
        metrics[f"kernels.{name}_s"], _ = timed(rec, f"kernels.{name}", fn, reps)
    if msbfs:
        metrics["kernels.lane_prune_s"], _ = timed(rec, "kernels.lane_prune", prune, reps)
    return metrics


def probe_sparse(rec, level: Level, blocks, reps: int) -> dict:
    """DCSC construction of the largest block; both SpMSV kernels, all ranks."""
    largest = max((b.pieces[0] for b in blocks), key=lambda piece: piece.nnz)
    rows, cols = largest.to_coo()
    candidates = 0

    def spa():
        nonlocal candidates
        candidates = sum(
            spmsv_spa(block, idx, val)[2].candidates for block, idx, val in level.spmsv
        )

    def heap():
        for block, idx, val in level.spmsv:
            spmsv_heap(block, idx, val)

    metrics = {}
    metrics["sparse.dcsc_from_coo_s"], _ = timed(
        rec,
        "sparse.dcsc_from_coo",
        lambda: DCSC.from_coo(largest.nrows, largest.ncols, rows, cols),
        reps,
    )
    metrics["sparse.spmsv_spa_s"], _ = timed(rec, "sparse.spmsv_spa", spa, reps)
    metrics["sparse.spmsv_heap_s"], _ = timed(rec, "sparse.spmsv_heap", heap, reps)
    metrics["sparse.spmsv_candidates"] = candidates
    return metrics


def probe_codec(rec, spec, level: Level, width: str, reps: int) -> dict:
    """The workload's codec over all per-destination buffers of a level."""
    codec = get_codec(spec.codec)
    buckets = level.buckets

    def encode():
        return [
            [
                codec.encode_pairs(targets, parents, ctx)
                for (targets, parents), ctx in zip(per_rank, ranges)
            ]
            for per_rank, ranges in zip(buckets, level.ranges)
        ]

    enc_s, wire = timed(rec, f"comm.encode_{width}", encode, reps)

    def decode():
        for per_rank, ranges in zip(wire, level.ranges):
            for buf, ctx in zip(per_rank, ranges):
                codec.decode_pairs(buf, ctx)

    dec_s, _ = timed(rec, f"comm.decode_{width}", decode, reps)
    return {f"comm.encode_{width}_s": enc_s, f"comm.decode_{width}_s": dec_s}


# -- runtime and mpsim ----------------------------------------------------------


def _noop(comm):
    return None


def _rounds(comm, rounds: int, words: int, allreduce: bool) -> float:
    """Seconds this rank spent in ``rounds`` alltoallv of ``words`` words
    per destination, each preceded by an allreduce if asked."""
    send = [np.zeros(words, dtype=np.int64)] * comm.size
    comm.barrier()  # ranks start together, so spawn skew is not timed
    t0 = time.perf_counter()
    for _ in range(rounds):
        if allreduce:
            comm.allreduce(1)
        comm.alltoallv(send)
    return time.perf_counter() - t0


def probe_runtime(rec, nprocs: int, reps: int, rounds: int) -> tuple[dict, list[str]]:
    """Spawn and rendezvous cost of each backend at the workload's rank count.

    The rank bodies are perfbench's own and time their rounds themselves
    (median over ranks), so a backend's spawn cost is not in its
    per-round cost.  Returns the metrics and the names of the rows that
    are informational only: ``processes`` with more ranks than the CPUs
    this process may use measures the scheduler, not the backend.
    """
    metrics = {}
    for backend in BACKENDS:
        metrics[f"runtime.spawn_s.{backend}"], _ = timed(
            rec, f"runtime.spawn.{backend}",
            lambda: run_spmd(nprocs, _noop, runtime=backend), reps,
        )
        with rec.span(f"runtime.collectives.{backend}", rounds=rounds):
            spmd = run_spmd(nprocs, _rounds, rounds, 8, True, runtime=backend)
        metrics[f"runtime.collective_us.{backend}"] = (
            statistics.median(spmd.returns) / rounds * 1e6
        )
    with rec.span("mpsim.alltoallv_large", rounds=LARGE_ROUNDS):
        spmd = run_spmd(nprocs, _rounds, LARGE_ROUNDS, LARGE_WORDS // nprocs, False)
    metrics["mpsim.alltoallv_large_s"] = statistics.median(spmd.returns) / LARGE_ROUNDS
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    oversubscribed = (
        [n for n in metrics if n.endswith(".processes")] if nprocs > (cpus or 1) else []
    )
    return metrics, oversubscribed

"""Frontier manipulation primitives shared by the BFS variants.

These are the kernel-backed counterparts of the per-edge loops in
Algorithms 1-3: candidate deduplication with deterministic (select, max)
parent resolution, interleaved (vertex, parent) wire format for the
exchange buffers, and destination bucketing for the all-to-all.

The direction-optimizing 1D variant adds frontier-density bookkeeping:
a packed 64-bit frontier bitmap (the ``Allgatherv`` payload of the
bottom-up expand) and the Beamer-style density predicates that decide
when the traversal flips between top-down and bottom-up sweeps.

This module owns input validation and the paper-facing semantics; the
per-element work is :mod:`repro.kernels`, looked up at call time
(``kernels.dedup_max(...)``) so the tests can run every caller on the
pure-python reference.  What needs no validation — pair interleaving,
owner bucketing — callers take from ``kernels`` directly.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

#: Bits per bitmap word; the paper counts 64-bit words, so one frontier
#: bitmap costs ``ceil(n_local / 64)`` words on the wire.
BITMAP_WORD_BITS = 64


def dedup_candidates(
    targets: np.ndarray, parents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate targets, keeping the maximum parent.

    The (select, max) rule makes every algorithm in the repo produce the
    same parent array for the same graph, which the integration tests
    exploit.  Output targets are sorted ascending.
    """
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    if targets.size == 0:
        return targets, parents
    return kernels.dedup_max(targets, parents)


def build_send_buffers(
    targets: np.ndarray,
    parents: np.ndarray,
    owners: np.ndarray,
    nbuckets: int,
) -> list[np.ndarray]:
    """Bucket (target, parent) candidates by owner into wire buffers.

    The shared send-side path of every 1D-family algorithm: stable-sort by
    destination, split at bucket boundaries, interleave each bucket as
    ``[v0, p0, v1, p1, ...]``.  Returns one buffer per destination rank.
    """
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    grouped, _counts = kernels.bucket_by_owner(
        np.asarray(owners, dtype=np.int64), nbuckets, targets, parents
    )
    return [kernels.pack_pairs(t, p) for t, p in grouped]


def bitmap_words(nbits: int) -> int:
    """Wire words of a packed bitmap over ``nbits`` vertices."""
    if nbits < 0:
        raise ValueError(f"nbits must be >= 0, got {nbits}")
    return (nbits + BITMAP_WORD_BITS - 1) // BITMAP_WORD_BITS


def pack_frontier_bitmap(vertices: np.ndarray, lo: int, nbits: int) -> np.ndarray:
    """Pack a local frontier into 64-bit words for the bottom-up expand.

    ``vertices`` are global ids inside ``[lo, lo + nbits)``; bit
    ``v - lo`` of the output is set for each frontier vertex.  The packed
    ``uint64`` array is what each owner contributes to the ``Allgatherv``
    that assembles the global frontier bitmap.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size and (vertices.min() < lo or vertices.max() >= lo + nbits):
        raise ValueError(f"vertices out of owned range [{lo}, {lo + nbits})")
    return kernels.pack_bitmap(vertices, lo, nbits)


def unpack_frontier_bitmap(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_frontier_bitmap`: words -> boolean mask."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.size != bitmap_words(nbits):
        raise ValueError(
            f"expected {bitmap_words(nbits)} words for {nbits} bits, got {words.size}"
        )
    return kernels.unpack_bitmap(words, nbits)


def should_switch_bottom_up(
    frontier_edges: int, unexplored_edges: int, alpha: float
) -> bool:
    """Top-down -> bottom-up predicate (Beamer's ``m_f > m_u / alpha``).

    ``frontier_edges`` is the global number of edges incident to the
    current frontier, ``unexplored_edges`` the edges incident to still
    unvisited vertices.  Larger ``alpha`` switches earlier.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return frontier_edges * alpha > unexplored_edges


def should_switch_top_down(frontier_vertices: int, n: int, beta: float) -> bool:
    """Bottom-up -> top-down predicate (Beamer's ``n_f < n / beta``).

    Once the frontier thins out, scanning every unvisited vertex against
    it stops paying; smaller ``beta`` raises the ``n / beta`` threshold
    and switches back earlier.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    return frontier_vertices * beta < n

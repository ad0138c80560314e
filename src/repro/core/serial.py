"""Serial BFS (Algorithm 1) — baseline and correctness oracle.

Two implementations:

* :func:`bfs_serial` — the vectorized level-synchronous algorithm with the
  two-stack (FS/NS) structure of Algorithm 1; this is the performance
  baseline and produces the same deterministic (select, max) parents as
  the distributed variants;
* :func:`bfs_queue` — the classic CLRS FIFO queue formulation, kept
  deliberately naive as an independent oracle for property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.frontier import dedup_candidates
from repro.graphs.csr import CSR


#: Most adjacencies one slice of a level expands at once (a vertex with
#: more forms a slice of its own).  A level's temporaries are about four
#: words per slice edge, so this bounds them, plus O(n) words for the
#: next frontier, however wide the level.  Measured on the hub search of
#: an R-MAT scale-18 graph (2 CPUs, best of 7): 2^18 is the fastest of
#: 2^14-2^22, 0.226 s against 0.336 s at 2^14, 0.269 s at 2^20 and
#: 0.29 s unsliced; its traced transient is 14.8 MiB, against 38.4 MiB
#: at 2^20 and 138 MiB unsliced.
EDGE_BUDGET = 1 << 18


def bfs_serial(csr: CSR, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous serial BFS in bounded memory.

    Each level's frontier is expanded in slices of whole adjacencies
    totalling at most :data:`EDGE_BUDGET` edges (a vertex with more is
    a slice of its own).  A slice's candidates not reached before this
    level go through the (select, max) dedup; its winners are written
    at once, their parent the maximum of theirs and any earlier slice's
    winner.  So a target's parent is its maximum frontier neighbour,
    as without slicing, and a level's temporaries are bounded by the
    budget plus O(n) words, not by the frontier's edge count.

    Returns
    -------
    (levels, parents):
        ``levels[v]`` is the hop distance from ``source`` (-1 when
        unreachable); ``parents[v]`` is the BFS-tree predecessor, with
        ``parents[source] == source`` (Graph 500 convention) and -1 for
        unreachable vertices.
    """
    if not 0 <= source < csr.n:
        raise ValueError(f"source {source} out of range [0, {csr.n})")
    levels = np.full(csr.n, -1, dtype=np.int64)
    parents = np.full(csr.n, -1, dtype=np.int64)
    levels[source] = 0
    parents[source] = source
    frontier = np.array([source], dtype=np.int64)
    level = 1
    while frontier.size:
        # ends[i]: adjacencies of frontier[:i + 1]; slice at the budget.
        ends = csr.indptr[frontier + 1]
        ends -= csr.indptr[frontier]
        np.cumsum(ends, out=ends)
        found = []
        lo = 0
        while lo < frontier.size:
            cap = (ends[lo - 1] if lo else 0) + EDGE_BUDGET
            hi = max(int(np.searchsorted(ends, cap, side="right")), lo + 1)
            targets, sources = csr.gather(frontier[lo:hi])
            # Unvisited before this level: earlier slices' winners compete.
            seen = levels[targets]
            fresh = (seen < 0) | (seen == level)
            targets, sources = dedup_candidates(targets[fresh], sources[fresh])
            found.append(targets[levels[targets] < 0])
            levels[targets] = level
            parents[targets] = np.maximum(parents[targets], sources)
            lo = hi
        frontier = found[0] if len(found) == 1 else np.concatenate(found)
        level += 1
    return levels, parents


def bfs_queue(csr: CSR, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Textbook FIFO-queue BFS; O(n + m) with Python-level loops.

    Slow (only for small oracles in tests) but structurally independent of
    the vectorized implementations.
    """
    if not 0 <= source < csr.n:
        raise ValueError(f"source {source} out of range [0, {csr.n})")
    levels = [-1] * csr.n
    parents = [-1] * csr.n
    levels[source] = 0
    parents[source] = source
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in csr.neighbors(u):
            v = int(v)
            if levels[v] < 0:
                levels[v] = levels[u] + 1
                parents[v] = u
                queue.append(v)
    return np.array(levels, dtype=np.int64), np.array(parents, dtype=np.int64)

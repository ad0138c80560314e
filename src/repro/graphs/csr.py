"""Compressed sparse row construction (Section 4.1).

The paper stores all adjacencies of a vertex sorted and contiguous, with
an ``n + 1``-entry offset array and 64-bit vertex identifiers; undirected
graphs store each edge twice.  :func:`build_csr` reproduces exactly that
representation from raw edge arrays, with vectorized NumPy and one
int64 array: both directions' composite keys ``src * n + dst``
(relabelled on the way in when ``Graph.from_edges`` shuffles) are
written into it chunk by chunk, self-loops overwritten with a key that
sorts last, the array sorted in place, deduplicated in place by a
neighbour compare per chunk and shrunk to what it kept; the offsets are
read off the sorted keys with ``searchsorted`` and the columns split off
in place.  Ids too wide for a key take a ``lexsort`` path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels


@dataclass(frozen=True)
class CSR:
    """Immutable CSR adjacency structure with 64-bit ids.

    Attributes
    ----------
    n:
        Number of vertices.
    indptr:
        ``int64`` array of length ``n + 1``; adjacencies of vertex ``v``
        live in ``indices[indptr[v]:indptr[v+1]]`` and are sorted.
    indices:
        Concatenated adjacency array.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if self.indptr.shape != (self.n + 1,):
            raise ValueError(
                f"indptr length {self.indptr.size} != n+1 = {self.n + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr does not span indices")

    @property
    def nnz(self) -> int:
        """Stored adjacency count (2x the edge count for undirected)."""
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def is_canonical(self) -> bool:
        """Whether every adjacency is strictly increasing (sorted, no
        parallel edges) — what :func:`build_csr` emits by default, but not
        with ``dedup=False`` and not necessarily for a hand-built ``CSR``.
        One adjacent compare over ``indices``."""
        descends = self.indices[1:] <= self.indices[:-1]
        # A descent across the boundary between two adjacencies is fine.
        starts = self.indptr[1:-1]
        descends[starts[(starts > 0) & (starts < self.nnz)] - 1] = False
        return not descends.any()

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted adjacency view (not a copy) of vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in ``u``'s sorted adjacency."""
        adj = self.neighbors(u)
        pos = np.searchsorted(adj, v)
        return bool(pos < adj.size and adj[pos] == v)

    def gather(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate the adjacencies of ``vertices``.

        Returns ``(targets, sources)`` where ``sources[k]`` is the vertex
        whose adjacency produced ``targets[k]`` — the frontier-expansion
        primitive of every level-synchronous BFS here, one
        ``kernels.range_gather`` of the adjacency slots.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        targets = self.indices[kernels.range_gather(starts, counts)]
        return targets, np.repeat(vertices, counts)


def build_csr(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    symmetrize: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> CSR:
    """Build sorted CSR from raw edge arrays.

    Parameters
    ----------
    n:
        Vertex-id space size; all ids must lie in ``[0, n)``.
    symmetrize:
        Store both directions of every edge (the paper's undirected mode).
    dedup:
        Collapse parallel edges.
    drop_self_loops:
        Remove ``v -> v`` edges (Graph 500 validation ignores them).
    """
    return _build_csr(n, src, dst, None, symmetrize, dedup, drop_self_loops)


#: Largest ``n`` whose composite key ``src * n + dst`` (below ``n**2``)
#: fits an int64 with room for the self-loop sentinel above it.
_KEY_MAX_N = 1 << 31

#: Key of a dropped self-loop: sorts behind every real key, so dropping
#: them all is one truncation of the sorted array.
_LOOP_KEY = np.iinfo(np.int64).max


def _build_csr(n, src, dst, perm, symmetrize=True, dedup=True, drop_self_loops=True) -> CSR:
    """:func:`build_csr` of the relabelled edges ``(perm[src], perm[dst])``
    (``perm=None``: unrelabelled), shared with ``Graph.from_edges`` so the
    relabelling is written straight into the key instead of a permuted
    copy of the edge list.

    Beyond the key array (``2m`` int64 entries when symmetrizing) it
    allocates chunk-sized temporaries only: the key is written, then
    deduplicated in place, in chunks of ``_CHUNK`` entries, and the
    buffer is shrunk to the kept keys, which become ``indices``."""
    src, dst = np.asarray(src), np.asarray(dst)
    # Casting a float id would truncate it into a different edge; ``[]``
    # arrives as float64 and is no id at all.
    if any(ends.size and ends.dtype.kind not in "iu" for ends in (src, dst)):
        raise ValueError(f"edge endpoints must be integers, got {src.dtype} and {dst.dtype}")
    src, dst = src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError(f"edge arrays must be equal-length 1-D, got {src.shape} vs {dst.shape}")
    if src.size and (
        src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n
    ):
        raise ValueError(f"edge endpoints out of range [0, {n})")
    if src.size == 0 or n > _KEY_MAX_N:
        if perm is not None:
            src, dst = perm[src], perm[dst]
        return _build_csr_by_lexsort(n, src, dst, symmetrize, dedup, drop_self_loops)
    loops = np.flatnonzero(src == dst) if drop_self_loops else np.empty(0, dtype=np.int64)
    key = _edge_keys(n, src, dst, perm, symmetrize)
    key[loops] = _LOOP_KEY
    if symmetrize:
        key[loops + src.size] = _LOOP_KEY
    # Composite-key sort: one quicksort of src * n + dst is ~20x faster
    # than the two stable passes of lexsort, and dedup becomes a single
    # neighbour comparison on the sorted keys.
    key.sort()
    end = key.size - loops.size * (2 if symmetrize else 1)
    if dedup and end:
        end = _compact_sorted(key, end)
    # Drop the tail (self-loops, duplicates) from the buffer itself, so
    # the CSR does not keep it.  The reference check is skipped because
    # it counts references, not views: a trace hook that reads
    # ``frame.f_locals`` (a debugger, hypothesis' explain pass) holds
    # ``key`` itself and would fail it, while no view of ``key`` is
    # alive here that the reallocation could leave dangling.
    key.resize(end, refcheck=False)
    # Row v's keys are [v * n, (v + 1) * n): its offset is the count of
    # keys below v * n.  The column is then split off in place.
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    if n & (n - 1) == 0:
        np.bitwise_and(key, n - 1, out=key)
    else:
        np.remainder(key, n, out=key)
    return CSR(n=n, indptr=indptr, indices=key)


#: Entries per pass of the chunked loops of :func:`_edge_keys` and
#: :func:`_compact_sorted`, which bounds their temporaries at a few
#: chunk-sized arrays instead of edge-list-sized ones.  Measured on
#: ``Graph.from_edges`` of R-MAT scales 16 and 18 (2 CPUs, best of 5):
#: 2^16 is as fast as any of 2^12-2^20 (0.056 s and 0.281 s; 2^12 takes
#: 0.070 s and 0.331 s), with a peak of 1.12x the CSR's bytes at scale
#: 18 against 1.37x at 2^20.
_CHUNK = 1 << 16


def _edge_keys(n, src, dst, perm, symmetrize) -> np.ndarray:
    """``src * n + dst`` of the (relabelled) edges, followed by the
    reversed edges' keys when symmetrizing — one int64 array, written
    chunk by chunk so relabelling costs chunk-sized temporaries only."""
    m = src.size
    key = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        s, d = src[lo:hi], dst[lo:hi]
        if perm is not None:
            # Endpoints are range-checked: ``clip`` never clips, and
            # unlike ``raise`` it does not buffer the output.
            s, d = np.take(perm, s, mode="clip"), np.take(perm, d, mode="clip")
        np.multiply(s, n, out=key[lo:hi])
        key[lo:hi] += d
        if symmetrize:
            np.multiply(d, n, out=key[m + lo : m + hi])
            key[m + lo : m + hi] += s
    return key


def _compact_sorted(key, end) -> int:
    """Move the distinct values of the sorted ``key[:end]`` to its front,
    in place and chunk by chunk; returns how many there are.

    Chunk ``[lo, hi)`` is compared with ``key[lo - 1 : hi - 1]`` before
    anything is written: the writes so far end at or below ``lo``, and
    reach ``lo - 1`` only when every earlier key was kept, in place.
    """
    kept = 1
    for lo in range(1, end, _CHUNK):
        hi = min(lo + _CHUNK, end)
        fresh = key[lo:hi][key[lo:hi] != key[lo - 1 : hi - 1]]
        key[kept : kept + fresh.size] = fresh
        kept += fresh.size
    return kept


def _build_csr_by_lexsort(n, src, dst, symmetrize, dedup, drop_self_loops) -> CSR:
    """The general path: ids too wide for a composite key, or no edges."""
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if dedup and src.size:
        keep = np.empty(src.size, dtype=bool)
        keep[0] = True
        np.not_equal(src[1:], src[:-1], out=keep[1:])
        keep[1:] |= dst[1:] != dst[:-1]
        src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSR(n=n, indptr=indptr, indices=dst)

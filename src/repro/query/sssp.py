"""Bucketed min-plus SSSP with 1D partitioning (``sssp-delta``).

Delta-stepping-lite over the :data:`~repro.sparse.semiring.MIN_PLUS`
semiring: pending vertices are bucketed by ``dist // delta``, every
engine level relaxes the globally-smallest bucket's frontier, and the
relaxations travel as ``(target, distance, source)`` triples through the
same wire seam as the batched BFS.  With nonnegative weights the minimum
pending bucket never decreases (a relaxation from bucket ``B`` lands at
``dist >= B * delta``), so the sweep is monotone and terminates; distances
are exact because the scheme is label-correcting — any vertex whose
distance improves re-enters the pending set.

Parents are deterministic: ``parents[v]`` is the *maximum* vertex ``u``
with ``dist[u] + w(u, v) == dist[v]`` — the (select, max) tie rule of the
BFS families transplanted to the tropical semiring — which the serial
Dijkstra oracle reproduces in closed form.

Graphs carry no stored weights, so :func:`edge_weights` derives a
deterministic, symmetric synthetic weight in ``[1, weight_max]`` for
every adjacency from a hash of the endpoint pair.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.engine import LevelOutcome, Step1D, TraversalEngine
from repro.graphs.csr import CSR
from repro.sparse.semiring import INF

#: Default synthetic-weight range and bucket width; ``delta`` near the
#: mean weight keeps buckets a few relaxation rounds deep.
DEFAULT_WEIGHT_MAX = 8
DEFAULT_DELTA = 4

#: Bucket sentinel for "no pending vertex on this rank".
_NO_BUCKET = INF

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX_C = np.uint64(0x165667B19E3779F9)


def edge_weights(csr: CSR, weight_max: int = DEFAULT_WEIGHT_MAX, seed: int = 0) -> np.ndarray:
    """Deterministic synthetic weight for every stored adjacency.

    ``weights[k]`` belongs to ``csr.indices[k]``; the hash mixes the
    *unordered* endpoint pair, so the two stored directions of an
    undirected edge always agree.  Values lie in ``[1, weight_max]``.
    """
    if weight_max < 1:
        raise ValueError(f"weight_max must be >= 1, got {weight_max}")
    u = np.repeat(
        np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr)
    ).astype(np.uint64)
    v = csr.indices.astype(np.uint64)
    a, b = np.minimum(u, v), np.maximum(u, v)
    h = a * _MIX_A ^ b * _MIX_B ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _MIX_C
    h ^= h >> np.uint64(33)
    h *= _MIX_B
    h ^= h >> np.uint64(29)
    return (h % np.uint64(weight_max)).astype(np.int64) + 1


def gather_weighted(
    csr: CSR, weights: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`CSR.gather` that also returns the gathered edges' weights."""
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = csr.indptr[vertices]
    counts = csr.indptr[vertices + 1] - starts
    flat = kernels.range_gather(starts, counts)
    return csr.indices[flat], np.repeat(vertices, counts), weights[flat]


def _best_per_target(
    targets: np.ndarray, dists: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep one candidate per target: minimum distance, ties to max source."""
    if targets.size == 0:
        return targets, dists, sources
    order = np.lexsort((-sources, dists, targets))
    targets, dists, sources = targets[order], dists[order], sources[order]
    first = np.empty(targets.size, dtype=bool)
    first[0] = True
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    return targets[first], dists[first], sources[first]


def _sync_op(a, b):
    return [a[0] + b[0], min(a[1], b[1])]


class DeltaSSSP1D(Step1D):
    """Bucketed min-plus relaxation interior, as an engine step plugin.

    ``levels`` aliases the distance array (``INF`` = unreached; the
    driver converts to -1 after stitching) so the engine's marshaling
    needs no special case.
    """

    def __init__(
        self,
        csr: CSR,
        source: int,
        weights: np.ndarray,
        delta: int = DEFAULT_DELTA,
        codec="raw",
    ):
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        super().__init__(csr, codec=codec)
        self.source = source
        self.weights = weights
        self.delta = delta

    def setup(self, engine: TraversalEngine) -> None:
        super().setup(engine)
        self.dist = np.full(self.nloc, INF, dtype=np.int64)
        self.levels = self.dist
        self.pending = np.zeros(self.nloc, dtype=bool)
        self.bucket = 0
        if self.lo <= self.source < self.hi:
            self.dist[self.source - self.lo] = 0
            self.parents[self.source - self.lo] = self.source
            self.pending[self.source - self.lo] = True
            self.frontier = np.array([self.source], dtype=np.int64)

    def _sync(self) -> int:
        """Combined Allreduce: global pending count + next bucket."""
        if self.pending.any():
            local = [
                int(self.pending.sum()),
                int((self.dist[self.pending] // self.delta).min()),
            ]
        else:
            local = [0, _NO_BUCKET]
        total, bucket = self.comm.allreduce(local, op=_sync_op)
        self.bucket = int(bucket)
        return int(total)

    def initial_sync(self) -> int:
        return self._sync()

    def begin_level(self, level: int) -> dict:
        return {"level": level, "bucket": self.bucket}

    def step(self, level: int) -> LevelOutcome:
        charger, obs = self.charger, self.obs
        lo, nloc = self.lo, self.nloc
        with obs.span("ds-relax"):
            active = self.pending & (self.dist // self.delta == self.bucket)
            verts_loc = np.flatnonzero(active)
            self.pending[verts_loc] = False
            verts = verts_loc + lo
            targets, sources, w = gather_weighted(self.csr, self.weights, verts)
            nd = self.dist[sources - lo] + w
            charger.random(verts.size, ws_words=2 * max(nloc, 1))
            charger.stream(3.0 * targets.size, edges_scanned=float(targets.size))

        candidates = int(targets.size)
        with obs.span("ds-dedup"):
            targets, nd, sources = _best_per_target(targets, nd, sources)
            charger.sort(candidates)
        with obs.span("ds-pack"):
            owners = self.part.owner_of(targets)
            send, xinfo = self.channel.pack_triples(targets, nd, sources, owners)
            charger.intops(3.0 * xinfo.pairs)
            charger.stream(3.0 * xinfo.pairs)
            charger.count(
                candidates=float(candidates), unique_sends=float(xinfo.pairs)
            )

        with obs.span("ds-exchange"):
            rt, rd, rs = self.channel.exchange_triples(send, xinfo, level=level)

        with obs.span("ds-update"):
            charger.random(float(rt.size), ws_words=max(nloc, 1))
            rt, rd, rs = _best_per_target(rt, rd, rs)
            loc = rt - lo
            better = rd < self.dist[loc]
            tie = (rd == self.dist[loc]) & (rs > self.parents[loc])
            improved = loc[better]
            self.dist[improved] = rd[better]
            self.parents[improved] = rs[better]
            self.pending[improved] = True
            # An equal-distance candidate cannot shorten the path, but the
            # (select, max) rule still promotes the larger parent.
            self.parents[loc[tie]] = rs[tie]
            self.frontier = improved + lo
            charger.stream(float(self.frontier.size))

        return LevelOutcome(
            candidates=candidates,
            words_sent=int(3 * xinfo.pairs),
            wire_words=int(xinfo.wire_words),
            sieve_dropped=0,
            extra={"bucket": self.bucket},
        )

    def termination_sync(self) -> int:
        return self._sync()

    def state(self) -> dict:
        return {"pending": self.pending, "bucket": np.array([self.bucket])}

    def restore(self, snapshot: dict) -> None:
        self.pending[:] = snapshot["pending"]
        self.bucket = int(snapshot["bucket"][0])
        return None

"""Distributed BFS with 1D vertex partitioning (Algorithm 2, Section 3.1).

Each rank owns a block of vertices and their adjacencies.  A BFS level:

1. enumerate the adjacencies of the local frontier (thread-parallel in the
   hybrid variant, via the cost model's thread divisor);
2. deduplicate candidates per destination ("in-node aggregation" — the
   tuned behaviour that distinguishes this code from the Graph 500
   reference implementation; can be disabled for the ablation);
3. bucket (vertex, parent) pairs by owner and exchange with a single
   ``Alltoallv``;
4. owners perform the visited checks and build the next local frontier;
5. an ``Allreduce`` detects global termination.

Only the level *interior* lives here: :class:`TopDown1D` is a
:class:`~repro.core.engine.Step1D` plugin — the partition, channel and
array scaffold is the base's — and the level loop, per-level
profile and result marshaling are the
:class:`~repro.core.engine.TraversalEngine`'s.  Launch it as
``run_spmd(nranks, traversal_body, TopDown1D, (csr, source), kwargs)``.
"""

from __future__ import annotations

import numpy as np

from repro.comm import Sieve
from repro.core.engine import LevelOutcome, Step1D, TraversalEngine
from repro.core.frontier import dedup_candidates
from repro.graphs.csr import CSR


class TopDown1D(Step1D):
    """Algorithm 2's level interior, as an engine step plugin.

    Every level runs the enumerate/dedup/pack/exchange/update phases
    over the base's partition and candidate-exchange channel and
    terminates on an ``Allreduce`` of the new-frontier size.
    """

    def __init__(
        self,
        csr: CSR,
        source: int,
        dedup_sends: bool = True,
        codec="raw",
        sieve: bool | Sieve = False,
    ):
        super().__init__(csr, codec=codec, sieve=sieve)
        self.source = source
        self.dedup_sends = dedup_sends

    def setup(self, engine: TraversalEngine) -> None:
        super().setup(engine)
        if self.lo <= self.source < self.hi:
            self.levels[self.source - self.lo] = 0
            self.parents[self.source - self.lo] = self.source
            self.frontier = np.array([self.source], dtype=np.int64)

    def step(self, level: int) -> LevelOutcome:
        csr, charger, obs = self.csr, self.charger, self.obs
        lo, nloc = self.lo, self.nloc
        frontier = self.frontier
        # 1. Enumerate adjacencies of the local frontier (global vertex
        #    ids; the rank owns the frontier vertices, so the global CSR
        #    offsets are its own rows).
        with obs.span("td-scan"):
            targets, sources = csr.gather(frontier)
            charger.random(frontier.size, ws_words=2 * max(nloc, 1))
            charger.stream(
                2.0 * targets.size, edges_scanned=float(targets.size)
            )

        # 2/3. Aggregate and bucket by owner.
        candidates = int(targets.size)
        if self.dedup_sends:
            # Dedup within (rank, level): cheapest when done before the
            # owner bucketing because R-MAT hubs generate many duplicates.
            with obs.span("td-dedup"):
                targets, sources = dedup_candidates(targets, sources)
                charger.sort(candidates)
        with obs.span("td-pack"):
            send, xinfo = self.channel.pack_pairs(targets, sources)
            charger.intops(2.0 * xinfo.pairs)  # owner computation + packing
            charger.stream(2.0 * xinfo.pairs)
            charger.count(
                candidates=float(candidates), unique_sends=float(xinfo.pairs)
            )

        # 3. The level's single collective (codec-encoded buffers).
        with obs.span("td-exchange"):
            rv, rp = self.channel.exchange_pairs(send, xinfo, level=level)

        # 4. Owner-side visited checks (Algorithm 2 lines 23-26).  The
        #    received pairs from different sources may share targets.
        with obs.span("td-update"):
            charger.random(float(rv.size), ws_words=max(nloc, 1))
            unvisited = self.levels[rv - lo] < 0
            rv, rp = dedup_candidates(rv[unvisited], rp[unvisited])
            self.levels[rv - lo] = level
            self.parents[rv - lo] = rp
            self.frontier = rv
            if self.threads > 1:
                charger.thread_merge(float(self.frontier.size))
            charger.stream(float(self.frontier.size))

        return LevelOutcome(
            candidates=candidates,
            words_sent=int(2 * xinfo.pairs),
            wire_words=int(xinfo.wire_words),
            sieve_dropped=xinfo.dropped,
        )

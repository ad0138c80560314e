"""Connected components via repeated 64-way reachability (``cc``).

Undirected components fall out of the batched reachability kernel: seed
the 64 globally-smallest unlabeled vertices into the lanes of one
:data:`~repro.sparse.semiring.BIT_OR` sweep, run it to fixpoint, then
label everything each lane reached and reseed the next 64 — one engine
run covers the whole graph in ``ceil(#components / 64)`` batches.

Two seeds of one batch may share a component; their lanes co-occur on at
least one vertex word.  The finalize step closes that co-occurrence
relation (a tiny 64x64 transitive closure on lane masks, Allreduced with
a bitwise-OR) and labels each class by its smallest seed.  Seeds are
always the smallest unlabeled ids, so every component's label ends up
being its minimum vertex id — a canonical, shuffle-independent labeling
(the driver re-canonicalizes in original labels after stitching).

The wire is the ordinary pair exchange with the ``uint64`` lane word
(viewed as int64) in the parent column, so all codecs price it.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import LevelOutcome, Step1D, TraversalEngine
from repro.graphs.csr import CSR
from repro.query.msbfs import WORD_LANES, lane_bit
from repro.sparse import BIT_OR, SPA


def close_lane_classes(masks: np.ndarray) -> np.ndarray:
    """Transitive closure of the lane co-occurrence masks.

    ``masks[b]`` ORs the lane words of every vertex lane ``b`` reached
    (self bit included).  Two lanes sharing any vertex share a component;
    closure makes each row the full lane set of its component class.
    At most 64x64 bits — a few python-level passes, never on the hot path.
    """
    masks = masks.copy()
    changed = True
    while changed:
        changed = False
        for b in range(masks.size):
            merged = masks[b]
            for c in range(masks.size):
                if masks[b] & lane_bit(c):
                    merged |= masks[c]
            if merged != masks[b]:
                masks[b] = merged
                changed = True
    return masks


class ConnectedComponents1D(Step1D):
    """Batched-reachability CC interior, as an engine step plugin.

    ``parents`` doubles as the component-label array (the engine marshals
    it per rank); ``levels`` records the level a vertex was first
    reached, a per-batch diagnostic.  ``termination_sync`` returning 0
    means *no unlabeled vertices remain anywhere*: a drained batch
    finalizes labels and reseeds instead of terminating.
    """

    def __init__(self, csr: CSR, codec="raw"):
        # No sieve: a target legitimately re-ships whenever a new lane
        # reaches it.
        super().__init__(csr, codec=codec)

    def setup(self, engine: TraversalEngine) -> None:
        super().setup(engine)
        #: Component label per owned vertex (the marshaled "parents").
        self.comp = self.parents
        self.visit = np.zeros(self.nloc, dtype=np.uint64)
        self.fwords = np.zeros(self.nloc, dtype=np.uint64)
        self.seeds = np.empty(0, dtype=np.int64)
        self.batch_index = 0
        self.spa = SPA(self.nloc, BIT_OR)

    def initial_sync(self) -> int:
        return self._reseed()

    def begin_level(self, level: int) -> dict:
        return {"level": level, "batch": self.batch_index}

    def step(self, level: int) -> LevelOutcome:
        csr, charger, obs = self.csr, self.charger, self.obs
        lo, nloc = self.lo, self.nloc
        frontier = self.frontier
        with obs.span("cc-scan"):
            targets, sources = csr.gather(frontier)
            words = self.fwords[sources - lo]
            charger.random(frontier.size, ws_words=2 * max(nloc, 1))
            charger.stream(2.0 * targets.size, edges_scanned=float(targets.size))

        # Lane identity is irrelevant to CC, so the sender aggregates to
        # one ORed word per target — the BIT_OR reduction itself.
        candidates = int(targets.size)
        with obs.span("cc-dedup"):
            targets, words = BIT_OR.reduce_sorted_runs(targets, words)
            charger.sort(candidates)
        with obs.span("cc-pack"):
            send, xinfo = self.channel.pack_pairs(targets, words.view(np.int64))
            charger.intops(2.0 * xinfo.pairs)
            charger.stream(2.0 * xinfo.pairs)
            charger.count(
                candidates=float(candidates), unique_sends=float(xinfo.pairs)
            )

        with obs.span("cc-exchange"):
            rv, rp = self.channel.exchange_pairs(send, xinfo, level=level)

        with obs.span("cc-update"):
            charger.random(float(rv.size), ws_words=max(nloc, 1))
            rw = rp.view(np.uint64)
            fresh = rw & ~self.visit[rv - lo]
            alive = fresh != 0
            rv, fresh = rv[alive], fresh[alive]
            self.spa.accumulate(rv - lo, fresh)
            pos, won = self.spa.extract_and_reset()
            self.visit[pos] |= won
            first_touch = pos[self.levels[pos] < 0]
            self.levels[first_touch] = level
            self.fwords.fill(0)
            self.fwords[pos] = won
            self.frontier = pos + lo
            if self.threads > 1:
                charger.thread_merge(float(self.frontier.size))
            charger.stream(float(self.frontier.size))

        return LevelOutcome(
            candidates=candidates,
            words_sent=int(2 * xinfo.pairs),
            wire_words=int(xinfo.wire_words),
            sieve_dropped=0,
            extra={"batch": self.batch_index},
        )

    def termination_sync(self) -> int:
        alive = self.comm.allreduce(int(self.frontier.size))
        if alive:
            return alive
        self._finalize_batch()
        return self._reseed()

    def _finalize_batch(self) -> None:
        """Label everything the drained batch reached, then clear it."""
        if self.seeds.size == 0:
            return
        k = int(self.seeds.size)
        masks = np.zeros(k, dtype=np.uint64)
        for b in range(k):
            rows = (self.visit & lane_bit(b)) != 0
            if rows.any():
                masks[b] = np.bitwise_or.reduce(self.visit[rows])
            masks[b] |= lane_bit(b)
        masks = self.comm.allreduce(masks, op=np.bitwise_or)
        masks = close_lane_classes(masks)
        canon = np.empty(k, dtype=np.int64)
        for b in range(k):
            members = [c for c in range(k) if masks[b] & lane_bit(c)]
            canon[b] = int(self.seeds[members].min())
        for b in range(k):
            rows = (self.visit & lane_bit(b)) != 0
            self.comp[rows] = canon[b]
        self.charger.intops(float(k * k))
        self.visit.fill(0)

    def _reseed(self) -> int:
        """Seed the next batch with the 64 smallest unlabeled vertices."""
        self.batch_index += 1
        mine = np.flatnonzero(self.comp < 0)[:WORD_LANES] + self.lo
        with self.obs.span("allgatherv"):
            proposals = self.comm.allgatherv(mine.astype(np.int64), concat=True)
        seeds = np.sort(proposals)[:WORD_LANES]
        self.seeds = seeds
        self.fwords.fill(0)
        if seeds.size == 0:
            self.frontier = np.empty(0, dtype=np.int64)
            return 0
        owned = seeds[(self.lo <= seeds) & (seeds < self.hi)]
        for b, s in enumerate(seeds):
            s = int(s)
            if self.lo <= s < self.hi:
                self.visit[s - self.lo] |= lane_bit(b)
                self.fwords[s - self.lo] |= lane_bit(b)
                if self.levels[s - self.lo] < 0:
                    self.levels[s - self.lo] = 0
        self.frontier = owned
        return int(seeds.size)

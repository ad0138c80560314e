"""Bit-parallel multi-source BFS with 1D partitioning (``msbfs-1d``).

One traversal advances up to 64 independent BFS searches at once: every
vertex carries a single ``uint64`` *lane word* in which bit *b* is source
*b*'s visited flag, and the per-level combine is one scatter-OR over the
:data:`~repro.sparse.semiring.BIT_OR` semiring (the SPA forms the lane
union exactly as it forms the 2D column union).  Batching amortizes the
per-level latency terms — the Alltoallv startup and the termination
Allreduce fire once per level for the whole batch instead of once per
query — which is where the `query-throughput` experiment's modeled
queries/sec win comes from.

Per-lane *exactness* is preserved: levels and parents of lane *b* are
bit-identical to a single-source run from source *b* (the paper's
(select, max) parent rule applied within each lane), which
``tests/test_query.py`` locks in at batch 64.

Wire format: ``(target, source, lane-word)`` triples through
:meth:`~repro.comm.CommChannel.pack_triples`.  The sender-side
*lane-dominance prune* (:func:`prune_lane_candidates`) plays the role of
the 1D dedup: a candidate ships only if it is the maximum-source
contributor for at least one lane of its target, so at most 64 candidates
per target survive and owner-side per-lane (select, max) results are
unchanged.

Both ends of the exchange ask the same question — which candidate wins
each (target, lane) slot — and :func:`repro.kernels.lane_winners`
answers it once per call with a *winner word* per candidate: the sender
ships the candidates whose winner word is nonzero, in wire order, the
owner (:func:`resolve_lane_winners`) unpacks the winner words of what
arrived and writes exactly the winning slots.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.engine import LevelOutcome, Step1D, TraversalEngine
from repro.graphs.csr import CSR
from repro.sparse import BIT_OR, SPA

#: Lane capacity of one machine word; the hard batch ceiling.
WORD_LANES = 64


def lane_bit(b: int) -> np.uint64:
    """The lane mask of batched source ``b`` (numpy-safe uint64 shift)."""
    return np.uint64(1) << np.uint64(b)


def prune_lane_candidates(
    targets: np.ndarray, sources: np.ndarray, words: np.ndarray, nlanes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sender-side lane-dominance prune of ``(target, source, word)`` triples.

    Keeps a candidate iff it is the maximum-source contributor of at
    least one lane of its target — the winners of every lane's
    (select, max) race survive, so the owner computes identical per-lane
    parents from the pruned set, and at most ``nlanes`` candidates per
    target remain (the batched analogue of the 1D ``dedup_sends``).
    Survivors keep their full lane words: a loser bit riding along on a
    winner is harmless because the lane's true winner is also present
    and wins the owner-side reduction again.

    Output is in (target asc, source asc) order: the wire order.
    """
    return kernels.lane_prune(targets, sources, words, nlanes)


def resolve_lane_winners(
    targets: np.ndarray, sources: np.ndarray, fresh: np.ndarray, nlanes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner-side (select, max) over every lane at once.

    ``fresh`` holds each received candidate's not-yet-visited lanes.
    Returns one ``(target, lane, parent)`` row per (target, lane) slot
    some candidate carries, ``parent`` being the slot's maximum source —
    what a ``dedup_candidates`` pass per lane would produce, from one
    sort.  Everything allocated past the kernel call is sized by the
    winning slots, not by the candidates.
    """
    targets, sources, _words, wins = kernels.lane_winners(
        targets, sources, fresh, nlanes
    )
    won = np.flatnonzero(wins)
    # Bit i of the unpacked winner words is lane i % 64 of winner i // 64.
    bits = np.flatnonzero(
        np.unpackbits(wins[won].view(np.uint8), bitorder="little").view(bool)
    )
    rows = won[bits >> 6]
    return targets[rows], bits & (WORD_LANES - 1), sources[rows]


class MSBFS1D(Step1D):
    """64-way batched BFS level interior, as an engine step plugin.

    The rank's traversal arrays are 2-D: ``levels``/``parents`` have one
    column per lane, and ``visit``/``fwords`` pack the 64 visited and
    frontier flags of each owned vertex into one ``uint64`` word.  A
    checkpoint snapshots the full lane word per vertex (``state()``), so
    crash-restart resumes every lane consistently.
    """

    def __init__(
        self,
        csr: CSR,
        sources: np.ndarray,
        dedup_sends: bool = True,
        codec="raw",
    ):
        sources = np.asarray(sources, dtype=np.int64)
        if not 1 <= sources.size <= WORD_LANES:
            raise ValueError(
                f"batch size must be in [1, {WORD_LANES}], got {sources.size}"
            )
        super().__init__(csr, codec=codec)
        self.sources = sources
        self.nlanes = int(sources.size)
        self.dedup_sends = dedup_sends

    def setup(self, engine: TraversalEngine) -> None:
        super().setup(engine)
        self.levels = np.full((self.nloc, self.nlanes), -1, dtype=np.int64)
        self.parents = np.full((self.nloc, self.nlanes), -1, dtype=np.int64)
        self.visit = np.zeros(self.nloc, dtype=np.uint64)
        self.fwords = np.zeros(self.nloc, dtype=np.uint64)
        for b, s in enumerate(self.sources):
            s = int(s)
            if self.lo <= s < self.hi:
                self.levels[s - self.lo, b] = 0
                self.parents[s - self.lo, b] = s
                self.visit[s - self.lo] |= lane_bit(b)
                self.fwords[s - self.lo] |= lane_bit(b)
        self.frontier = np.flatnonzero(self.fwords) + self.lo
        self.spa = SPA(self.nloc, BIT_OR)

    def begin_level(self, level: int) -> dict:
        return {"level": level, "lanes": self.nlanes}

    def step(self, level: int) -> LevelOutcome:
        csr, charger, obs = self.csr, self.charger, self.obs
        lo, nloc = self.lo, self.nloc
        frontier = self.frontier
        # 1. Enumerate adjacencies; every gathered edge carries its
        #    frontier vertex's lane word (which lanes reached it anew).
        with obs.span("ms-scan"):
            targets, sources = csr.gather(frontier)
            words = self.fwords[sources - lo]
            charger.random(frontier.size, ws_words=2 * max(nloc, 1))
            charger.stream(3.0 * targets.size, edges_scanned=float(targets.size))

        # 2. Lane-dominance prune (the batched dedup): at most one
        #    surviving candidate per (target, lane).
        candidates = int(targets.size)
        if self.dedup_sends:
            with obs.span("ms-dedup"):
                targets, sources, words = prune_lane_candidates(
                    targets, sources, words, self.nlanes
                )
                charger.sort(candidates)
                self.metrics.inc("lane_prune_candidates", float(candidates))
                self.metrics.inc("lane_prune_kept", float(targets.size))
        with obs.span("ms-pack"):
            owners = self.part.owner_of(targets)
            send, xinfo = self.channel.pack_triples(
                targets, sources, words.view(np.int64), owners
            )
            charger.intops(3.0 * xinfo.pairs)
            charger.stream(3.0 * xinfo.pairs)
            charger.count(
                candidates=float(candidates), unique_sends=float(xinfo.pairs)
            )

        # 3. The level's single collective.
        with obs.span("ms-exchange"):
            rt, rs, rx = self.channel.exchange_triples(send, xinfo, level=level)

        # 4. Owner-side update: mask off already-visited lanes, form the
        #    per-vertex union of new lanes with the BIT_OR SPA, then
        #    write each newly reached (vertex, lane) slot's level and
        #    (select, max) parent.
        with obs.span("ms-update"):
            charger.random(float(rt.size), ws_words=max(nloc, 1))
            rw = rx.view(np.uint64)
            fresh = rw & ~self.visit[rt - lo]
            alive = fresh != 0
            rt, rs, fresh = rt[alive], rs[alive], fresh[alive]
            self.spa.accumulate(rt - lo, fresh)
            pos, won = self.spa.extract_and_reset()
            self.visit[pos] |= won
            self.fwords.fill(0)
            self.fwords[pos] = won
            # Every fresh word only carries bits below nlanes, so the
            # per-lane candidate count is the total set-bit count.
            lane_ops = int(kernels.popcount(fresh).sum()) if fresh.size else 0
            wt, lanes, ws = resolve_lane_winners(rt, rs, fresh, self.nlanes)
            slots = (wt - lo) * self.nlanes + lanes
            self.levels.reshape(-1)[slots] = level
            self.parents.reshape(-1)[slots] = ws
            self.frontier = pos + lo
            charger.intops(2.0 * lane_ops)
            if self.threads > 1:
                charger.thread_merge(float(self.frontier.size))
            charger.stream(float(self.frontier.size))

        return LevelOutcome(
            candidates=candidates,
            words_sent=int(3 * xinfo.pairs),
            wire_words=int(xinfo.wire_words),
            sieve_dropped=0,
            extra={"lanes": self.nlanes},
        )

    def state(self) -> dict:
        # The full lane word per vertex: both the visited and the
        # frontier bits of all 64 lanes must survive a crash.
        return {"visit": self.visit, "fwords": self.fwords}

    def restore(self, snapshot: dict) -> None:
        self.visit[:] = snapshot["visit"]
        self.fwords[:] = snapshot["fwords"]
        return None

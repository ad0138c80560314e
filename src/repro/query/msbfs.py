"""Bit-parallel multi-source BFS with 1D partitioning (``msbfs-1d``).

One traversal advances up to 64 independent BFS searches at once: every
vertex carries a single ``uint64`` *lane word* in which bit *b* is source
*b*'s visited flag, and the per-level combine is the OR of the lane
words that reach a vertex.  Batching amortizes the per-level latency
terms — the Alltoallv startup and the termination Allreduce fire once
per level for the whole batch instead of once per query — which is
where the `query-throughput` experiment's modeled queries/sec win comes
from.

Per-lane *exactness* is preserved: levels and parents of lane *b* are
bit-identical to a single-source run from source *b* (the paper's
(select, max) parent rule applied within each lane), which
``tests/test_query.py`` locks in at batch 64.

Wire format: *source runs* through
:meth:`~repro.comm.CommChannel.pack_runs`.  Every candidate a source
sends to one destination shares that source's lane word, so a buffer
ships each (destination, source) run once — its ``(source, run
length)`` pair through the codec and its lane word raw — followed by the
run's targets, through the codec too (delta-coded within each run under
``auto``).  Raw ships a run of ``L`` targets as they are, or, when ``L``
exceeds the ``B = bitmap_words(nbits)`` words of the destination's
range, as that range's bitmap (Lv et al.'s bitmap form for dense
levels): ``1 + 3R + sum(B if L > B else L)`` raw words for ``R`` runs
of ``K`` candidates, against ``1 + 3K`` with the word on every
candidate.  The sender-side *lane-dominance prune*
(:func:`repro.kernels.lane_prune_by_source`) plays the role of the 1D
dedup: a candidate ships only if it is the maximum-source contributor
for at least one lane of its target, so at most 64 candidates per
target survive and owner-side per-lane (select, max) results are
unchanged.

The prune runs behind a *lane sieve*, Lv et al.'s sender-side sieve
(:mod:`repro.comm.sieve`) taken one lane at a time: each rank keeps one
``uint64`` word per global target of the lanes it has shipped for it,
and a candidate races only ``word & ~shipped[target]``.  It is exact for
the vertex sieve's reason: a lane shipped for ``t`` at level ``L`` is
visited at ``t``'s owner by the end of ``L``, so the owner would mask
it off any later re-send.  A kept candidate still ships its source's
full word; the owner masks the already-visited bits riding along, as it
masks a loser's.  A level's ``sieve_dropped`` counts the candidates of
targets whose every racing lane was shipped already.  The
vertex-granular sieve itself stays refused — a target legitimately
re-ships whenever a *new lane* reaches it.

Both ends of the exchange ask the same question — which candidate wins
each (target, lane) slot — and each answers it with one sort, on a key
in the narrowest unsigned dtype that holds it, and one suffix-OR scan
over the target runs.  The sender
(:func:`repro.kernels.lane_prune_by_source`) sorts (target, source)
pairs and reads each candidate's word off its source's frontier word;
one more narrow sort (:func:`repro.kernels.source_runs`) regroups the
survivors into (destination, source, target) order, the runs.  The
owner rebuilds one (target, source, word) row per candidate with one
``np.repeat`` of (source, word) records.  Its pieces arrive in rank
order, each with its sources ascending, so within every target the
sources ascend and :func:`repro.kernels.lane_winners` orders them with
a stable sort by target alone; the scan's winner words give each
(target, lane) slot's parent (:func:`resolve_lane_winners`), and its
run heads give each target's lane union — the visited update and the
next frontier — with no scatter.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import kernels
from repro.core.engine import LevelOutcome, Step1D, TraversalEngine
from repro.graphs.csr import CSR

#: Lane capacity of one machine word; the hard batch ceiling.
WORD_LANES = 64


def lane_bit(b: int) -> np.uint64:
    """The lane mask of batched source ``b`` (numpy-safe uint64 shift)."""
    return np.uint64(1) << np.uint64(b)


def resolve_lane_winners(
    targets: np.ndarray, sources: np.ndarray, fresh: np.ndarray, nlanes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner-side (select, max) over every lane at once.

    ``fresh`` holds each received candidate's not-yet-visited lanes.
    Returns one ``(target, lane, parent)`` row per (target, lane) slot
    some candidate carries, ``parent`` being the slot's maximum source —
    what a ``dedup_candidates`` pass per lane would produce, from one
    sort.
    """
    targets, sources, wins, _reached, _unions = kernels.lane_winners(
        targets, sources, fresh, nlanes
    )
    return _winning_slots(targets, sources, wins)


def _winning_slots(
    targets: np.ndarray, sources: np.ndarray, wins: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``(target, lane, parent)`` row per set bit of the winner
    words.  Everything allocated is sized by the winning slots, not by
    the candidates."""
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
    frontier flags of each owned vertex into one ``uint64`` word.
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
        #: The lane sieve: per global target, the lanes this rank has
        #: shipped for it (see :meth:`step`).
        self.shipped = np.zeros(self.csr.n, dtype=np.uint64) if self.dedup_sends else None

    def begin_level(self, level: int) -> dict:
        return {"level": level, "lanes": self.nlanes}

    def step(self, level: int) -> LevelOutcome:
        csr, charger, obs = self.csr, self.charger, self.obs
        lo, nloc = self.lo, self.nloc
        frontier = self.frontier
        # 1. Enumerate adjacencies; each gathered edge carries its
        #    frontier source's lane word (which lanes reached it anew).
        with obs.span("ms-scan"):
            targets, sources = csr.gather(frontier)
            charger.random(frontier.size, ws_words=2 * max(nloc, 1))
            charger.stream(3.0 * targets.size, edges_scanned=float(targets.size))

        # 2. Lane-dominance prune (the batched dedup) behind the lane
        #    sieve: at most one surviving candidate per (target, lane),
        #    and none for a lane this rank already shipped to its target.
        candidates = int(targets.size)
        sieve_dropped = 0
        if self.dedup_sends:
            with obs.span("ms-dedup"):
                targets, sources, _words, sieve_dropped = kernels.lane_prune_by_source(
                    targets, sources, self.fwords, lo, self.nlanes, self.shipped
                )
                charger.sort(candidates)
                if candidates:
                    # One irregular probe per candidate into the shipped
                    # words, as the 1D sieve is charged: an upper bound on
                    # the one per target run the kernel makes.
                    charger.random(float(candidates), ws_words=max(self.csr.n, 1))
                if sieve_dropped:
                    charger.count(sieve_dropped=float(sieve_dropped))
                self.metrics.inc("lane_prune_candidates", float(candidates))
                self.metrics.inc("lane_prune_kept", float(targets.size))
                self.metrics.inc("lane_sieve_dropped", float(sieve_dropped))
        with obs.span("ms-pack"):
            send, xinfo = self.channel.pack_runs(targets, sources, self.fwords)
            # The exchange records what the lane sieve dropped, as the
            # channel's own sieve does.
            xinfo = replace(xinfo, dropped=sieve_dropped)
            charger.intops(3.0 * xinfo.pairs)
            charger.stream(3.0 * xinfo.pairs)
            charger.count(
                candidates=float(candidates), unique_sends=float(xinfo.pairs)
            )

        # 3. The level's single collective.
        with obs.span("ms-exchange"):
            rt, rs, rx = self.channel.exchange_runs(send, xinfo, level=level)

        # 4. Owner-side update: mask off already-visited lanes, then one
        #    pass resolves every (vertex, lane) slot's (select, max)
        #    parent and each vertex's union of new lanes — its visited
        #    bits and its frontier word for the next level.
        with obs.span("ms-update"):
            charger.random(float(rt.size), ws_words=max(nloc, 1))
            fresh = rx.view(np.uint64) & ~self.visit[rt - lo]
            alive = np.flatnonzero(fresh)
            rt, rs, fresh = rt[alive], rs[alive], fresh[alive]
            # Every fresh word only carries bits below nlanes, so the
            # per-lane candidate count is the total set-bit count.
            lane_ops = int(kernels.popcount(fresh).sum()) if fresh.size else 0
            rt, rs, wins, reached, won = kernels.lane_winners(
                rt, rs, fresh, self.nlanes
            )
            pos = reached - lo
            self.visit[pos] |= won
            self.fwords.fill(0)
            self.fwords[pos] = won
            wt, lanes, ws = _winning_slots(rt, rs, wins)
            slots = (wt - lo) * self.nlanes + lanes
            self.levels.reshape(-1)[slots] = level
            self.parents.reshape(-1)[slots] = ws
            self.frontier = reached
            charger.intops(2.0 * lane_ops)
            charger.stream(float(self.frontier.size))

        return LevelOutcome(
            candidates=candidates,
            words_sent=int(3 * xinfo.runs + xinfo.pairs),
            wire_words=int(xinfo.wire_words),
            sieve_dropped=sieve_dropped,
            extra={"lanes": self.nlanes},
        )

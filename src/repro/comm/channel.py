"""Codec- and sieve-aware wrapper around the exchange collectives.

:class:`CommChannel` is the single seam between the BFS algorithms and
the wire: every candidate ``Alltoallv`` and frontier ``Allgatherv`` goes
through it.  The channel

* optionally runs the :class:`~repro.comm.sieve.Sieve` over outgoing
  candidates (dropping targets this rank already shipped at an earlier
  level — exact, see ``sieve.py``),
* encodes each per-destination buffer with the configured
  :class:`~repro.comm.codecs.Codec` (so the engine's alpha-beta model
  prices the *encoded* size — compression is modeled speedup),
* ships the batched query's candidates as *source runs*
  (:meth:`CommChannel.pack_runs`): every candidate of one (destination,
  source) shares one ``(source, run length)`` codec pair and one raw
  lane word, followed by the run's targets — under raw, a run longer
  than its destination range's bitmap ships as that bitmap, as each
  side's one :class:`~repro.comm.codecs.RunLayout` per exchange says,
* records both ``payload_words`` (logical, pre-codec) and ``wire_words``
  (post-codec) per collective kind and per BFS level on the rank's
  :class:`~repro.mpsim.stats.RankStats`,
* charges the encode/decode compute through the site's
  :class:`~repro.model.costmodel.Charger`, and
* when a :class:`~repro.obs.tracer.RankTracer` is installed, wraps the
  sieve, codec encode/decode, and the collective itself in virtual-time
  phase spans (``sieve``/``encode``/``alltoallv``/``allgatherv``/
  ``decode``) nested under the algorithm's per-level spans.

Under the default ``codec="raw"`` with the sieve off, the pair and
gather sites are a strict pass-through: byte-identical buffers, zero additional compute
charges, and the same charge ordering as the pre-channel call sites —
the seed behaviour, bit for bit.  The run sites' bitmap runs are
charged even under raw (streaming of the bitmap words plus one int op
per target they carry, on each side): compression is never free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro import kernels
from repro.comm.codecs import (
    Codec,
    CodecError,
    RunLayout,
    VertexRange,
    _joined,
    get_codec,
)
from repro.comm.sieve import Sieve
from repro.core.frontier import bitmap_words
from repro.obs.metrics import NULL_RANK_METRICS
from repro.obs.tracer import NULL_RANK_TRACER

#: Bytes per boolean in the sieve's ``seen`` array; its random-access
#: working set in 64-bit words is ``nglobal / 8``.
_SIEVE_BYTES_PER_FLAG = 8

#: Integer ops charged per payload word of a non-raw encode/decode pass:
#: delta, varint byte-count, and shift/mask work.  The transform is
#: linear, not a sort — pair buckets arrive owner-sorted (the 1D dedup
#: emits ascending targets and vertex ownership is monotone; the codec
#: checks with one adjacent compare), and the ``auto`` polyalgorithm
#: selects its form from closed-form sizes (count, varint byte count,
#: bitmap width) and encodes only the winner: one encode pass either
#: way.
_CODEC_OPS_PER_WORD = 8.0


def _check_in_range(targets, bounds):
    """Raise ``ValueError`` unless every target lies in ``[bounds[0],
    bounds[-1])``, the span of a channel's routing bounds."""
    lo, hi = int(bounds[0]), int(bounds[-1])
    if targets.size and (targets.min() < lo or targets.max() >= hi):
        raise ValueError(f"vertex ids out of range [{lo}, {hi})")


@dataclass(frozen=True)
class ExchangeInfo:
    """Accounting for one channel operation (one collective, one level).

    ``payload_words``/``wire_words`` follow the stats convention of the
    underlying collective: self-addressed all-to-all buckets are excluded,
    gather contributions are not.  ``pairs`` (candidates) and ``runs``
    (the source runs of a run exchange) count every destination.
    """

    pairs: int
    payload_words: float
    wire_words: float
    dropped: int
    runs: int = 0


class CommChannel:
    """Per-communicator wire layer: sieve -> bucket -> encode -> collective.

    ``ranges[j]`` is the :class:`VertexRange` the buffers exchanged with
    group rank ``j`` index into: the destination's owned range for pair
    exchanges, the contributor's vector piece for frontier gathers.  Both
    endpoints derive it from the partition, so it never travels on the
    wire.
    """

    def __init__(
        self,
        comm,
        ranges: list[VertexRange],
        codec: str | Codec = "raw",
        sieve: Sieve | None = None,
        charger=None,
        tracer=None,
        metrics=None,
    ):
        if len(ranges) != comm.size:
            raise ValueError(
                f"need one VertexRange per group rank: {len(ranges)} != {comm.size}"
            )
        self.comm = comm
        self.ranges = list(ranges)
        #: The routing bounds: the first range's start plus the sizes
        #: before each range.  Only ranges whose non-empty members tile one
        #: interval in rank order route (empty ones may sit anywhere, as
        #: the diagonal vector distribution's do); overlapping 2D column
        #: ranges only gather.
        self._bounds = self.ranges[0].lo + np.cumsum(
            [0] + [r.nbits for r in self.ranges], dtype=np.int64
        )
        self._routable = all(
            r.lo == lo for r, lo in zip(self.ranges, self._bounds.tolist()) if r.nbits
        )
        self.codec = get_codec(codec)
        self.sieve = sieve
        self.charger = charger
        #: Per-rank span recorder (a :class:`repro.obs.RankTracer`); the
        #: shared no-op handle when the run is untraced.
        self.obs = tracer if tracer is not None else NULL_RANK_TRACER
        #: Per-rank metrics handle (a :class:`repro.obs.RankMetrics`);
        #: the shared no-op handle when the run is unmetered.  Passive:
        #: counters never touch the clocks or the wire.
        self.metrics = metrics if metrics is not None else NULL_RANK_METRICS

    # -- internal helpers ---------------------------------------------------
    @property
    def _transcoding(self) -> bool:
        return self.codec.name != "raw"

    def _route_bounds(self) -> np.ndarray:
        if not self._routable:
            raise ValueError("cannot route by range: the ranges do not tile one interval")
        return self._bounds

    def _charge_encode(self, nitems: float, payload: float, wire: float) -> None:
        if self.charger is None or not self._transcoding:
            return
        self.charger.intops(_CODEC_OPS_PER_WORD * payload, codec_items=nitems)
        self.charger.stream(payload + wire, codec_wire_words=wire)

    def _charge_decode(self, nitems: float, wire: float) -> None:
        if self.charger is None or not self._transcoding:
            return
        self.charger.intops(_CODEC_OPS_PER_WORD * nitems)
        self.charger.stream(wire + nitems)

    def _charge_bitmap_runs(self, layout: RunLayout) -> None:
        """Charge the pack (or unpack) of the bitmap runs ``layout``
        marks: streaming of their bitmap words plus one int op per
        target they carry.  A transcoding codec's encode/decode charges
        already price every payload word."""
        if self.charger is None or self._transcoding:
            return
        long = layout.bitmap
        if long.any():
            self.charger.intops(float(layout.lengths[long].sum()))
            self.charger.stream(float(layout.widths[long].sum()))

    def _off_rank_words(self, payload, send) -> tuple[float, float]:
        """(payload, wire) words of an all-to-all, self bucket excluded."""
        me = self.comm.rank
        wire = [float(buf.size) for buf in send]
        return float(payload.sum() - payload[me]), sum(wire) - wire[me]

    def _record(self, kind: str, info: ExchangeInfo, level: int | None) -> None:
        self.comm.stats.record_channel(
            kind,
            info.payload_words,
            info.wire_words,
            level=level,
            dropped=float(info.dropped),
        )
        # One metrics sample per recorded collective — the same cadence as
        # record_channel, so counter totals reconcile exactly against
        # SimStats.wire_words()/payload_words().
        m = self.metrics
        m.inc("comm_exchanges", 1.0, kind=kind)
        m.inc("comm_payload_words", info.payload_words, kind=kind)
        m.inc("comm_wire_words", info.wire_words, kind=kind)
        m.observe("comm_wire_words_per_exchange", info.wire_words, kind=kind)

    # -- candidate pair exchange (1D top-down, 2D fold) ---------------------
    def pack_pairs(
        self, targets: np.ndarray, parents: np.ndarray
    ) -> tuple[list[np.ndarray], ExchangeInfo]:
        """Sieve, bucket by destination, and encode the candidate pairs.

        Each target goes to the rank whose range holds it; a target
        outside every range raises ``ValueError`` before the sieve sees
        it.  Ascending targets — what ``dedup_candidates``, the SPA and
        ``reduce_sorted_runs`` emit — are already in destination order
        and take their per-destination counts from one ``searchsorted``
        of the range bounds; other input is grouped by a stable counting
        sort on owners read off the same bounds.

        Returns the per-destination wire buffers plus the accounting the
        caller threads into :meth:`exchange_pairs`.  Splitting pack from
        exchange lets the call site keep its own compute charges between
        the two — charge order feeds collective arrival times, so raw
        parity requires it.
        """
        targets = np.asarray(targets, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        bounds = self._route_bounds()
        _check_in_range(targets, bounds)
        ascending = not (targets[1:] < targets[:-1]).any()
        if self.sieve is not None:
            with self.obs.span("sieve"):
                before = targets.size
                if self.charger is not None and before:
                    # One irregular probe per candidate into the seen bitmask.
                    self.charger.random(
                        float(before),
                        ws_words=max(self.sieve.nglobal / _SIEVE_BYTES_PER_FLAG, 1.0),
                    )
                targets, parents = self.sieve.filter(targets, parents)
                dropped = int(before - targets.size)
                if self.charger is not None and dropped:
                    self.charger.count(sieve_dropped=float(dropped))
                self.sieve.mark(targets)
                self.metrics.inc("sieve_candidates", float(before))
                self.metrics.inc("sieve_dropped", float(dropped))
        else:
            dropped = 0
        with self.obs.span("encode", codec=self.codec.name):
            self.metrics.inc("codec_encodes", 1.0, codec=self.codec.name)
            if ascending:
                counts = np.diff(np.searchsorted(targets, bounds))
            else:
                owners = np.searchsorted(bounds, targets, side="right") - 1
                (targets, parents), counts = kernels.group_by_owner(
                    owners, self.comm.size, targets, parents
                )
            send = self.codec.encode_pairs_many(
                targets, parents, counts, self.ranges
            )
            payload, wire = self._off_rank_words(2.0 * counts, send)
            self._charge_encode(float(targets.size), 2.0 * targets.size, wire)
        info = ExchangeInfo(int(targets.size), payload, wire, dropped)
        return send, info

    def exchange_pairs(
        self, send: list[np.ndarray], info: ExchangeInfo, level: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All-to-all the packed buffers and decode what arrives.

        Returns the concatenated ``(targets, parents)`` addressed to this
        rank; identical to the seed's ``alltoallv_concat`` +
        ``unpack_pairs`` under the raw codec.
        """
        ctx = self.ranges[self.comm.rank]
        self._record("alltoallv", info, level)
        with self.obs.span("alltoallv", level=level, wire_words=info.wire_words):
            pieces = self.comm.alltoallv(send)
        with self.obs.span("decode", codec=self.codec.name):
            rv, rp = self.codec.decode_pairs_many(pieces, ctx)
            self._charge_decode(
                float(rv.size),
                float(sum(p.size for p in pieces)),
            )
        return rv, rp

    # -- source-run exchange (batched queries: repro.query) -----------------
    def pack_runs(
        self, targets: np.ndarray, sources: np.ndarray, source_words: np.ndarray
    ) -> tuple[list[np.ndarray], ExchangeInfo]:
        """Encode ``(target, source)`` candidates as per-destination
        source runs, each carrying its source's lane word once.

        ``sources`` lie in this rank's own range ``mine`` and
        ``source_words[v - mine.lo]`` is owned vertex ``v``'s ``uint64``
        word — a multi-source traversal's frontier lanes — so every
        candidate from one source carries the same word.  Each target
        goes to the rank whose range holds it, the ranges tiling
        ascending as a 1D partition's do.  A non-empty buffer is

        * one header word: the pair frame's length ``F``;
        * the codec's pair frame of ``(source, run length)``, one pair
          per run, sources ascending (``auto`` checks them against the
          sender's range);
        * ``R`` raw lane words, one per run;
        * the codec's run frame of the ``K`` targets, grouped by run and
          strictly ascending within each run (:meth:`Codec.encode_runs_many`:
          raw ships a run of ``L`` targets as they are, or — when ``L``
          exceeds the ``B = bitmap_words(nbits)`` words of the
          destination's range — as that range's bitmap; delta-varint as
          each run's first offset into the destination's range and its
          gaps);

        so ``1 + 3R + sum(B if L > B else L)`` words under the raw
        codec, as the exchange's one :class:`RunLayout` decides for the
        codec and the bitmap charge.  One :func:`kernels.source_runs`
        sort puts the candidates in that order and ships a repeated
        ``(target, source)`` pair once: it carries one lane word either
        way, and a bitmap cannot carry it twice.  A source outside the
        sender's range or a target outside every range raises
        ``ValueError``.  The vertex-granular sieve would drop live
        updates — a target legitimately re-ships whenever a *new lane*
        reaches it — so run sites refuse one outright; the batched
        query's lane-granular sieve is built into its prune
        (:func:`kernels.lane_prune_by_source`).

        ``payload_words`` count ``3R + K`` per off-rank buffer, the
        logical form without its header.
        """
        if self.sieve is not None:
            raise ValueError(
                "sieve is unsupported for run exchanges: lane payloads "
                "re-ship targets whenever a new lane reaches them, so the "
                "lane-granular sieve is built into the lane prune instead"
            )
        mine = self.ranges[self.comm.rank]
        source_words = np.asarray(source_words, dtype=np.uint64)
        if source_words.size != mine.nbits:
            raise ValueError(
                f"need one source word per owned vertex: "
                f"{source_words.size} != {mine.nbits}"
            )
        with self.obs.span("encode", codec=self.codec.name):
            self.metrics.inc("codec_encodes", 1.0, codec=self.codec.name)
            targets, run_sources, run_lengths, run_counts, counts = kernels.source_runs(
                targets, sources, self._route_bounds()
            )
            lo, hi = mine.lo, mine.lo + mine.nbits
            if run_sources.size and (run_sources.min() < lo or run_sources.max() >= hi):
                raise ValueError(f"sources out of the sender's range [{lo}, {hi})")
            frames = self.codec.encode_pairs_many(
                run_sources, run_lengths, run_counts, [mine] * self.comm.size
            )
            nruns = run_counts.tolist()
            layout = RunLayout.build(run_lengths, counts.tolist(), self.ranges)
            target_frames = self.codec.encode_runs_many(targets, layout)
            run_words = source_words[run_sources - lo].view(np.int64)
            # Every buffer is a slice of one array, written field by field.
            sizes = [
                1 + frame.size + r + tframe.size if frame.size else 0
                for frame, r, tframe in zip(frames, nruns, target_frames)
            ]
            wire_words = np.empty(sum(sizes), dtype=np.int64)
            at = r0 = 0
            for frame, size, r, tframe in zip(frames, sizes, nruns, target_frames):
                if size:
                    f = frame.size
                    wire_words[at] = f
                    wire_words[at + 1 : at + 1 + f] = frame
                    wire_words[at + 1 + f : at + 1 + f + r] = run_words[r0 : r0 + r]
                    wire_words[at + 1 + f + r : at + size] = tframe
                at, r0 = at + size, r0 + r
            cuts = list(accumulate(sizes, initial=0))
            send = [wire_words[a:b] for a, b in zip(cuts, cuts[1:])]
            payload, wire = self._off_rank_words(3.0 * run_counts + counts, send)
            self._charge_encode(
                float(targets.size), 3.0 * run_sources.size + targets.size, wire
            )
            self._charge_bitmap_runs(layout)
        info = ExchangeInfo(int(targets.size), payload, wire, 0, runs=int(run_sources.size))
        return send, info

    def _decode_runs(
        self, pieces: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, RunLayout]:
        """Received run buffers (``pieces[r]`` from group rank ``r``),
        decoded at once into one ``(target, source, word)`` row per
        candidate, plus their target frames' :class:`RunLayout`.

        The pieces' pair frames are joined and take one codec call, and
        so do their target frames; each piece's lane words are cut from
        it at their offset, and one ``np.repeat`` of (source, word)
        records rebuilds the rows.  When that finds damage, the pieces
        are decoded again one at a time, so the :class:`CodecError`
        names the first damaged piece exactly as a piece-by-piece decode
        would — a joined codec decode reports on all its frames at once.
        """
        try:
            return self._decode_joined_runs(pieces, range(len(pieces)))
        except CodecError:
            for sender, piece in enumerate(pieces):
                self._decode_joined_runs([piece], [sender])
            raise

    def _decode_joined_runs(self, pieces, senders):
        live = [
            (sender, np.asarray(piece, dtype=np.int64))
            for sender, piece in zip(senders, pieces)
            if len(piece)
        ]
        heads = [int(piece[0]) for _sender, piece in live]
        for pair_words, (_sender, piece) in zip(heads, live):
            if pair_words < 0 or pair_words > piece.size - 1:
                raise CodecError(
                    f"corrupt run buffer: header claims {pair_words} pair words "
                    f"but only {piece.size - 1} words follow"
                )
        words, starts, sizes = _joined(
            [piece[1 : 1 + n] for n, (_sender, piece) in zip(heads, live)]
        )
        sources, lengths, found = self.codec.decode_pairs_at(words, starts, sizes)
        found = iter(found)
        nruns = [next(found) if n else 0 for n in heads]
        for pair_words, (_sender, piece), runs in zip(heads, live, nruns):
            if runs > piece.size - 1 - pair_words:
                raise CodecError(
                    f"corrupt run buffer: {runs} runs but only "
                    f"{piece.size - 1 - pair_words} words follow the pair frame"
                )
        # Each piece's lane words and target frame, cut straight from it.
        tails = [1 + n for n in heads]
        run_words = np.concatenate(
            [piece[at : at + r] for at, (_s, piece), r in zip(tails, live, nruns)]
            or [words[:0]]
        )
        frames = [piece[at + r :] for at, (_s, piece), r in zip(tails, live, nruns)]
        frame_sizes = [frame.size for frame in frames]
        if lengths.size:
            # A target takes at least one bit of its frame.
            short, long, cap = int(lengths.min()), int(lengths.max()), 64 * max(frame_sizes)
            if short < 1 or long > cap:
                raise CodecError(
                    f"corrupt run buffer: run length {short if short < 1 else long} "
                    f"outside [1, {cap}]"
                )
        ends = np.cumsum(nruns, dtype=np.int64)
        total = np.concatenate([[0], np.cumsum(lengths)])
        ntargets = (total[ends] - total[ends - np.asarray(nruns, dtype=np.int64)]).tolist()
        ranges = [self.ranges[sender] for sender, _piece in live]
        lo = np.repeat([r.lo for r in ranges], nruns)
        hi = lo + np.repeat([r.nbits for r in ranges], nruns)
        outside = np.flatnonzero((sources < lo) | (sources >= hi))
        if outside.size:
            bad = ranges[int(np.searchsorted(ends, outside[0], "right"))]
            raise CodecError(
                f"corrupt run buffer: source outside the sender's range "
                f"[{bad.lo}, {bad.lo + bad.nbits})"
            )
        mine = self.ranges[self.comm.rank]
        layout = RunLayout.build(lengths, ntargets, [mine] * len(live))
        targets = self.codec.decode_runs_at(
            np.concatenate(frames or [words[:0]]),
            list(accumulate(frame_sizes, initial=0))[:-1],
            frame_sizes,
            layout,
        )
        if targets.size and (
            targets.min() < mine.lo or targets.max() >= mine.lo + mine.nbits
        ):
            raise CodecError(
                f"corrupt run buffer: target outside [{mine.lo}, {mine.lo + mine.nbits})"
            )
        # One repeat of (source, word) records rebuilds both columns.
        records = np.empty((sources.size, 2), dtype=np.int64)
        records[:, 0] = sources
        records[:, 1] = run_words
        rows = np.repeat(records, lengths, axis=0)
        return targets, rows[:, 0], rows[:, 1], layout

    def exchange_runs(
        self, send: list[np.ndarray], info: ExchangeInfo, level: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All-to-all the packed run buffers and decode what arrives:
        ``(targets, sources, words)``, one row per candidate, pieces in
        rank order and each in (source, target) order."""
        self._record("alltoallv", info, level)
        with self.obs.span("alltoallv", level=level, wire_words=info.wire_words):
            pieces = self.comm.alltoallv(send)
        with self.obs.span("decode", codec=self.codec.name):
            rt, rs, rx, layout = self._decode_runs(pieces)
            self._charge_decode(float(rt.size), float(sum(p.size for p in pieces)))
            self._charge_bitmap_runs(layout)
        return rt, rs, rx

    # -- frontier gathers (bottom-up expand, 2D expand) ---------------------
    def gather_mask(
        self, vertices: np.ndarray, level: int | None = None
    ) -> tuple[np.ndarray, ExchangeInfo]:
        """Allgather dense per-range bitmaps into one boolean mask.

        Each rank contributes the bitmap of its own :class:`VertexRange`
        (``vertices`` are global ids inside it) and the decoded pieces
        are OR-unioned into a mask over ``[base, top)`` where
        ``base``/``top`` bound the group's ranges, which may tile,
        overlap or start anywhere.  Index ``i`` of the mask is vertex
        ``base + i``.  Every bottom-up gather is this one ``Allgatherv``,
        priced post-codec: the 1D frontier expand (owned ranges tiling
        ``[0, n)``), the 2D frontier along a processor column (identical
        overlapping ranges, one column block) and the 2D visited
        vertices along a processor row (disjoint vector pieces starting
        at the row block's offset, not at zero).  The gathered vertices
        also feed the sieve: they are discovered, so no later exchange
        needs to re-ship them.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        mine = self.ranges[self.comm.rank]
        with self.obs.span("encode", codec=self.codec.name):
            self.metrics.inc("codec_encodes", 1.0, codec=self.codec.name)
            payload = float(bitmap_words(mine.nbits))
            buf = self.codec.encode_set(vertices, mine, dense=True)
            self._charge_encode(float(vertices.size), payload, float(buf.size))
        info = ExchangeInfo(int(vertices.size), payload, float(buf.size), 0)
        self._record("allgatherv", info, level)
        with self.obs.span("allgatherv", level=level, wire_words=info.wire_words):
            pieces = self.comm.allgatherv(buf, concat=False)
        with self.obs.span("decode", codec=self.codec.name):
            base = min(r.lo for r in self.ranges)
            top = max(r.lo + r.nbits for r in self.ranges)
            mask = np.zeros(top - base, dtype=bool)
            wire_recv = 0.0
            for r, piece in enumerate(pieces):
                decoded = self.codec.decode_set(piece, self.ranges[r], dense=True)
                mask[decoded - base] = True
                wire_recv += float(np.asarray(piece).size)
            self._charge_decode(float(top - base) / 64.0, wire_recv)
            if self.sieve is not None:
                self.sieve.mark(np.flatnonzero(mask) + base)
        return mask, info

    def allgatherv_vertices(
        self, vertices: np.ndarray, level: int | None = None
    ) -> tuple[np.ndarray, ExchangeInfo]:
        """Allgather sparse vertex lists (the 2D expand's frontier gather).

        Each rank contributes the vertices of its own vector piece; the
        result concatenates every rank's decoded list in group-rank order.
        Raw is the identity, so ordering matches the seed exactly; the
        downstream SpMSV's (select, max) semiring is order-independent, so
        codecs that sort are safe.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        mine = self.ranges[self.comm.rank]
        with self.obs.span("encode", codec=self.codec.name):
            self.metrics.inc("codec_encodes", 1.0, codec=self.codec.name)
            buf = self.codec.encode_set(vertices, mine, dense=False)
            self._charge_encode(
                float(vertices.size), float(vertices.size), float(buf.size)
            )
        info = ExchangeInfo(
            int(vertices.size), float(vertices.size), float(buf.size), 0
        )
        self._record("allgatherv", info, level)
        with self.obs.span("allgatherv", level=level, wire_words=info.wire_words):
            pieces = self.comm.allgatherv(buf, concat=False)
        with self.obs.span("decode", codec=self.codec.name):
            decoded = [
                self.codec.decode_set(piece, self.ranges[r], dense=False)
                for r, piece in enumerate(pieces)
            ]
            gathered = (
                np.concatenate(decoded) if decoded else np.empty(0, dtype=np.int64)
            )
            self._charge_decode(
                float(gathered.size), float(sum(np.asarray(p).size for p in pieces))
            )
            if self.sieve is not None:
                self.sieve.mark(gathered)
        return gathered, info

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
* records both ``payload_words`` (logical, pre-codec) and ``wire_words``
  (post-codec) per collective kind and per BFS level on the rank's
  :class:`~repro.mpsim.stats.RankStats`,
* charges the encode/decode compute through the site's
  :class:`~repro.model.costmodel.Charger`, and
* when a :class:`~repro.obs.tracer.RankTracer` is installed, wraps the
  sieve, codec encode/decode, and the collective itself in virtual-time
  phase spans (``sieve``/``encode``/``alltoallv``/``allgatherv``/
  ``decode``) nested under the algorithm's per-level spans.

Under the default ``codec="raw"`` with the sieve off, the channel is a
strict pass-through: byte-identical buffers, zero additional compute
charges, and the same charge ordering as the pre-channel call sites —
the seed behaviour, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.comm.codecs import Codec, CodecError, VertexRange, _cut, _joined, get_codec
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


def _ordered(targets, values):
    """Whether the (target, value) rows ascend lexicographically, by one
    adjacent compare per column."""
    if (targets[1:] < targets[:-1]).any():
        return False
    return not ((values[1:] < values[:-1]) & (targets[1:] == targets[:-1])).any()


def _check_in_range(targets, bounds):
    """Raise ``ValueError`` unless every target lies in ``[bounds[0],
    bounds[-1])``, the span of a channel's routing bounds."""
    lo, hi = int(bounds[0]), int(bounds[-1])
    if targets.size and (targets.min() < lo or targets.max() >= hi):
        raise ValueError(f"vertex ids out of range [{lo}, {hi})")


def _group_triples(targets, values, extras, bounds):
    """Order triples by (target, value), so by owner too; return the
    three reordered columns and the per-owner counts.

    Each target goes to the rank whose ``[bounds[j], bounds[j + 1])``
    holds it (a 1D partition's owned ranges); a target outside
    ``[bounds[0], bounds[-1])`` raises ``ValueError``.  Rows tying on
    (target, value) keep their input order: an msbfs row's extra is its
    source's frontier word, so such rows carry equal extras.

    One adjacent compare per column usually settles the order — the
    msbfs lane prune emits wire order — and the counts are then one
    ``searchsorted`` of the bounds in the sorted targets.  Input found
    out of order (msbfs with ``dedup_sends=False``) gets one stable sort
    on a (target offset, value offset) key.  The python-int guard keeps
    the key clear of 64-bit wrap, as in ``kernels.dedup_max``; past it
    ``lexsort`` gives the same order.
    """
    _check_in_range(targets, bounds)
    if not _ordered(targets, values):
        tmin, tmax = int(targets.min()), int(targets.max())
        vmin, vmax = int(values.min()), int(values.max())
        vbits = (vmax - vmin).bit_length()
        if (tmax - tmin).bit_length() + vbits <= 64:
            key = (targets - np.int64(tmin)).view(np.uint64)
            key <<= np.uint64(vbits)
            key |= (values - np.int64(vmin)).view(np.uint64)
            order = np.argsort(key, kind="stable")
        else:
            order = np.lexsort((values, targets))
        targets, values, extras = targets[order], values[order], extras[order]
    return targets, values, extras, np.diff(np.searchsorted(targets, bounds))


@dataclass(frozen=True)
class ExchangeInfo:
    """Accounting for one channel operation (one collective, one level).

    ``payload_words``/``wire_words`` follow the stats convention of the
    underlying collective: self-addressed all-to-all buckets are excluded,
    gather contributions are not.
    """

    pairs: int
    payload_words: float
    wire_words: float
    dropped: int


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

    # -- candidate triple exchange (batched queries: repro.query) -----------
    def pack_triples(
        self, targets: np.ndarray, values: np.ndarray, extras: np.ndarray
    ) -> tuple[list[np.ndarray], ExchangeInfo]:
        """Bucket and encode ``(target, value, extra)`` candidate triples.

        The batched query ships one extra 64-bit column per pair: the
        ``uint64`` lane word of a multi-source traversal (viewed as
        int64).  The ``(target, value)`` columns ride the configured codec exactly like
        :meth:`pack_pairs`; the extra column travels raw behind a length
        header so a damaged buffer is detectable (header/pair/extra sizes
        must agree, else :class:`CodecError`).  The sieve is structurally
        incompatible — a target legitimately re-ships whenever a *new
        lane* reaches it — so triple sites refuse one outright.

        Each target goes to the rank whose range holds it, the ranges
        tiling ascending as a 1D partition's do (a target outside them
        raises ``ValueError``).  Each bucket is sorted by (target,
        value) before encoding (:func:`_group_triples`): input already
        in that order — the msbfs lane prune's output — is only checked,
        by adjacent compares, and takes its per-owner counts from one
        ``searchsorted``; other input gets one sort for all
        destinations.  The raw codec
        preserves order and delta-varint finds every segment already in
        (target, value) order, so the decoded pair order always matches
        the raw extra column row for row.
        """
        if self.sieve is not None:
            raise ValueError(
                "sieve is unsupported for triple exchanges: lane payloads "
                "re-ship targets whenever a new lane reaches them"
            )
        targets = np.asarray(targets, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        extras = np.asarray(extras, dtype=np.int64)
        with self.obs.span("encode", codec=self.codec.name):
            self.metrics.inc("codec_encodes", 1.0, codec=self.codec.name)
            targets, values, extras, counts = _group_triples(
                targets, values, extras, self._route_bounds()
            )
            pair_bufs = self.codec.encode_pairs_many(
                targets, values, counts, self.ranges
            )
            send = [
                np.concatenate(
                    [np.array([pair_buf.size], dtype=np.int64), pair_buf, dst_extras]
                )
                if pair_buf.size
                else pair_buf
                for pair_buf, dst_extras in zip(
                    pair_bufs, np.split(extras, np.cumsum(counts)[:-1])
                )
            ]
            payload, wire = self._off_rank_words(3.0 * counts, send)
            self._charge_encode(float(targets.size), 3.0 * targets.size, wire)
        info = ExchangeInfo(int(targets.size), payload, wire, 0)
        return send, info

    def _decode_triples(
        self, pieces: list[np.ndarray], ctx: VertexRange
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Received triple buffers, decoded from one joined buffer.

        Each piece's header, pair frame and extra column are read at its
        offsets; the pair frames take one codec call and the extras one
        gather.  When that finds damage, the pieces are decoded again
        one at a time, so the :class:`CodecError` names the first
        damaged piece exactly as a piece-by-piece decode would — a
        joined codec decode reports on all its frames at once.
        """
        try:
            return self._decode_joined_triples(pieces, ctx)
        except CodecError:
            for piece in pieces:
                self._decode_joined_triples([piece], ctx)
            raise

    def _decode_joined_triples(self, pieces, ctx):
        words, starts, sizes = _joined(pieces)
        heads = words[starts].tolist()
        for pair_words, size in zip(heads, sizes):
            if pair_words < 0 or pair_words > size - 1:
                raise CodecError(
                    f"triple buffer header claims {pair_words} pair words "
                    f"but only {size - 1} words follow"
                )
        framed = [(at + 1, n) for at, n in zip(starts, heads) if n]
        targets, values, found = self.codec.decode_pairs_at(
            words, [at for at, _ in framed], [n for _, n in framed], ctx
        )
        found = iter(found)
        npairs = [next(found) if n else 0 for n in heads]
        for pair_words, size, count in zip(heads, sizes, npairs):
            if size - 1 - pair_words != count:
                raise CodecError(
                    f"triple buffer carries {size - 1 - pair_words} extra words "
                    f"for {count} pairs"
                )
        tails = [at + 1 + n for at, n in zip(starts, heads)]
        return targets, values, _cut(words, tails, npairs)

    def exchange_triples(
        self, send: list[np.ndarray], info: ExchangeInfo, level: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All-to-all the packed triple buffers and decode what arrives."""
        ctx = self.ranges[self.comm.rank]
        self._record("alltoallv", info, level)
        with self.obs.span("alltoallv", level=level, wire_words=info.wire_words):
            pieces = self.comm.alltoallv(send)
        with self.obs.span("decode", codec=self.codec.name):
            rt, rv, rx = self._decode_triples(pieces, ctx)
            self._charge_decode(
                float(rt.size),
                float(sum(np.asarray(p).size for p in pieces)),
            )
        return rt, rv, rx

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

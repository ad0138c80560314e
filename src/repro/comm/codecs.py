"""Pluggable wire-format codecs for the BFS exchange buffers.

The paper's cost model charges network time as ``words x beta_N``, so
every word shaved off a collective payload is modeled speedup.  Lv et
al. ("Compression and Sieve", arXiv:1208.5542) show that compressing
the frontier exchanges cuts BFS communication volume severalfold on
exactly this 1D/2D design, choosing each buffer's form by its density.
Two codec names reproduce that wire layer:

* ``raw`` — the identity format: interleaved ``[v0, p0, v1, p1, ...]``
  int64 pairs, plain vertex lists, packed 64-bit frontier bitmaps.  Wire
  words equal payload words; this is the pre-existing behaviour and the
  default.  One exception: a batched query's source run of more targets
  than its destination range's bitmap words ships as that bitmap, the
  form the bottom-up expand ships a dense frontier in (:class:`RunLayout`).
* ``auto`` — per-buffer polyalgorithm: ships each buffer in its smallest
  form (raw ``2 x count`` words, delta-varint's exact encoded size or,
  for a vertex set with a known range, its presence bitmap) behind a
  one-word tag naming the choice — Lv et al.'s selection by measured
  density, with the measurement exact rather than estimated.

``auto``'s main inner form is :class:`DeltaVarintCodec`: sort,
delta-encode the vertex ids, and LEB128-pack the interleaved (delta,
parent) stream, so sorted ids become 1-3 byte varints at benchmark
scales, against 8-byte raw words.  It is not a registered name; a
caller that wants it alone passes an instance.

**An exchange is one array of p segments.**  The paper's Algorithm 2
ships a level as a single ``Alltoallv`` send array with counts and
displacements, and the pair methods mirror that:
``encode_pairs_many(targets, parents, counts, ranges)`` takes the
owner-grouped candidate arrays plus per-destination counts and returns
one wire buffer per destination; ``decode_pairs_many(pieces, ctx)``
decodes everything a rank received.  Each is a fixed number of
whole-array passes over the exchange, whatever p: one sortedness check
and one ``varint_encode`` whose stream is sized per segment at its
terminal bytes and framed with one index; one join of the received
pieces, read at their offsets, and one ``varint_decode`` — the
140-level, tiny-frontier traversals are otherwise dominated by
per-buffer call overhead.  ``encode_pairs`` / ``decode_pairs`` are the
one-segment form of the same code.  The batched query's run exchange
ships its targets — ascending runs, one segment per destination —
through ``encode_runs_many`` / ``decode_runs_at`` the same way, the
delta restarting at every run; each side lays out its raw frames once
(:class:`RunLayout`), and raw packs every bitmap run in one pass, and
unpacks them in one.

Every codec encodes the empty payload as the empty buffer, and all
decoded (vertex, parent) multisets are identical to the input up to
ordering — the receivers' (select, max) deduplication makes the BFS
output bit-identical to the serial oracle under every codec.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from repro import kernels
from repro.core.frontier import bitmap_words, pack_frontier_bitmap, unpack_frontier_bitmap


class CodecError(ValueError):
    """A wire buffer failed decode validation (truncated or corrupted).

    Every decoder raises this — never silently decodes wrong vertex
    ids — when the buffer is structurally inconsistent: truncated
    headers or streams, count mismatches, unknown dispatch tags, or
    decoded ids outside the range both endpoints agreed on.  The range
    check is an input check on decode: a damaged or hostile buffer is
    rejected before any id it carries can index a rank's arrays.
    """


def _check_targets(targets: np.ndarray, ctx: VertexRange | None, name: str) -> None:
    """Validate decoded vertex ids against the agreed range, if usable.

    ``ctx.nbits == 0`` marks a degenerate/unknown range (a rank that
    owns nothing), so only positive widths are enforceable.
    """
    if ctx is None or ctx.nbits <= 0 or targets.size == 0:
        return
    lo, hi = ctx.lo, ctx.lo + ctx.nbits
    if int(targets.min()) < lo or int(targets.max()) >= hi:
        raise CodecError(
            f"corrupt {name} buffer: decoded vertex id outside [{lo}, {hi})"
        )


@dataclass(frozen=True)
class VertexRange:
    """Contiguous global-id range ``[lo, lo + nbits)`` owned by one rank.

    ``auto`` checks packed targets against it and sizes a vertex set's
    presence bitmap from it; dense sets need it for their bitmap.
    """

    lo: int
    nbits: int

    def __post_init__(self):
        if self.nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {self.nbits}")


def _concat_pairs(decoded) -> tuple[np.ndarray, np.ndarray]:
    """Join decoded ``(targets, parents)`` runs in order."""
    if not decoded:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if len(decoded) == 1:
        return decoded[0]
    return (
        np.concatenate([t for t, _ in decoded]),
        np.concatenate([p for _, p in decoded]),
    )


def _joined(pieces):
    """The non-empty received pieces as one int64 word array, and each
    one's offset and length in it (python ints)."""
    pieces = [piece for piece in pieces if len(piece)]
    sizes = [len(piece) for piece in pieces]
    words = np.concatenate(pieces or [[]]).astype(np.int64, copy=False)
    return words, list(accumulate(sizes, initial=0))[:-1], sizes


def _cut(words, starts, sizes) -> np.ndarray:
    """The runs ``words[starts[k] : starts[k] + sizes[k]]``, back to back:
    ``words`` itself when they tile it."""
    if list(starts) == list(accumulate(sizes, initial=0))[:-1] and sum(sizes) == words.size:
        return words
    runs = [words[at : at + n] for at, n in zip(starts, sizes)]
    return runs[0] if len(runs) == 1 else np.concatenate(runs or [words[:0]])


def _as_segments(targets, parents, counts, ranges):
    """Validate one exchange: grouped pairs, per-segment counts and ranges.

    Returns the arrays as int64, the counts, the ranges (``None``: none
    known) and each segment's start in the grouped arrays (python ints).
    """
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    if targets.shape != parents.shape:
        raise ValueError("targets/parents must be equal length")
    counts = np.asarray(counts, dtype=np.int64)
    counts = counts.tolist() if counts.ndim == 1 else None
    if counts is None or min(counts, default=0) < 0 or sum(counts) != targets.size:
        raise ValueError(
            f"segment counts must be non-negative and sum to the "
            f"{targets.size} pairs"
        )
    if ranges is None:
        ranges = (None,) * len(counts)
    elif len(ranges) != len(counts):
        raise ValueError(
            f"need one VertexRange per segment: {len(ranges)} != {len(counts)}"
        )
    return targets, parents, counts, ranges, list(accumulate(counts, initial=0))[:-1]


def _sort_segments(targets, parents, counts, starts):
    """Order every segment by (vertex, parent), segments staying in place.

    Exchange buffers nearly always arrive that way (the dedup emits
    ascending targets and ownership is monotone), so one adjacent
    compare usually settles it; one ``lexsort`` runs only when it fails.
    """
    if targets.size < 2:
        return targets, parents
    prev_t, next_t = targets[:-1], targets[1:]
    ordered = prev_t < next_t
    if ordered.all():
        return targets, parents
    ordered |= (prev_t == next_t) & (parents[:-1] <= parents[1:])
    if not ordered.all():
        # A pair that straddles two segments constrains nothing.
        ordered[[at - 1 for at in starts if 0 < at < targets.size]] = True
        if not ordered.all():
            segment = np.repeat(np.arange(len(counts)), counts)
            order = np.lexsort((parents, targets, segment))
            targets, parents = targets[order], parents[order]
    return targets, parents


def _varint_plan(targets, parents, counts, starts):
    """Encode a whole exchange as delta-varint, once.

    Returns the targets in shipping order (each segment sorted), the
    varint stream of the interleaved (vertex delta, parent) values, the
    delta restarting at every segment start, and each segment's byte
    count, read off the stream at its last value's terminal byte.
    """
    targets, parents = _sort_segments(targets, parents, counts, starts)
    deltas = kernels.delta_encode(targets)
    first = [at for at, count in zip(starts, counts) if count]
    deltas[first] = targets[first]
    stream = kernels.varint_encode(kernels.pack_pairs(deltas, parents))
    terminal = (stream < 0x80).nonzero()[0]
    ends = [2 * (at + count) for at, count in zip(starts, counts)]
    cuts = [0] + [int(terminal[end - 1]) + 1 if end else 0 for end in ends]
    return targets, stream, [hi - lo for lo, hi in zip(cuts, cuts[1:])]


def _undelta_segments(deltas: np.ndarray, counts: list[int]) -> np.ndarray:
    """Inverse of the per-segment delta: running sums restarting per segment.

    A segment's deltas sum to its last value, so taking the previous
    segment's sum off each later segment's absolute first delta (in
    place) makes one running sum, wrapping like it, restart per segment.
    """
    firsts = [at for at, count in zip(accumulate(counts, initial=0), counts) if count]
    if len(firsts) > 1:
        firsts = np.array(firsts)
        deltas[firsts[1:]] -= np.add.reduceat(deltas, firsts)[:-1]
    return kernels.delta_decode(deltas)


def _varint_frames(stream, heads, nbytes) -> list[np.ndarray]:
    """Cut one varint byte stream into per-segment wire buffers.

    Segment ``s`` owns the next ``nbytes[s]`` bytes of ``stream`` and
    ships its header words ``heads[s]`` followed by its bytes zero-padded
    to whole words; a segment without header words owns no bytes and
    ships the empty buffer.  Every frame is a slice of one array, its
    headers and its bytes each written by one index.
    """
    sizes = [len(head) + (n + 7) // 8 if head else 0 for head, n in zip(heads, nbytes)]
    starts = list(accumulate(sizes, initial=0))
    out = np.zeros(starts[-1], dtype=np.int64)
    out[[at + k for at, head in zip(starts, heads) for k in range(len(head))]] = [
        word for head in heads for word in head
    ]
    # Stream byte i lands at its segment's body start plus its offset in it.
    shift = [
        8 * (at + len(head)) - done
        for at, head, done in zip(starts, heads, accumulate(nbytes, initial=0))
    ]
    at = np.array(shift, dtype=np.int64).repeat(nbytes) + np.arange(stream.size)
    out.view(np.uint8)[at] = stream
    return [out[lo:hi] for lo, hi in zip(starts, starts[1:])]


#: A run width past any run's length: the cap of a range with no bitmap.
_UNBOUNDED = int(np.iinfo(np.int64).max)


def _run_starts(lengths) -> np.ndarray:
    """Each run's first position in the values the runs ``lengths`` cut."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.cumsum(lengths) - lengths


@dataclass(frozen=True, eq=False)
class RunLayout:
    """One side's raw run frames, decided once per exchange (:meth:`build`).

    Segment ``s`` holds the next ``counts[s]`` values of the runs
    ``lengths`` inside ``ranges[s]`` (``None``: unknown).  A run of ``L``
    values into a range ``B = bitmap_words(nbits)`` words wide takes
    ``widths = min(L, B)`` raw words: it ships as the range's bitmap iff
    ``L > B`` (the mask ``bitmap``; ``first`` and ``seg`` hold those
    runs' first value positions and segments), and segment ``s``'s raw
    frame is its runs' widths back to back, ``sizes[s]`` words.  The
    runs of an unknown or empty range ship their values.
    """

    lengths: np.ndarray
    counts: list[int]
    ranges: list[VertexRange | None]
    widths: np.ndarray
    bitmap: np.ndarray
    sizes: list[int]
    first: np.ndarray
    seg: np.ndarray

    @classmethod
    def build(cls, lengths, counts, ranges=None) -> RunLayout:
        lengths = np.asarray(lengths, dtype=np.int64)
        ranges = [None] * len(counts) if ranges is None else list(ranges)
        caps = [bitmap_words(r.nbits) if r is not None and r.nbits else _UNBOUNDED for r in ranges]
        if len(set(caps)) > 1:
            seg = np.searchsorted(np.cumsum(counts), _run_starts(lengths), side="right")
            widths = np.minimum(lengths, np.array(caps)[seg])
        else:
            widths = np.minimum(lengths, caps[0] if caps else _UNBOUNDED)
        bitmap = widths < lengths
        if not bitmap.any():
            return cls(lengths, counts, ranges, widths, bitmap, counts, lengths[:0], lengths[:0])
        first = _run_starts(lengths)[bitmap]
        seg = np.searchsorted(np.cumsum(counts), first, side="right")
        saved = np.bincount(seg, weights=(lengths - widths)[bitmap], minlength=len(counts))
        sizes = [count - int(n) for count, n in zip(counts, saved.tolist())]
        return cls(lengths, counts, ranges, widths, bitmap, sizes, first, seg)

    def take(self, segments: Sequence[int], runs: np.ndarray) -> RunLayout:
        """The segments ``segments`` alone, their runs picked by the mask ``runs``."""
        counts, ranges, sizes = (
            [column[s] for s in segments] for column in (self.counts, self.ranges, self.sizes)
        )
        lengths, bitmap = self.lengths[runs], self.bitmap[runs]
        first = _run_starts(lengths)[bitmap]
        seg = np.searchsorted(np.cumsum(counts), first, side="right")
        return RunLayout(lengths, counts, ranges, self.widths[runs], bitmap, sizes, first, seg)

    def ranges_at(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The range start and width in bits (0 if unknown) of the
        segment holding each of the value positions ``at``."""
        return self._range_columns(np.searchsorted(np.cumsum(self.counts), at, side="right"))

    def _range_columns(self, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        known = [(0, 0) if r is None else (r.lo, r.nbits) for r in self.ranges]
        lo, nbits = np.array(known, dtype=np.int64).reshape(-1, 2).T
        return lo[seg], nbits[seg]

    def bitmap_runs(self):
        """The bitmap runs' lengths and widths, their first values'
        positions among the runs' values, their first words' in the raw
        frames back to back, and their ranges' starts and bit widths."""
        length, width = self.lengths[self.bitmap], self.widths[self.bitmap]
        saved = length - width
        at = self.first - (np.cumsum(saved) - saved)
        return (length, width, self.first, at, *self._range_columns(self.seg))


def _swap_runs(a, starts, skip, b, sizes) -> np.ndarray:
    """``a`` with each stretch ``a[starts[k] : starts[k] + skip[k]]``
    (ascending, disjoint) swapped for the next ``sizes[k]`` values of
    ``b``: one ``concatenate`` of slices."""
    keep, stop = [0] + (starts + skip).tolist(), starts.tolist() + [a.size]
    cuts = list(accumulate(sizes.tolist(), initial=0))
    pieces = [a[: stop[0]]]
    for lo, hi, at, end in zip(cuts, cuts[1:], keep[1:], stop[1:]):
        pieces += (b[lo:hi], a[at:end])
    return np.concatenate(pieces)


def _run_varint_plan(values, layout: RunLayout):
    """Encode a whole run exchange as delta-varint, once.

    Each run's first value ships as its offset from the segment's range
    start (0 when the range is unknown) and the rest as differences from
    their predecessor, so ascending runs in a narrow range become 1-2
    byte varints.  Returns the stream and each segment's byte count,
    read off the stream at its last value's terminal byte.
    """
    deltas = kernels.delta_encode(values)
    starts = _run_starts(layout.lengths)
    if starts.size:
        deltas[starts] = values[starts] - layout.ranges_at(starts)[0]
    stream = kernels.varint_encode(deltas)
    terminal = (stream < 0x80).nonzero()[0]
    cuts = [0] + [int(terminal[end - 1]) + 1 if end else 0 for end in accumulate(layout.counts)]
    return stream, [hi - lo for lo, hi in zip(cuts, cuts[1:])]


def _undelta_runs(deltas: np.ndarray, layout: RunLayout) -> np.ndarray:
    """Inverse of :func:`_run_varint_plan`'s deltas: each run's range
    start added back to its first delta, then a running sum restarting
    at every run (as :func:`_undelta_segments` restarts per segment)."""
    starts = _run_starts(layout.lengths)
    if starts.size:
        deltas[starts] += layout.ranges_at(starts)[0]
    if starts.size > 1:
        deltas[starts[1:]] -= np.add.reduceat(deltas, starts)[:-1]
    return kernels.delta_decode(deltas)


def _pack_bits(bits: np.ndarray, nwords: int) -> np.ndarray:
    """The ``nwords``-word bitmap with the positions ``bits`` set, as
    ``int64`` words: one ``packbits`` pass."""
    grid = np.zeros(64 * nwords, dtype=bool)
    grid[bits] = True
    return np.packbits(grid, bitorder="little").view(np.int64)


def _unpack_bits(words: np.ndarray) -> np.ndarray:
    """The set bit positions of a bitmap's words, ascending: one
    ``unpackbits`` over its non-zero bytes."""
    octets = np.ascontiguousarray(words).view(np.uint8)
    touched = np.flatnonzero(octets != 0)
    found = np.flatnonzero(np.unpackbits(octets[touched], bitorder="little").view(bool))
    return 8 * touched[found >> 3] + (found & 7)


def _check_run_counts(found, counts) -> None:
    """Raise :class:`CodecError` unless every run frame held the values
    its runs need."""
    for got, want in zip(found, counts):
        if got != want:
            raise CodecError(
                f"corrupt run buffer: run lengths sum to {want} for {got} targets"
            )


def bytes_to_words(stream: np.ndarray) -> np.ndarray:
    """Pad a byte stream to a whole number of 64-bit wire words."""
    stream = np.ascontiguousarray(stream, dtype=np.uint8)
    nwords = (stream.size + 7) // 8
    padded = np.zeros(8 * nwords, dtype=np.uint8)
    padded[: stream.size] = stream
    return padded.view(np.int64)


class Codec:
    """Wire-format interface: (vertex, parent) pairs and vertex sets.

    ``ctx`` carries the :class:`VertexRange` both endpoints agree on for
    the buffer (the destination's owned range for pair exchanges, the
    contributor's range for frontier gathers); codecs that do not need it
    accept ``None``.  ``dense=True`` marks exchange sites whose *payload*
    baseline is a packed bitmap (the bottom-up expand) rather than a
    vertex list.

    Pairs come in two forms.  ``encode_pairs_many`` / ``decode_pairs_many``
    handle a whole exchange — the grouped send array with one count and
    one range per destination, or every piece a rank received — and are
    what :class:`~repro.comm.channel.CommChannel` calls; ``encode_pairs``
    / ``decode_pairs`` handle one buffer, as the one-segment case.
    ``decode_pairs_at`` decodes pair frames that sit at known offsets of
    one joined buffer — the run exchange's pieces, each a header, a
    ``(source, run length)`` pair frame, lane words and targets — and
    also says how many pairs each frame held.  A codec implements ``encode_pairs_many`` and one of
    ``decode_pairs`` / ``decode_pairs_many``.

    The run exchange's targets ship through ``encode_runs_many`` /
    ``decode_runs_at``: values cut into runs, each run strictly
    ascending, so a codec may delta-code them restarting at every run,
    or ship a run as its range's bitmap, as the :class:`RunLayout` says.
    """

    name: str = "abstract"

    def encode_pairs(
        self, targets: np.ndarray, parents: np.ndarray, ctx: VertexRange | None = None
    ) -> np.ndarray:
        return self.encode_pairs_many(targets, parents, [len(targets)], [ctx])[0]

    def decode_pairs(
        self, wire: np.ndarray, ctx: VertexRange | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.decode_pairs_many([wire], ctx)

    def encode_pairs_many(
        self,
        targets: np.ndarray,
        parents: np.ndarray,
        counts: np.ndarray,
        ranges: Sequence[VertexRange | None] | None = None,
    ) -> list[np.ndarray]:
        """Encode an exchange: segment ``s`` is the next ``counts[s]`` pairs.

        Returns one wire buffer per segment, each identical to
        ``encode_pairs`` of that segment under ``ranges[s]``.
        """
        raise NotImplementedError

    def decode_pairs_many(
        self, pieces: Sequence[np.ndarray], ctx: VertexRange | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode received pieces into their concatenated (targets, parents)."""
        return _concat_pairs([self.decode_pairs(piece, ctx) for piece in pieces])

    def decode_pairs_at(
        self,
        words: np.ndarray,
        starts: Sequence[int],
        sizes: Sequence[int],
        ctx: VertexRange | None = None,
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Decode the non-empty frames ``words[starts[f] : starts[f] +
        sizes[f]]`` of one joined int64 buffer.

        Returns their concatenated ``(targets, parents)`` and the number
        of pairs each frame held (python ints).  Raises what decoding
        each frame alone raises.
        """
        decoded = [self.decode_pairs(words[at : at + n], ctx) for at, n in zip(starts, sizes)]
        return (*_concat_pairs(decoded), [t.size for t, _ in decoded])

    def encode_runs_many(self, values: np.ndarray, layout: RunLayout) -> list[np.ndarray]:
        """Encode the runs of an exchange: segment ``s`` is the next
        ``layout.counts[s]`` values, a whole number of the runs
        ``layout.lengths``, every run strictly ascending inside
        ``layout.ranges[s]``.  Returns one frame per segment, empty for
        an empty segment; a raw frame is ``layout.sizes[s]`` words, its
        ``bitmap`` runs shipping as their range's bitmap.
        """
        raise NotImplementedError

    def decode_runs_at(
        self,
        words: np.ndarray,
        starts: Sequence[int],
        sizes: Sequence[int],
        layout: RunLayout,
    ) -> np.ndarray:
        """Decode the run frames ``words[starts[f] : starts[f] + sizes[f]]``
        of one joined int64 buffer, frame ``f`` holding segment ``f`` of
        ``layout``, into their values back to back (int64).  Raises
        :class:`CodecError` when a frame does not hold exactly its values.
        """
        raise NotImplementedError

    def encode_set(
        self, vertices: np.ndarray, ctx: VertexRange | None = None, dense: bool = False
    ) -> np.ndarray:
        raise NotImplementedError

    def decode_set(
        self, wire: np.ndarray, ctx: VertexRange | None = None, dense: bool = False
    ) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class RawCodec(Codec):
    """Identity wire format: what the algorithms shipped before codecs."""

    name = "raw"

    def encode_pairs_many(self, targets, parents, counts, ranges=None):
        # One interleave for the whole exchange; the buffers are its slices.
        targets, parents, counts, _ranges, starts = _as_segments(
            targets, parents, counts, ranges
        )
        wire = kernels.pack_pairs(targets, parents)
        return [wire[2 * lo : 2 * (lo + n)] for lo, n in zip(starts, counts)]

    def decode_pairs(self, wire, ctx=None):
        wire = np.asarray(wire, dtype=np.int64)
        if wire.size % 2:
            raise CodecError(
                f"corrupt raw pair buffer: odd word count {wire.size}"
            )
        targets, parents = kernels.unpack_pairs(wire)
        _check_targets(targets, ctx, self.name)
        return targets, parents

    def decode_pairs_at(self, words, starts, sizes, ctx=None):
        # Every frame's words cut out as one array, unpacked at once.
        odd = [size for size in sizes if size % 2]
        if odd:
            raise CodecError(f"corrupt raw pair buffer: odd word count {odd[0]}")
        targets, parents = kernels.unpack_pairs(_cut(words, starts, sizes))
        _check_targets(targets, ctx, self.name)
        return targets, parents, [size // 2 for size in sizes]

    def encode_runs_many(self, values, layout):
        # The layout's bitmap runs ship as their range's bitmap; the
        # receiver's layout says which runs do, so no tag says so.
        values = np.asarray(values, dtype=np.int64)
        cuts = list(accumulate(layout.sizes, initial=0))
        if not layout.bitmap.any():
            return [values[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        # Every bitmap run of the exchange is packed by one pass.
        length, width, first, at, los, nbits = layout.bitmap_runs()
        offsets = values[kernels.range_gather(first, length)] - np.repeat(los, length)
        if offsets.min() < 0 or (offsets >= np.repeat(nbits, length)).any():
            raise ValueError("run targets out of their destination's range")
        # Run k's bitmap starts at word sum(width[:k]) of one bitmap.
        bits = offsets + np.repeat(64 * _run_starts(width), length)
        if (bits[1:] <= bits[:-1]).any():
            raise ValueError(
                "bitmap runs must ascend strictly: a bitmap cannot carry a repeated target"
            )
        body = _swap_runs(values, first, length, _pack_bits(bits, int(width.sum())), width)
        return [body[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def decode_runs_at(self, words, starts, sizes, layout):
        for got, need in zip(sizes, layout.sizes):
            if got != need:
                raise CodecError(
                    f"corrupt run buffer: a {got}-word raw run frame for runs "
                    f"of {need} words"
                )
        body = _cut(words, starts, sizes)
        if not layout.bitmap.any():
            return body
        # Every bitmap run of the exchange is unpacked by one pass.
        length, width, _first, at, los, nbits = layout.bitmap_runs()
        bitmaps = body[kernels.range_gather(at, width)]
        base = _run_starts(width)
        found = np.add.reduceat(kernels.popcount(bitmaps.view(np.uint64)), base)
        short = np.flatnonzero(found != length)
        if short.size:
            k = int(short[0])
            raise CodecError(
                f"corrupt run buffer: a bitmap run of {int(length[k])} "
                f"targets sets {int(found[k])} bits"
            )
        # Run k's bitmap is the unpacked bits from 64 * base[k] on, and
        # its last value the highest.
        bits = _unpack_bits(bitmaps)
        base *= 64
        last = bits[np.cumsum(length) - 1] - base
        over = np.flatnonzero(last >= nbits)
        if over.size:
            k = int(over[np.argmax(last[over])])
            raise CodecError(
                f"corrupt run buffer: bitmap bit {int(last[k])} past the "
                f"{int(nbits[k])}-bit range"
            )
        return _swap_runs(body, at, width, bits - np.repeat(base - los, length), length)

    def encode_set(self, vertices, ctx=None, dense=False):
        vertices = np.asarray(vertices, dtype=np.int64)
        if not dense:
            return vertices
        if ctx is None:
            raise ValueError("dense set encoding requires a VertexRange ctx")
        return pack_frontier_bitmap(vertices, ctx.lo, ctx.nbits).view(np.int64)

    def decode_set(self, wire, ctx=None, dense=False):
        wire = np.asarray(wire, dtype=np.int64)
        if not dense:
            _check_targets(wire, ctx, self.name)
            return wire
        if ctx is None:
            raise ValueError("dense set decoding requires a VertexRange ctx")
        if wire.size != bitmap_words(ctx.nbits):
            raise CodecError(
                f"corrupt raw set buffer: {wire.size} bitmap words for "
                f"a {ctx.nbits}-bit range"
            )
        mask = unpack_frontier_bitmap(wire.view(np.uint64), ctx.nbits)
        return np.flatnonzero(mask).astype(np.int64) + ctx.lo


class DeltaVarintCodec(Codec):
    """Sort + delta + LEB128 varint packing of the pair wire format.

    Pairs are sorted by (vertex, parent); the varint stream interleaves
    vertex deltas with absolute parents, so the decoded multiset matches
    the input exactly.  Vertex ids must be non-negative (BFS ids always
    are); parents may be any int64 and round-trip through the unsigned
    varint view.

    A whole exchange is one varint stream (deltas restarting at every
    segment start), encoded once and cut where each segment's last value
    ends; decoding joins the received pieces, decodes their streams
    once, and holds every piece to its own byte and value counts, so no
    varint can straddle two pieces.
    """

    name = "delta-varint"

    #: Wire layout: ``[count, nbytes, packed varint words...]``.
    HEADER_WORDS = 2

    def encode_pairs_many(self, targets, parents, counts, ranges=None):
        targets, parents, counts, _ranges, starts = _as_segments(
            targets, parents, counts, ranges
        )
        _ordered, stream, nbytes = _varint_plan(targets, parents, counts, starts)
        heads = [(count, n) if count else () for count, n in zip(counts, nbytes)]
        return _varint_frames(stream, heads, nbytes)

    def _decode_frames(self, words, starts, sizes, per_item: int):
        """Decode the frames ``words[starts[f] : starts[f] + sizes[f]]``.

        Returns the values of all frames back to back and each header's
        item count.  Every frame must be exactly its header plus
        ``ceil(nbytes / 8)`` words, end on a terminal byte and hold
        ``per_item`` values per item in its own bytes, so the joined
        stream decodes as the frames would one by one.
        """
        heads = self.HEADER_WORDS
        if min(sizes) < heads:
            raise CodecError(
                f"corrupt delta-varint buffer: truncated header ({min(sizes)} words)"
            )
        header = words[[at + k for at in starts for k in range(heads)]].tolist()
        claimed, nbytes = header[0::heads], header[1::heads]
        if any(n < 0 or size != heads + (n + 7) // 8 for n, size in zip(nbytes, sizes)):
            raise CodecError(
                f"corrupt delta-varint buffer: {list(sizes)} words do not "
                f"frame {nbytes}-byte streams"
            )
        # Every frame's bytes, in frame order, cut from the joined words.
        octets = words.view(np.uint8)
        stream = np.concatenate(
            [octets[8 * (at + heads) :][:n] for at, n in zip(starts, nbytes)]
        )
        # Terminal bytes before each frame's end and before its last byte:
        # a frame ends on a terminal byte iff the two counts differ.
        ends = list(accumulate(nbytes))
        seen = (stream < 0x80).nonzero()[0].searchsorted(ends + [e - 1 for e in ends])
        at_end, before_last = seen[: len(ends)].tolist(), seen[len(ends) :].tolist()
        if any(n and a == b for n, a, b in zip(nbytes, at_end, before_last)):
            raise CodecError(
                "corrupt delta-varint buffer: truncated varint stream "
                "(last byte has continuation bit)"
            )
        try:
            values = kernels.varint_decode(stream)
        except ValueError as exc:
            raise CodecError(f"corrupt delta-varint buffer: {exc}") from None
        found = [end - begin for begin, end in zip([0] + at_end, at_end)]
        if found != [per_item * count for count in claimed]:
            raise CodecError(
                f"corrupt delta-varint buffer: {found} values for "
                f"{claimed} items of {per_item}"
            )
        return values, claimed

    def decode_pairs_at(self, words, starts, sizes, ctx=None):
        if not sizes:
            return (*_concat_pairs([]), [])
        seq, npairs = self._decode_frames(words, starts, sizes, per_item=2)
        targets = _undelta_segments(seq[0::2], npairs)
        _check_targets(targets, ctx, self.name)
        return targets, seq[1::2], npairs

    def decode_pairs_many(self, pieces, ctx=None):
        return self.decode_pairs_at(*_joined(pieces), ctx)[:2]

    def encode_runs_many(self, values, layout):
        values = np.asarray(values, dtype=np.int64)
        stream, nbytes = _run_varint_plan(values, layout)
        heads = [(count, n) if count else () for count, n in zip(layout.counts, nbytes)]
        return _varint_frames(stream, heads, nbytes)

    def decode_runs_at(self, words, starts, sizes, layout):
        # An empty frame holds no values; the others say how many.
        counts = layout.counts
        _check_run_counts([count if size else 0 for size, count in zip(sizes, counts)], counts)
        framed = [(at, size, count) for at, size, count in zip(starts, sizes, counts) if size]
        if not framed:
            return words[:0].astype(np.int64)
        at, size, want = zip(*framed)
        deltas, claimed = self._decode_frames(words, at, size, per_item=1)
        _check_run_counts(claimed, want)
        return _undelta_runs(deltas, layout)

    def encode_set(self, vertices, ctx=None, dense=False):
        vertices = np.sort(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        stream = kernels.varint_encode(kernels.delta_encode(vertices))
        header = np.array([vertices.size, stream.size], dtype=np.int64)
        return np.concatenate([header, bytes_to_words(stream)])

    def decode_set(self, wire, ctx=None, dense=False):
        wire = np.ascontiguousarray(wire, dtype=np.int64)
        if wire.size == 0:
            return np.empty(0, dtype=np.int64)
        deltas, _count = self._decode_frames(wire, [0], [wire.size], per_item=1)
        vertices = kernels.delta_decode(deltas)
        _check_targets(vertices, ctx, self.name)
        return vertices


def _check_owned(first: int, last: int, ctx: VertexRange | None) -> bool:
    """Whether ``ctx`` is a known range, once ``[first, last]`` is inside it.

    A target outside its destination's range is a bucketing bug, caught
    at pack time whichever form ships.  ``None`` or ``nbits == 0`` marks
    an unknown range, which cannot be checked.
    """
    if ctx is None or ctx.nbits <= 0:
        return False
    if first < ctx.lo or last >= ctx.lo + ctx.nbits:
        raise ValueError(
            f"vertices out of owned range [{ctx.lo}, {ctx.lo + ctx.nbits})"
        )
    return True


class AutoCodec(Codec):
    """Per-buffer codec polyalgorithm, mirroring the SpMSV kernel choice.

    Each buffer ships in whichever candidate form is smallest, prefixed
    by a one-word tag naming the winner so the receiver can dispatch;
    ties go to the lowest tag.  Sparse exchange levels pick
    delta-varint, while single-pair or adversarial payloads (huge ids
    with wide deltas) fall back to raw — the per-level density
    measurement the compression literature uses, done exactly rather
    than by estimate.

    The sizes are exact: raw is ``2 x count`` words (a set: its length,
    or the range's bitmap when dense), delta-varint its header plus
    ``ceil(bytes / 8)`` — for pairs read off the one stream the whole
    exchange is encoded into, for a set from one ``varint_sizes`` pass.
    A sparse vertex set with a known range has a third form, ``BITMAP``:
    raw's dense image of the set, ``bitmap_words(nbits)`` words, which
    wins on dense frontier pieces.  Pairs have no bitmap form, so a pair
    buffer tagged ``BITMAP`` is corrupt.
    """

    name = "auto"

    #: Wire tags, in tie-break order; ``BITMAP`` tags vertex sets only.
    RAW, DELTA_VARINT, BITMAP = range(3)

    def __init__(self):
        self._forms: tuple[Codec, ...] = (RawCodec(), DeltaVarintCodec())

    def _inner(self, tag: int) -> Codec:
        if not 0 <= tag < len(self._forms):
            raise CodecError(f"corrupt auto buffer: unknown codec tag {tag}")
        return self._forms[tag]

    @staticmethod
    def _tagged(tag: int, body: np.ndarray) -> np.ndarray:
        return np.concatenate([np.array([tag], dtype=np.int64), body])

    @staticmethod
    def _untagged(wire: np.ndarray) -> tuple[int, np.ndarray]:
        if wire.size < 2:
            raise CodecError("corrupt auto buffer: codec tag without a body")
        return int(wire[0]), wire[1:]

    def encode_pairs_many(self, targets, parents, counts, ranges=None):
        targets, parents, counts, ranges, starts = _as_segments(
            targets, parents, counts, ranges
        )
        ordered, stream, nbytes = _varint_plan(targets, parents, counts, starts)
        live = [s for s, count in enumerate(counts) if count]
        firsts = ordered[[starts[s] for s in live]].tolist()
        lasts = ordered[[starts[s] + counts[s] - 1 for s in live]].tolist()
        for s, first, last in zip(live, firsts, lasts):
            _check_owned(first, last, ranges[s])
        # Delta-varint must undercut raw's 2 x count words; ties keep raw
        # (and an empty segment, whose 0 words no header undercuts).
        varint = [
            DeltaVarintCodec.HEADER_WORDS + (n + 7) // 8 < 2 * count
            for n, count in zip(nbytes, counts)
        ]
        raw = [s for s in live if not varint[s]]
        if raw:
            stream = stream[np.repeat(varint, nbytes)]
            nbytes = [n if keep else 0 for n, keep in zip(nbytes, varint)]
        heads = [
            (self.DELTA_VARINT, count, n) if keep else ()
            for count, n, keep in zip(counts, nbytes, varint)
        ]
        frames = _varint_frames(stream, heads, nbytes)
        for s in raw:
            lo, hi = starts[s], starts[s] + counts[s]
            frames[s] = self._tagged(
                self.RAW, kernels.pack_pairs(targets[lo:hi], parents[lo:hi])
            )
        return frames

    def decode_pairs_many(self, pieces, ctx=None):
        return self.decode_pairs_at(*_joined(pieces), ctx)[:2]

    def decode_pairs_at(self, words, starts, sizes, ctx=None):
        # Each run of neighbouring frames with the same tag decodes
        # together — on a sparse level that is every frame, in one pass.
        if sizes and min(sizes) < 2:
            raise CodecError("corrupt auto buffer: codec tag without a body")
        tags = words[list(starts)].tolist()  # a tuple would index axes
        decoded, npairs = [], []
        for tag, run in groupby(zip(tags, starts, sizes), key=lambda piece: piece[0]):
            inner = self._inner(tag)
            bodies = [(at + 1, size - 1) for _tag, at, size in run]
            if tag == self.RAW:
                raw = [inner.decode_pairs(words[at : at + n], ctx) for at, n in bodies]
                decoded += raw
                npairs += [t.size for t, _ in raw]
            else:
                targets, parents, counts = inner.decode_pairs_at(words, *zip(*bodies), ctx)
                decoded.append((targets, parents))
                npairs += counts
        return (*_concat_pairs(decoded), npairs)

    def encode_runs_many(self, values, layout):
        # Run frames carry no tag: the receiver's layout gives each
        # frame's raw size, and a frame is raw iff it is that many words
        # — delta-varint ships only when it is smaller.
        values = np.asarray(values, dtype=np.int64)
        frames = self._forms[self.RAW].encode_runs_many(values, layout)
        stream, nbytes = _run_varint_plan(values, layout)
        varint = [
            DeltaVarintCodec.HEADER_WORDS + (n + 7) // 8 < size
            for n, size in zip(nbytes, layout.sizes)
        ]
        if any(varint):
            stream = stream[np.repeat(varint, nbytes)]
            nbytes = [n if keep else 0 for n, keep in zip(nbytes, varint)]
            heads = [(c, n) if keep else () for c, n, keep in zip(layout.counts, nbytes, varint)]
            for s, frame in enumerate(_varint_frames(stream, heads, nbytes)):
                if varint[s]:
                    frames[s] = frame
        return frames

    def decode_runs_at(self, words, starts, sizes, layout):
        raw, varint = self._forms
        packed = [size < want for size, want in zip(sizes, layout.sizes)]
        if not any(packed):
            return raw.decode_runs_at(words, starts, sizes, layout)
        # Each form decodes its own frames, of its own runs, in one call.
        in_varint = np.repeat(packed, layout.counts)
        run_in_varint = in_varint[_run_starts(layout.lengths)]
        values = np.empty(in_varint.size, dtype=np.int64)
        for form, is_varint in ((raw, False), (varint, True)):
            frames = [f for f, p in enumerate(packed) if p == is_varint]
            at, size = [starts[f] for f in frames], [sizes[f] for f in frames]
            runs = layout.take(frames, run_in_varint == is_varint)
            values[in_varint == is_varint] = form.decode_runs_at(words, at, size, runs)
        return values

    def encode_set(self, vertices, ctx=None, dense=False):
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        ordered = np.sort(vertices)
        words = {}
        if not (dense and ctx is None):
            words[self.RAW] = bitmap_words(ctx.nbits) if dense else vertices.size
        nbytes = int(kernels.varint_sizes(kernels.delta_encode(ordered)).sum())
        words[self.DELTA_VARINT] = DeltaVarintCodec.HEADER_WORDS + (nbytes + 7) // 8
        if _check_owned(int(ordered[0]), int(ordered[-1]), ctx):
            words[self.BITMAP] = bitmap_words(ctx.nbits)
        tag = min(words, key=lambda tag: (words[tag], tag))
        if tag == self.BITMAP:
            return self._tagged(tag, self._forms[self.RAW].encode_set(vertices, ctx, True))
        return self._tagged(tag, self._forms[tag].encode_set(vertices, ctx, dense))

    def decode_set(self, wire, ctx=None, dense=False):
        wire = np.asarray(wire, dtype=np.int64)
        if wire.size == 0:
            return np.empty(0, dtype=np.int64)
        tag, body = self._untagged(wire)
        if tag == self.BITMAP:
            tag, dense = self.RAW, True
        return self._inner(tag).decode_set(body, ctx, dense)


#: Codec registry: name -> factory.  ``DeltaVarintCodec`` is ``auto``'s
#: main inner form, not a name; a caller that wants it alone passes an
#: instance, which every codec argument accepts.
CODECS: dict[str, type[Codec]] = {
    RawCodec.name: RawCodec,
    AutoCodec.name: AutoCodec,
}


def get_codec(codec: str | Codec) -> Codec:
    """Resolve a codec name (or pass an instance through)."""
    if isinstance(codec, Codec):
        return codec
    try:
        return CODECS[codec]()
    except KeyError:
        raise ValueError(
            f"unknown codec {codec!r}; known: {sorted(CODECS)}"
        ) from None

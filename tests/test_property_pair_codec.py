"""The delta-varint pair exchange against its executable specification.

The varint kernels build each stream from one (byte position, value)
grid and the ``auto`` / delta-varint pair codecs size an exchange off
its one encoded stream, frame it with one index per part and decode
every received piece from one joined buffer.  The formulations they
replaced are kept below as oracles, verbatim but for names: the kernels'
masked pass per byte position, the exchange planned from a separate
``varint_sizes`` pass, the per-segment framing loop and the piece-by-piece
untag and stream join.  Every property holds the current code to them
byte for byte — frames, decoded arrays and dtypes — and, for damaged
buffers, to the same exception type and message: the goldens, modeled
wire words and the decoders' input checks hang off these bytes.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.comm.codecs import (
    AutoCodec,
    CodecError,
    DeltaVarintCodec,
    RawCodec,
    VertexRange,
    _check_owned,
    _check_targets,
    _concat_pairs,
)

from tests.conftest import corrupt_pieces

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
MAX_VARINT_BYTES = 10
HEADER_WORDS = DeltaVarintCodec.HEADER_WORDS
RAW, DELTA_VARINT = AutoCodec.RAW, AutoCodec.DELTA_VARINT

# -- the oracles: kernels ----------------------------------------------------------


def varint_sizes_per_position(values):
    """``varint_sizes`` (unchanged; the old encoder sized with it)."""
    values = np.ascontiguousarray(values).view(np.uint64)
    sizes = np.ones(values.size, dtype=np.int64)
    longest = -(-int(values.max()).bit_length() // 7) if values.size else 1
    for k in range(1, longest):
        sizes += values >= (np.uint64(1) << np.uint64(7 * k))
    return sizes


def varint_encode_per_position(values):
    """``varint_encode`` as it was: one masked pass per byte position."""
    values = np.ascontiguousarray(values, dtype=np.int64).view(np.uint64)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    sizes = varint_sizes_per_position(values)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    for j in range(int(sizes.max())):
        sel = sizes > j
        group = (values[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)
        byte = group.astype(np.uint8)
        byte |= ((sizes[sel] - 1 > j).astype(np.uint8)) << 7
        out[starts[sel] + j] = byte
    return out


def varint_decode_per_position(stream):
    """``varint_decode`` as it was: one masked pass per byte position."""
    stream = np.ascontiguousarray(stream, dtype=np.uint8)
    if stream.size == 0:
        return np.empty(0, dtype=np.int64)
    terminal = (stream & 0x80) == 0
    if not terminal[-1]:
        raise ValueError("truncated varint stream: last byte has continuation bit")
    ends = np.flatnonzero(terminal)
    starts = np.concatenate([[0], ends[:-1] + 1])
    lengths = ends - starts + 1
    if int(lengths.max()) > MAX_VARINT_BYTES:
        raise ValueError(
            f"varint longer than {MAX_VARINT_BYTES} bytes in stream"
        )
    values = np.zeros(ends.size, dtype=np.uint64)
    for j in range(int(lengths.max())):
        sel = lengths > j
        group = stream[starts[sel] + j].astype(np.uint64) & np.uint64(0x7F)
        values[sel] |= group << np.uint64(7 * j)
    return values.view(np.int64)


# -- the oracles: the exchange ------------------------------------------------------


def as_segments(targets, parents, counts, ranges):
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    if targets.shape != parents.shape:
        raise ValueError("targets/parents must be equal length")
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or (counts < 0).any() or int(counts.sum()) != targets.size:
        raise ValueError(
            f"segment counts must be non-negative and sum to the "
            f"{targets.size} pairs"
        )
    if ranges is None:
        ranges = (None,) * counts.size
    elif len(ranges) != counts.size:
        raise ValueError(
            f"need one VertexRange per segment: {len(ranges)} != {counts.size}"
        )
    ends = np.cumsum(counts)
    return targets, parents, counts, ranges, ends - counts, ends


def segment_sums(values, starts, ends):
    total = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=total[1:])
    return total[ends] - total[starts]


def sort_segments(targets, parents, counts, starts):
    if targets.size < 2:
        return targets, parents
    prev_t, next_t = targets[:-1], targets[1:]
    ordered = (prev_t < next_t) | ((prev_t == next_t) & (parents[:-1] <= parents[1:]))
    if not ordered.all():
        ordered[starts[(starts > 0) & (starts < targets.size)] - 1] = True
        if not ordered.all():
            segment = np.repeat(np.arange(counts.size), counts)
            order = np.lexsort((parents, targets, segment))
            targets, parents = targets[order], parents[order]
    return targets, parents


def varint_plan(targets, parents, counts, starts, ends):
    """``_varint_plan`` as it was: the values and a separate sizing pass."""
    targets, parents = sort_segments(targets, parents, counts, starts)
    deltas = kernels.delta_encode(targets)
    first = starts[counts > 0]
    deltas[first] = targets[first]
    seq = kernels.pack_pairs(deltas, parents)
    nbytes = segment_sums(varint_sizes_per_position(seq), 2 * starts, 2 * ends)
    return targets, seq, nbytes


def undelta_segments(deltas, counts):
    values = kernels.delta_decode(deltas)
    if counts.size > 1:
        starts = np.cumsum(counts) - counts
        carry = np.zeros(counts.size, dtype=np.int64)
        later = starts > 0
        carry[later] = values[starts[later] - 1]
        values = values - np.repeat(carry, counts)
    return values


def varint_frames(stream, nbytes, live, heads):
    """``_varint_frames`` as it was: a copy per segment."""
    words = np.where(live, len(heads) + (nbytes + 7) // 8, 0)
    word_ends = np.cumsum(words)
    word_starts = word_ends - words
    out = np.zeros(int(words.sum()), dtype=np.int64)
    out[word_starts[live, None] + np.arange(len(heads))] = np.stack(heads, axis=1)[live]
    body = out.view(np.uint8)
    byte_ends = np.cumsum(nbytes)
    frames = []
    for word_lo, word_hi, byte_lo, byte_hi in zip(
        word_starts.tolist(),
        word_ends.tolist(),
        (byte_ends - nbytes).tolist(),
        byte_ends.tolist(),
    ):
        if byte_hi > byte_lo:
            at = 8 * (word_lo + len(heads))
            body[at : at + byte_hi - byte_lo] = stream[byte_lo:byte_hi]
        frames.append(out[word_lo:word_hi])
    return frames


def decode_frames(pieces, per_item):
    """``DeltaVarintCodec._decode_frames`` as it was: pieces one by one."""
    pieces = [np.ascontiguousarray(piece, dtype=np.int64) for piece in pieces]
    pieces = [piece for piece in pieces if piece.size]
    empty = np.empty(0, dtype=np.int64)
    if not pieces:
        return empty, empty
    sizes = np.array([piece.size for piece in pieces], dtype=np.int64)
    if (sizes < HEADER_WORDS).any():
        raise CodecError(
            f"corrupt delta-varint buffer: truncated header "
            f"({int(sizes.min())} words)"
        )
    claimed, nbytes = np.concatenate(
        [piece[:HEADER_WORDS] for piece in pieces]
    ).reshape(-1, HEADER_WORDS).T
    if ((nbytes < 0) | (sizes != HEADER_WORDS + (nbytes + 7) // 8)).any():
        raise CodecError(
            f"corrupt delta-varint buffer: {sizes.tolist()} words do not "
            f"frame {nbytes.tolist()}-byte streams"
        )
    skip = 8 * HEADER_WORDS
    stream = np.concatenate(
        [
            piece.view(np.uint8)[skip : skip + nb]
            for piece, nb in zip(pieces, nbytes.tolist())
        ]
    )
    terminal = (stream & 0x80) == 0
    filled = nbytes > 0
    byte_ends = np.cumsum(nbytes)
    if not terminal[byte_ends[filled] - 1].all():
        raise CodecError(
            "corrupt delta-varint buffer: truncated varint stream "
            "(last byte has continuation bit)"
        )
    try:
        values = varint_decode_per_position(stream)
    except ValueError as exc:
        raise CodecError(f"corrupt delta-varint buffer: {exc}") from None
    found = np.zeros(nbytes.size, dtype=np.int64)
    if filled.any():
        found[filled] = np.add.reduceat(terminal, (byte_ends - nbytes)[filled])
    if (found != per_item * claimed).any():
        raise CodecError(
            f"corrupt delta-varint buffer: {found.tolist()} values for "
            f"{claimed.tolist()} items of {per_item}"
        )
    return values, claimed


def delta_varint_encode_many(targets, parents, counts, ranges=None):
    targets, parents, counts, _ranges, starts, ends = as_segments(
        targets, parents, counts, ranges
    )
    _ordered, seq, nbytes = varint_plan(targets, parents, counts, starts, ends)
    return varint_frames(
        varint_encode_per_position(seq), nbytes, counts > 0, (counts, nbytes)
    )


def delta_varint_decode_many(pieces, ctx=None):
    seq, npairs = decode_frames(pieces, per_item=2)
    targets = undelta_segments(seq[0::2], npairs)
    _check_targets(targets, ctx, DeltaVarintCodec.name)
    return targets, seq[1::2]


def auto_encode_many(targets, parents, counts, ranges=None):
    targets, parents, counts, ranges, starts, ends = as_segments(
        targets, parents, counts, ranges
    )
    live = counts > 0
    ordered, seq, nbytes = varint_plan(targets, parents, counts, starts, ends)
    for s in np.flatnonzero(live).tolist():
        _check_owned(int(ordered[starts[s]]), int(ordered[ends[s] - 1]), ranges[s])
    varint = live & (HEADER_WORDS + (nbytes + 7) // 8 < 2 * counts)
    if not varint.all():
        seq = seq[np.repeat(varint, 2 * counts)]
    nbytes = np.where(varint, nbytes, 0)
    tags = np.where(varint, DELTA_VARINT, RAW)
    frames = varint_frames(
        varint_encode_per_position(seq), nbytes, varint, (tags, counts, nbytes)
    )
    for s in np.flatnonzero(live & ~varint).tolist():
        lo, hi = int(starts[s]), int(ends[s])
        frames[s] = AutoCodec._tagged(
            RAW, kernels.pack_pairs(targets[lo:hi], parents[lo:hi])
        )
    return frames


#: ``auto``'s inner pair decoders as they were, by tag.
_FORMS = {RAW: RawCodec().decode_pairs_many, DELTA_VARINT: delta_varint_decode_many}


def _inner(tag):
    AutoCodec()._inner(tag)  # an unknown tag raises as it did
    return _FORMS[tag]


def auto_decode_many(pieces, ctx=None):
    tagged = [
        AutoCodec._untagged(piece)
        for piece in (np.asarray(piece, dtype=np.int64) for piece in pieces)
        if piece.size
    ]
    return _concat_pairs(
        [
            _inner(tag)([body for _, body in run], ctx)
            for tag, run in groupby(tagged, key=lambda item: item[0])
        ]
    )


# -- comparison helpers ---------------------------------------------------------------


def outcome(fn, *args):
    """``("ok", result)`` or ``("raises", type, message)`` of one call."""
    try:
        return ("ok", fn(*args))
    except (ValueError, CodecError) as exc:
        return ("raises", type(exc), str(exc))


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raises":
        assert got[1:] == want[1:]
        return
    got, want = got[1], want[1]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def assert_same_frames(got, want):
    assert [(f.dtype, f.tobytes()) for f in got] == [(f.dtype, f.tobytes()) for f in want]


# -- strategies -------------------------------------------------------------------------

#: Values at every varint byte-count edge, and the int64 extremes.
EDGES = sorted(
    {v for k in range(1, 10) for v in ((1 << (7 * k)) - 1, 1 << (7 * k)) if v <= I64_MAX}
    | {0, 1, -1, I64_MIN, I64_MAX}
)

int64s = st.one_of(
    st.integers(0, 300),
    st.sampled_from(EDGES),
    st.integers(I64_MIN, I64_MAX),
)


def _parents(rng, kind, count):
    small = rng.integers(0, 300, count)
    edges = rng.choice(np.array(EDGES, dtype=np.int64), count)
    full = rng.integers(I64_MIN, I64_MAX, count, endpoint=True)
    if kind == "mixed":
        return np.choose(rng.integers(0, 3, count), [small, edges, full])
    return {"small": small, "edges": edges, "full": full}[kind]


@st.composite
def exchanges(draw):
    """One exchange's grouped candidates, counts and ranges.

    No segments at all, or segments that are empty, single pairs or runs;
    targets sit inside their destination's range (small, wide or near
    ``2**62`` — a single huge pair ships raw), sorted, repeated (a triple
    site's equal targets with ascending values) or shuffled; parents
    reach every varint length, negatives (10-byte varints) included.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nseg = draw(st.integers(0, 9))
    width = draw(st.sampled_from([1, 7, 300, 1 << 20, 1 << 40]))
    base = draw(st.sampled_from([0, 1 << 14, (1 << 62) - (9 << 40)]))
    counts = np.array(
        draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 17, 60]), min_size=nseg, max_size=nseg)),
        dtype=np.int64,
    )
    layout = draw(st.sampled_from(["sorted", "triple", "shuffled"]))
    kind = draw(st.sampled_from(["small", "edges", "full", "mixed"]))
    parents = _parents(rng, kind, counts.sum())
    ranges = [VertexRange(base + s * width, width) for s in range(nseg)]
    offsets = rng.integers(0, width, counts.sum())
    if layout == "triple":
        # Few distinct targets per segment, each with ascending values.
        offsets -= offsets % 3
    targets = np.repeat(np.array([r.lo for r in ranges], dtype=np.int64), counts) + offsets
    segment = np.repeat(np.arange(nseg), counts)
    if layout != "shuffled":
        order = np.lexsort((parents, targets, segment))
        targets, parents = targets[order], parents[order]
    mode = draw(st.sampled_from(["ranges", "ranges", "none", "unknown", "violated"]))
    if mode == "none":
        ranges = None
    elif mode == "unknown":
        ranges = [VertexRange(r.lo, 0) for r in ranges]
    elif mode == "violated" and targets.size:
        # One target outside its own destination's range.
        i = draw(st.integers(0, targets.size - 1))
        targets[i] += width * draw(st.sampled_from([-1, nseg]))
    return targets, parents, counts, ranges


contexts = st.sampled_from(
    [None, VertexRange(0, 0), VertexRange(0, 1 << 62), VertexRange(1 << 14, 1 << 20)]
)

# -- properties: kernels ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(values=st.lists(int64s, max_size=80))
def test_varint_encode_equals_per_position(values):
    values = np.array(values, dtype=np.int64)
    got, want = kernels.varint_encode(values), varint_encode_per_position(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    decoded = kernels.varint_decode(got)
    assert decoded.dtype == np.int64 and np.array_equal(decoded, values)


@settings(max_examples=150, deadline=None)
@given(
    stream=st.one_of(
        st.lists(st.integers(0, 255), max_size=40),
        # Runs of continuation bytes, terminated or not: every varint length.
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 127)), max_size=6
        ).map(lambda runs: [b for n, t in runs for b in [0x80 | 5] * n + [t]]),
    ),
    cut=st.booleans(),
)
def test_varint_decode_equals_per_position(stream, cut):
    stream = np.array(stream[:-1] if cut else stream, dtype=np.uint8)
    assert_same_outcome(
        outcome(lambda s: (kernels.varint_decode(s),), stream),
        outcome(lambda s: (varint_decode_per_position(s),), stream),
    )


# -- properties: the exchange -------------------------------------------------------------

CODECS = {
    "delta-varint": (DeltaVarintCodec, delta_varint_encode_many, delta_varint_decode_many),
    "auto": (AutoCodec, auto_encode_many, auto_decode_many),
}


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=100, deadline=None)
@given(exchange=exchanges(), ctx=contexts)
def test_exchange_equals_spec(name, exchange, ctx):
    """Byte-identical frames (or the same pack-time error) and identical
    decoded arrays (or the same decode error)."""
    codec_cls, encode_spec, decode_spec = CODECS[name]
    codec = codec_cls()
    got = outcome(codec.encode_pairs_many, *exchange)
    want = outcome(encode_spec, *exchange)
    assert got[0] == want[0], (got, want)
    if got[0] == "raises":
        assert got[1:] == want[1:]
        return
    assert_same_frames(got[1], want[1])
    assert_same_outcome(
        outcome(codec.decode_pairs_many, got[1], ctx),
        outcome(decode_spec, want[1], ctx),
    )


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(exchanges(), min_size=1, max_size=3),
    ctx=contexts,
    order=st.randoms(use_true_random=False),
)
def test_auto_decode_mixed_tags_equals_spec(batches, ctx, order):
    """Pieces from several exchanges, raw and delta-varint interleaved in
    any order, decode to the same arrays as piece by piece."""
    auto = AutoCodec()
    pieces = []
    for targets, parents, counts, ranges in batches:
        if ranges is not None:
            ranges = [VertexRange(r.lo, 0) for r in ranges]  # no pack-time check
        pieces += auto.encode_pairs_many(targets, parents, counts, ranges)
    order.shuffle(pieces)
    assert_same_outcome(
        outcome(auto.decode_pairs_many, pieces, ctx),
        outcome(auto_decode_many, pieces, ctx),
    )


def _damaged(pieces, data, tagged):
    """One piece damaged in one of the ways the wire or a bug could;
    ``tagged`` pieces carry ``auto``'s tag word in front of the frame."""
    pieces = [np.array(piece, dtype=np.int64) for piece in pieces]
    live = [i for i, piece in enumerate(pieces) if piece.size]
    if not live:
        return pieces
    i = data.draw(st.sampled_from(live))
    piece = pieces[i]
    how = data.draw(
        st.sampled_from(
            ["truncate", "smash", "word", "byte", "append", "cut", "tag", "corrupt_pieces",
             "continued", "overlong"]
        )
    )
    # A delta-varint frame's header and stream, if the piece is one.
    head = int(tagged and piece[0] == DELTA_VARINT)
    nbytes = int(piece[head + 1]) if piece.size > head + 1 else 0
    stream = piece.view(np.uint8)[8 * (head + HEADER_WORDS) :][:nbytes]
    if how == "truncate":
        piece = piece[:-1]
    elif how == "smash":
        piece[0] = I64_MAX - 12345
    elif how == "word":
        at = data.draw(st.integers(0, piece.size - 1))
        piece[at] = data.draw(st.sampled_from([-1, 0, 1, 2, 7, 8, 9, 1 << 40]))
    elif how == "byte":
        raw = piece.view(np.uint8)
        at = data.draw(st.integers(0, raw.size - 1))
        raw[at] ^= data.draw(st.sampled_from([0x80, 0x01, 0xFF]))
    elif how == "append":
        piece = np.append(piece, data.draw(st.sampled_from([0, -1])))
    elif how == "cut":
        piece = piece[: data.draw(st.integers(0, piece.size))]
    elif how == "tag":
        piece[0] = data.draw(st.sampled_from([-1, 2, 7]))
    elif how == "continued" and stream.size:
        stream[-1] |= 0x80
    elif how == "overlong" and stream.size > 11:
        stream[:11] = 0x81
    elif how == "corrupt_pieces":
        mode = data.draw(st.sampled_from(["truncate", "smash"]))
        hit = corrupt_pieces(pieces, mode)
        if hit is not None:
            i, piece = hit
    pieces[i] = piece
    return pieces


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=150, deadline=None)
@given(exchange=exchanges(), ctx=contexts, data=st.data())
def test_damaged_exchange_raises_as_spec(name, exchange, ctx, data):
    """A damaged piece anywhere in a received batch raises the same
    exception, message included, as the piece-by-piece decode — or both
    decode the same arrays (damage that leaves a valid buffer)."""
    codec_cls, _encode_spec, decode_spec = CODECS[name]
    codec = codec_cls()
    targets, parents, counts, ranges = exchange
    if ranges is not None:
        ranges = [VertexRange(r.lo, 0) for r in ranges]
    pieces = codec.encode_pairs_many(targets, parents, counts, ranges)
    pieces = _damaged(pieces, data, tagged=name == "auto")
    got = outcome(codec.decode_pairs_many, pieces, ctx)
    want = outcome(decode_spec, pieces, ctx)
    if got[0] == "raises" and want != got and _count_wraps(pieces, name == "auto"):
        # The one deliberate difference: a count word whose doubling
        # wraps int64 onto the values found (a flipped sign bit) passed
        # the old int64 count check — to decode garbage, fail a later
        # check or escape np.repeat as a bare ValueError; the python-int
        # check rejects it where the count check stands.
        assert got[1] is CodecError and " values for " in got[2]
        return
    assert_same_outcome(got, want)


def _count_wraps(pieces, tagged):
    """Whether a delta-varint frame's count word, doubled, leaves int64."""
    for piece in pieces:
        head = int(tagged and len(piece) > 1 and piece[0] == DELTA_VARINT)
        if len(piece) > head and not I64_MIN <= 2 * int(piece[head]) <= I64_MAX:
            return True
    return False

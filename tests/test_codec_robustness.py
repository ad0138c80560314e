"""Codec hardening: damaged wire buffers raise typed errors, never decode.

Every decoder checks its input: a truncated or corrupted buffer raises
:class:`CodecError` instead of yielding wrong vertex ids.  These tests
pin that contract per codec and per site shape, damaging buffers with
:func:`~tests.conftest.corrupt_pieces` (truncation for pair/dense
buffers, a smash of the first word for sparse vertex lists) and with
hand-made damage to each frame field.  End to end, a damaged buffer
inside a real traversal must abort the run with a typed
:class:`~repro.mpsim.SpmdFailure` carrying the :class:`CodecError` and
the partial stats, under every execution runtime.

``DAMAGE_SITES`` names, per ``"wire"``-capable family, the encode sites
its collectives pass through; ``tests/test_registry_coverage.py`` holds
it against the live registry as the ``wire-damage`` harness.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import runtime
from repro.comm import CommChannel
from repro.comm.codecs import (
    AutoCodec,
    CodecError,
    DeltaVarintCodec,
    RunLayout,
    VertexRange,
    bytes_to_words,
)
from repro.mpsim import SpmdFailure

from tests.conftest import CODEC_FORMS, corrupt_pieces, launch_any
from tests.test_property_pair_codec import auto_decode_many, delta_varint_decode_many

CODECS = sorted(CODEC_FORMS)
# Two bitmap words wide, so even the densest encoding is truncatable.
CTX = VertexRange(lo=0, nbits=128)


def _pairs():
    rng = np.random.default_rng(5)
    targets = np.sort(rng.choice(CTX.nbits, size=12, replace=False)).astype(np.int64)
    parents = rng.integers(0, 256, size=12, dtype=np.int64)
    return targets, parents


def _vertices():
    return np.array([1, 3, 8, 21, 34, 55, 89, 101, 120], dtype=np.int64)


def _damage(wire, mode):
    hit = corrupt_pieces([wire], mode)
    assert hit is not None, "encoded buffer too small to damage"
    return hit[1]


@pytest.mark.parametrize("codec_name", CODECS)
class TestDamagedBuffersRaise:
    def test_truncated_pair_buffer(self, codec_name):
        codec = CODEC_FORMS[codec_name]()
        wire = codec.encode_pairs(*_pairs(), CTX)
        with pytest.raises(CodecError, match="corrupt"):
            codec.decode_pairs(_damage(wire, "truncate"), CTX)

    def test_damaged_sparse_set(self, codec_name):
        codec = CODEC_FORMS[codec_name]()
        wire = codec.encode_set(_vertices(), CTX, dense=False)
        # Truncating a raw vertex list is a shorter-but-valid list, so
        # sparse sites smash the first word: an id out of the agreed
        # range, a header, or ``auto``'s tag — here in front of its
        # bitmap set body, whose own words carry no check.
        if codec_name == "auto":
            assert wire[0] == AutoCodec.BITMAP
        with pytest.raises(CodecError, match="corrupt"):
            codec.decode_set(_damage(wire, "smash"), CTX, dense=False)

    def test_truncated_dense_set(self, codec_name):
        codec = CODEC_FORMS[codec_name]()
        wire = codec.encode_set(_vertices(), CTX, dense=True)
        with pytest.raises(CodecError, match="corrupt"):
            codec.decode_set(_damage(wire, "truncate"), CTX, dense=True)

    def test_undamaged_buffers_round_trip(self, codec_name):
        codec = CODEC_FORMS[codec_name]()
        targets, parents = _pairs()
        rt, rp = codec.decode_pairs(codec.encode_pairs(targets, parents, CTX), CTX)
        order = np.lexsort((rp, rt))
        assert np.array_equal(rt[order], targets)
        assert np.array_equal(rp[order], parents)


class TestStrictFraming:
    """Buffers no encoder emits are rejected, not read as empty: the
    exchange-wide decode joins the pieces' streams, so each piece must
    be exactly the words its own header accounts for."""

    #: Decoders handed the damaged piece alone, and inside a batch.
    PAIR_DECODERS = {
        "one-piece": lambda codec, wire: codec.decode_pairs(wire, CTX),
        "many-piece": lambda codec, wire: codec.decode_pairs_many(
            [codec.encode_pairs(*_pairs(), CTX), wire, np.empty(0, np.int64)], CTX
        ),
    }

    @pytest.mark.parametrize("decoder", sorted(PAIR_DECODERS))
    def test_auto_tag_without_body(self, decoder):
        auto = AutoCodec()
        for tag in (0, 1, 2):
            with pytest.raises(CodecError, match="tag without a body"):
                self.PAIR_DECODERS[decoder](auto, np.array([tag], np.int64))
            with pytest.raises(CodecError, match="tag without a body"):
                auto.decode_set(np.array([tag], np.int64), CTX)

    @pytest.mark.parametrize("decoder", sorted(PAIR_DECODERS))
    @pytest.mark.parametrize("codec_name", ["delta-varint", "auto"])
    def test_words_beyond_the_varint_stream(self, codec_name, decoder):
        codec = CODEC_FORMS[codec_name]()
        decode = self.PAIR_DECODERS[decoder]
        tag = np.array([1] if codec_name == "auto" else [], np.int64)
        # An empty stream "followed" by a word: used to decode as empty.
        with pytest.raises(CodecError, match="corrupt"):
            decode(codec, np.append(tag, [0, 0, 123]))
        valid = DeltaVarintCodec().encode_pairs(*_pairs())
        framed = np.append(tag, valid)
        assert decode(codec, framed)[0].size >= 12
        with pytest.raises(CodecError, match="corrupt"):
            decode(codec, np.append(framed, 0))
        # A byte count that needs fewer words than the buffer holds.
        short = framed.copy()
        short[tag.size + 1] -= 8
        with pytest.raises(CodecError, match="corrupt"):
            decode(codec, short)

    @pytest.mark.parametrize("codec_name", ["delta-varint", "auto"])
    def test_words_beyond_the_varint_set_stream(self, codec_name):
        codec = CODEC_FORMS[codec_name]()
        tag = np.array([1] if codec_name == "auto" else [], np.int64)
        with pytest.raises(CodecError, match="corrupt"):
            codec.decode_set(np.append(tag, [0, 0, 123]), CTX)
        valid = DeltaVarintCodec().encode_set(_vertices())
        framed = np.append(tag, valid)
        assert np.array_equal(codec.decode_set(framed, CTX), _vertices())
        with pytest.raises(CodecError, match="corrupt"):
            codec.decode_set(np.append(framed, 0), CTX)

    @pytest.mark.parametrize("decoder", sorted(PAIR_DECODERS))
    def test_auto_pair_buffer_tagged_bitmap(self, decoder):
        """Pairs have no bitmap form: tag 2 in front of the old bitmap
        pair image (one bitmap word, one parent per set bit) is an
        unknown tag, not a buffer to guess at."""
        bits = np.array([(1 << 3) | (1 << 9)], np.int64)
        for wire in ([AutoCodec.BITMAP, *bits, 1, 2], [AutoCodec.BITMAP, 0]):
            with pytest.raises(CodecError, match="unknown codec tag 2"):
                self.PAIR_DECODERS[decoder](AutoCodec(), np.array(wire, np.int64))


class TestJoinedDecode:
    """Damage to a piece that is not the first, inside a received batch.

    ``auto`` and delta-varint decode every piece of an exchange from one
    joined buffer, so each damage must still be caught and named as it
    was when pieces decoded one by one (the piece-by-piece decode of
    ``tests/test_property_pair_codec.py`` is the reference for the
    message), and no piece's bytes may complete a varint begun in the
    piece before it.
    """

    #: Three destinations' worth of pairs; the middle piece is the largest,
    #: so ``corrupt_pieces`` picks it.
    COUNTS = (3, 12, 4)

    def _pieces(self, codec_name):
        rng = np.random.default_rng(11)
        targets = np.concatenate(
            [np.sort(rng.choice(CTX.nbits, count, replace=False)) for count in self.COUNTS]
        )
        parents = rng.integers(0, 1 << 12, targets.size)
        pieces = CODEC_FORMS[codec_name]().encode_pairs_many(targets, parents, self.COUNTS)
        if codec_name == "auto":
            assert all(piece[0] == AutoCodec.DELTA_VARINT for piece in pieces)
        return pieces

    @staticmethod
    def _stream(piece, head):
        """The frame's varint bytes, writable in place."""
        nbytes = int(piece[head + 1])
        return piece.view(np.uint8)[8 * (head + DeltaVarintCodec.HEADER_WORDS) :][:nbytes]

    @staticmethod
    def _frame(stream, count, head):
        frame = np.concatenate([[count, stream.size], bytes_to_words(stream)])
        return np.concatenate([[AutoCodec.DELTA_VARINT], frame]) if head else frame

    def _damage(self, how, piece, head):
        piece = piece.copy()
        if how == "nbytes+1":
            # Still framed by the same words: the pad byte joins the stream.
            assert int(piece[head + 1]) % 8
            piece[head + 1] += 1
        elif how == "continued":
            self._stream(piece, head)[-1] |= 0x80
        elif how == "header-cut":
            piece = piece[: head + 1]
        elif how == "11-byte-varint":
            self._stream(piece, head)[:11] = 0x81
        elif how == "tag-7":
            piece[0] = 7
        else:
            piece = corrupt_pieces([piece], how)[1]
        return piece

    #: Damage -> the condition the error names, as at the piece-by-piece decode.
    CONDITIONS = {
        "truncate": "words do not frame",
        "smash": "values for",
        "nbytes+1": "values for",
        "continued": r"truncated varint stream \(last byte has continuation bit\)",
        "header-cut": r"truncated header \(1 words\)",
        "11-byte-varint": "varint longer than 10 bytes in stream",
        "tag-7": "unknown codec tag 7",
    }

    @pytest.mark.parametrize(
        "codec_name,how",
        [("auto", how) for how in sorted(CONDITIONS)]
        + [("delta-varint", how) for how in sorted(CONDITIONS) if how != "tag-7"],
    )
    def test_damaged_later_piece_names_its_condition(self, codec_name, how):
        head = int(codec_name == "auto")
        pieces = self._pieces(codec_name)
        if how in ("truncate", "smash"):
            assert corrupt_pieces(pieces, how)[0] == 1
        pieces[1] = self._damage(how, pieces[1], head)
        condition = self.CONDITIONS[how]
        if how == "smash" and head:
            condition = "unknown codec tag"
        spec = auto_decode_many if head else delta_varint_decode_many
        with pytest.raises(CodecError, match=condition) as want:
            spec(pieces, CTX)
        with pytest.raises(CodecError, match=condition) as got:
            CODEC_FORMS[codec_name]().decode_pairs_many(pieces, CTX)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("codec_name", ["delta-varint", "auto"])
    def test_count_with_sign_bit_flipped(self, codec_name):
        """A count of ``k - 2**63`` doubles, in int64, to the ``2k``
        values its frame holds; the count check is on python ints, so
        the flipped sign bit is caught rather than decoded."""
        head = int(codec_name == "auto")
        pieces = self._pieces(codec_name)
        pieces[1] = pieces[1].copy()
        pieces[1][head] += np.iinfo(np.int64).min
        with pytest.raises(CodecError, match=r"\[6, 24, 8\] values for \[3, -\d+, 4\] items of 2"):
            CODEC_FORMS[codec_name]().decode_pairs_many(pieces, CTX)

    @pytest.mark.parametrize("codec_name", ["delta-varint", "auto"])
    def test_no_varint_straddles_two_pieces(self, codec_name):
        """Moving the last byte of piece 0's stream to the front of piece
        1's leaves the joined stream byte for byte what it was, yet piece
        0 now ends inside a varint: the decode refuses it rather than let
        piece 1's first byte finish it."""
        head = int(codec_name == "auto")
        pieces = self._pieces(codec_name)
        codec = CODEC_FORMS[codec_name]()
        first, second = (self._stream(piece, head).copy() for piece in pieces[:2])
        count_first, count_second = (int(piece[head]) for piece in pieces[:2])
        moved = [
            self._frame(first[:-1], count_first, head),
            self._frame(np.concatenate([first[-1:], second]), count_second, head),
            pieces[2],
        ]
        joined = np.concatenate([self._stream(p, head) for p in moved])
        assert np.array_equal(
            joined, np.concatenate([self._stream(p, head) for p in pieces])
        )
        with pytest.raises(CodecError, match="last byte has continuation bit"):
            codec.decode_pairs_many(moved, CTX)


def _decode_run_piece(codec, piece, sender, receiver):
    """One received run buffer decoded on its own, from ``sender``'s
    range into ``receiver``'s — the reference for what each damage is
    called."""
    piece = np.asarray(piece, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if piece.size == 0:
        return empty, empty, empty
    pair_words = int(piece[0])
    if pair_words < 0 or pair_words > piece.size - 1:
        raise CodecError(
            f"corrupt run buffer: header claims {pair_words} pair words "
            f"but only {piece.size - 1} words follow"
        )
    frame = piece[1 : 1 + pair_words]
    sources, lengths = codec.decode_pairs(frame) if pair_words else (empty, empty)
    rest = piece[1 + pair_words :]
    if sources.size > rest.size:
        raise CodecError(
            f"corrupt run buffer: {sources.size} runs but only {rest.size} "
            f"words follow the pair frame"
        )
    words, target_frame = rest[: sources.size], rest[sources.size :]
    # A target takes at least one bit of the target frame.
    cap = 64 * target_frame.size
    for length in lengths.tolist():
        if not 1 <= length <= cap:
            bad = int(lengths.min()) if lengths.min() < 1 else int(lengths.max())
            raise CodecError(f"corrupt run buffer: run length {bad} outside [1, {cap}]")
    lo, hi = sender.lo, sender.lo + sender.nbits
    if ((sources < lo) | (sources >= hi)).any():
        raise CodecError(
            f"corrupt run buffer: source outside the sender's range [{lo}, {hi})"
        )
    targets = codec.decode_runs_at(
        target_frame,
        [0],
        [target_frame.size],
        RunLayout.build(lengths, [int(lengths.sum())], [receiver]),
    )
    lo, hi = receiver.lo, receiver.lo + receiver.nbits
    if ((targets < lo) | (targets >= hi)).any():
        raise CodecError(f"corrupt run buffer: target outside [{lo}, {hi})")
    return targets, np.repeat(sources, lengths), np.repeat(words, lengths), lengths


def _run_buffer(codec, receiver, sources, lengths, words, targets, target_runs=None):
    """A run buffer assembled field by field, however inconsistent: the
    pair frame claims the runs ``lengths``, the target frame holds
    ``targets`` cut into ``target_runs`` (by default the same runs)."""
    frame = codec.encode_pairs(np.asarray(sources), np.asarray(lengths))
    target_runs = lengths if target_runs is None else target_runs
    (target_frame,) = codec.encode_runs_many(
        np.asarray(targets), RunLayout.build(target_runs, [len(targets)], [receiver])
    )
    return np.concatenate(
        [[frame.size], frame, np.asarray(words), target_frame]
    ).astype(np.int64)


def _target_frame_at(codec, piece):
    """Where a run buffer's target frame starts: past its header, its
    pair frame and one lane word per run."""
    pair_words = int(piece[0])
    runs = codec.decode_pairs(piece[1 : 1 + pair_words])[0].size
    return 1 + pair_words + runs


@pytest.mark.parametrize("codec_name", CODECS)
class TestJoinedRunDecode:
    """Damage to one of the run pieces a rank receives.

    The run exchange decodes every piece from one joined buffer —
    headers, pair frames, lane words and targets read at their offsets —
    so each damage must still raise :class:`CodecError` with the message
    decoding the damaged piece alone gives, and undamaged pieces must
    decode to the piece-by-piece concatenation.
    """

    #: Rank 1 owns nothing, so it sends nothing; rank 2 receives.
    RANGES = [VertexRange(0, 64), VertexRange(64, 0), VertexRange(64, 64), VertexRange(128, 64)]
    RECEIVER = 2
    #: Candidates per sender; rank 2's piece is the largest, so
    #: ``corrupt_pieces`` picks it.
    COUNTS = (3, 0, 12, 4)

    def _channel(self, codec, rank):
        comm = SimpleNamespace(size=len(self.RANGES), rank=rank)
        return CommChannel(comm, self.RANGES, codec=codec)

    def _pieces(self, codec_name):
        """What the receiver gets: each sender packs candidates from its
        own range to the receiver's."""
        rng = np.random.default_rng(23)
        codec = CODEC_FORMS[codec_name]()
        receiver = self.RANGES[self.RECEIVER]
        pieces = []
        for rank, (count, sender) in enumerate(zip(self.COUNTS, self.RANGES)):
            targets = receiver.lo + rng.integers(0, receiver.nbits, count)
            sources = sender.lo + rng.integers(0, max(sender.nbits, 1), count) // 2
            words = rng.integers(0, 1 << 63, sender.nbits, dtype=np.uint64) << np.uint64(1)
            send, _info = self._channel(codec, rank).pack_runs(targets, sources, words)
            pieces.append(send[self.RECEIVER])
        assert [p.size > 0 for p in pieces] == [True, False, True, True]
        return self._channel(codec, self.RECEIVER), codec, pieces

    def _damage(self, how, piece, codec):
        """``piece`` (from rank 2, to itself) damaged as ``how`` names."""
        piece = piece.copy()
        pair_words = int(piece[0])
        mine = self.RANGES[self.RECEIVER]
        if how in ("truncate", "smash"):
            return corrupt_pieces([piece], how)[1]
        if how == "header-past-end":
            piece[0] = piece.size
        elif how == "header-negative":
            piece[0] = -3
        elif how == "target-dropped":
            piece = piece[:-1]
        elif how == "target-added":
            piece = np.append(piece, mine.lo + 5)
        elif how == "pair-frame-cut":
            # One pair word less for the frame, one more for the rest.
            piece[0] = pair_words - 1
        elif how == "target-frame-smashed":
            piece[_target_frame_at(codec, piece) :] = -1
        elif how == "target-count-plus-one":
            # The delta-varint target frame's header (untagged under
            # ``auto`` too) counts one target more than its stream holds.
            piece[_target_frame_at(codec, piece)] += 1
        # Buffers assembled field by field: a run length of zero, run
        # lengths short of the targets, sources outside the sender's
        # range, a target outside the receiver's.
        elif how == "zero-run-length":
            piece = _run_buffer(codec, mine, [70, 75], [0, 2], [1, 2], [80, 90], [1, 1])
        elif how == "lengths-short-of-targets":
            # Sixteen targets: delta-varint's header counts them; raw (and
            # ``auto``, whose raw frame is smaller) ships the run of 15 as
            # one bitmap word, which the claimed run of 14 finds too full.
            piece = _run_buffer(
                codec, mine, [70, 75], [1, 14], [1, 2], np.arange(80, 96), [1, 15]
            )
        elif how == "source-below-sender":
            piece = _run_buffer(codec, mine, [63, 75], [1, 1], [1, 2], [80, 90])
        elif how == "source-past-sender":
            piece = _run_buffer(codec, mine, [70, 128], [1, 1], [1, 2], [80, 90])
        elif how == "target-outside-receiver":
            piece = _run_buffer(codec, mine, [70, 75], [1, 1], [1, 2], [80, 128])
        return piece

    DAMAGES = [
        "truncate", "smash", "header-past-end", "header-negative",
        "target-dropped", "target-added", "pair-frame-cut", "target-frame-smashed",
        "zero-run-length", "lengths-short-of-targets", "source-below-sender",
        "source-past-sender", "target-outside-receiver",
    ]

    #: What the malformed buffers of the layout are called.
    NAMED = {
        "header-past-end": "header claims",
        "header-negative": "header claims",
        "zero-run-length": "run length 0 outside",
        "lengths-short-of-targets": "run lengths sum to 15 for 16 targets",
        "source-below-sender": "source outside the sender's range [64, 128)",
        "source-past-sender": "source outside the sender's range [64, 128)",
        "target-outside-receiver": "target outside [64, 128)",
    }
    #: What the frames that ship bitmap runs call it instead.
    NAMED_BITMAP = {
        "lengths-short-of-targets": "a bitmap run of 14 targets sets 15 bits",
    }

    def test_damaged_piece_names_its_condition(self, codec_name):
        mine = self.RANGES[self.RECEIVER]
        for how in self.DAMAGES:
            channel, codec, pieces = self._pieces(codec_name)
            if how in ("truncate", "smash"):
                assert corrupt_pieces(pieces, how)[0] == self.RECEIVER
            pieces[self.RECEIVER] = self._damage(how, pieces[self.RECEIVER], codec)
            with pytest.raises(CodecError) as want:
                _decode_run_piece(codec, pieces[self.RECEIVER], mine, mine)
            with pytest.raises(CodecError) as got:
                channel._decode_runs(pieces)
            assert str(got.value) == str(want.value), how
            assert str(got.value).startswith("corrupt "), how
            named = dict(self.NAMED)
            if codec_name != "delta-varint":
                named.update(self.NAMED_BITMAP)
            if how in named:
                assert named[how] in str(got.value), how

    def test_first_damaged_piece_is_the_one_named(self, codec_name):
        """Two damaged pieces: the error is the earlier one's, as when
        the pieces decoded in order."""
        channel, codec, pieces = self._pieces(codec_name)
        pieces[0] = self._damage("target-added", pieces[0], codec)
        pieces[2] = self._damage("header-negative", pieces[2], codec)
        with pytest.raises(CodecError) as want:
            _decode_run_piece(codec, pieces[0], self.RANGES[0], self.RANGES[self.RECEIVER])
        with pytest.raises(CodecError) as got:
            channel._decode_runs(pieces)
        assert str(got.value) == str(want.value)
        assert "header claims" not in str(got.value)

    def test_damaged_target_frame_is_corrupt(self, codec_name):
        """Damage confined to the target frame — its last word gone, its
        words overwritten, or (delta-coded) its header counting one
        target more — still raises a ``corrupt`` :class:`CodecError`."""
        _channel, codec, pieces = self._pieces(codec_name)
        piece = pieces[self.RECEIVER]
        packed = piece.size - _target_frame_at(codec, piece) < self.COUNTS[self.RECEIVER]
        assert packed == (codec_name != "raw")
        damages = ["target-dropped", "target-frame-smashed"]
        for how in damages + ["target-count-plus-one"] * packed:
            channel, codec, pieces = self._pieces(codec_name)
            pieces[self.RECEIVER] = self._damage(how, pieces[self.RECEIVER], codec)
            with pytest.raises(CodecError) as got:
                channel._decode_runs(pieces)
            assert str(got.value).startswith("corrupt "), how

    def test_undamaged_pieces_decode_as_one_by_one(self, codec_name):
        channel, codec, pieces = self._pieces(codec_name)
        *got, layout = channel._decode_runs(pieces)
        got.append(layout.lengths)
        mine = self.RANGES[self.RECEIVER]
        decoded = [
            _decode_run_piece(codec, piece, sender, mine)
            for piece, sender in zip(pieces, self.RANGES)
        ]
        want = [np.concatenate(column) for column in zip(*decoded)]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[0].size == sum(self.COUNTS)


@pytest.mark.parametrize("codec_name", ["raw", "auto"])
class TestBitmapRunDamage:
    """Damage to a run that ships as its destination range's bitmap.

    The receiver owns 100 vertices, so its bitmap is ``B = 2`` words
    and bits 100-127 of it lie past the range.  Source 3's run of 40
    targets ships as the bitmap, source 5's single target as itself,
    under ``auto`` too (3 raw words against a longer delta-varint frame).
    """

    RANGES = [VertexRange(0, 64), VertexRange(64, 100)]
    #: Source 3's targets: every other vertex of the receiver's first 80.
    LONG = np.arange(64, 144, 2)

    def _piece(self, codec_name, long=LONG):
        comm = SimpleNamespace(size=2, rank=0)
        channel = CommChannel(comm, self.RANGES, codec=codec_name)
        targets = np.concatenate([long, [70]]).astype(np.int64)
        sources = np.array([3] * len(long) + [5], dtype=np.int64)
        words = np.arange(64, dtype=np.uint64)
        send, _info = channel.pack_runs(targets, sources, words)
        piece = send[1]
        codec = channel.codec
        at = _target_frame_at(codec, piece)
        assert piece.size - at == 3  # two bitmap words and one target
        receiver = CommChannel(SimpleNamespace(size=2, rank=1), self.RANGES, codec=codec_name)
        return receiver, codec, piece, at

    def _raises_corrupt(self, receiver, codec, piece):
        with pytest.raises(CodecError) as want:
            _decode_run_piece(codec, piece, *self.RANGES)
        with pytest.raises(CodecError) as got:
            receiver._decode_runs([piece, np.empty(0, dtype=np.int64)])
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("corrupt ")
        return str(got.value)

    def test_undamaged_bitmap_run_decodes(self, codec_name):
        receiver, _codec, piece, _at = self._piece(codec_name)
        rt, rs, _rx, layout = receiver._decode_runs([piece, np.empty(0, dtype=np.int64)])
        assert rt.tolist() == self.LONG.tolist() + [70]
        assert rs.tolist() == [3] * 40 + [5] and layout.lengths.tolist() == [40, 1]

    def test_popcount_short_of_the_run_length(self, codec_name):
        receiver, codec, piece, at = self._piece(codec_name)
        piece[at] &= ~np.int64(1)  # vertex 64, the run's first target
        assert "a bitmap run of 40 targets sets 39 bits" in self._raises_corrupt(
            receiver, codec, piece
        )

    def test_bit_at_or_past_the_range_end(self, codec_name):
        receiver, codec, piece, at = self._piece(codec_name)
        piece[at] &= ~np.int64(1)
        piece[at + 1] |= np.int64(1) << np.int64(100 - 64)  # bit 100: one past the range
        assert "bitmap bit 100 past the 100-bit range" in self._raises_corrupt(
            receiver, codec, piece
        )

    def test_frame_one_word_short(self, codec_name):
        receiver, codec, piece, _at = self._piece(codec_name)
        self._raises_corrupt(receiver, codec, piece[:-1])

    def test_a_run_past_the_old_byte_cap_decodes(self, codec_name):
        """A run of all 100 vertices in a 3-word frame: past the 24
        targets the old one-byte-per-target cap allowed, within the 192
        one bit per target allows."""
        everything = np.arange(64, 164)
        receiver, _codec, piece, _at = self._piece(codec_name, everything)
        rt, _rs, _rx, layout = receiver._decode_runs([piece, np.empty(0, dtype=np.int64)])
        assert rt.tolist() == everything.tolist() + [70] and layout.lengths.tolist() == [100, 1]


class TestCorruptPieces:
    """The damage helper itself: which piece it picks and what it does."""

    def test_truncate_drops_last_word_of_largest_piece(self):
        pieces = [np.arange(2), np.arange(5), np.arange(3)]
        index, bad = corrupt_pieces(pieces, "truncate")
        assert index == 1
        assert np.array_equal(bad, np.arange(4))
        assert pieces[1].size == 5  # original untouched

    def test_smash_overwrites_first_word(self):
        index, bad = corrupt_pieces([np.array([7, 8])], "smash")
        assert index == 0
        assert bad[0] > 2**60 and bad[1] == 8

    def test_nothing_corruptible(self):
        assert corrupt_pieces([np.empty(0, dtype=np.int64)], "smash") is None
        assert corrupt_pieces([np.array([1])], "truncate") is None


#: ``"wire"``-capable family -> the encode sites its collectives use: the
#: candidate pair (or source-run) all-to-all, the run exchange's target
#: frames, the sparse vertex-list gather of the 2D expand, and the dense
#: bitmap gather of the bottom-up steps.
DAMAGE_SITES = {
    "1d": ("pairs",),
    "1d-dirop": ("pairs", "dense-set"),
    "2d": ("pairs", "sparse-set"),
    "2d-dirop": ("pairs", "sparse-set", "dense-set"),
    "msbfs-1d": ("pairs", "run-targets"),
}
DAMAGE_NPROCS = 4


def _damaging_codec(codec_name: str, site: str):
    """A ``codec_name`` codec whose every encode at ``site`` ships a
    buffer damaged as :func:`corrupt_pieces` damages it: truncated pair,
    run-target and dense buffers, a smashed first word in sparse vertex
    lists."""

    class Damaging(CODEC_FORMS[codec_name]):
        def encode_pairs_many(self, targets, parents, counts, ranges=None):
            send = list(super().encode_pairs_many(targets, parents, counts, ranges))
            hit = corrupt_pieces(send, "truncate") if site == "pairs" else None
            if hit is not None:
                send[hit[0]] = hit[1]
            return send

        def encode_runs_many(self, values, layout):
            frames = list(super().encode_runs_many(values, layout))
            hit = corrupt_pieces(frames, "truncate") if site == "run-targets" else None
            if hit is not None:
                frames[hit[0]] = hit[1]
            return frames

        def encode_set(self, vertices, ctx=None, dense=False):
            buf = super().encode_set(vertices, ctx, dense)
            if site != ("dense-set" if dense else "sparse-set"):
                return buf
            hit = corrupt_pieces([buf], "truncate" if dense else "smash")
            return buf if hit is None else hit[1]

    return Damaging()


@pytest.fixture(scope="module")
def undamaged_makespans(rmat_small):
    """Full-run makespan per ``(algorithm, codec)``, the bound a run cut
    short by a damaged buffer stays under."""
    return {
        (algorithm, codec_name): launch_any(
            rmat_small, 5, algorithm, nprocs=DAMAGE_NPROCS, machine="hopper",
            codec=CODEC_FORMS[codec_name](),
        ).stats.makespan
        for algorithm in DAMAGE_SITES
        for codec_name in CODECS
    }


@pytest.mark.parametrize("runtime_name", runtime.BACKENDS)
@pytest.mark.parametrize("codec_name", CODECS)
@pytest.mark.parametrize(
    "algorithm,site",
    [(algorithm, site) for algorithm, sites in DAMAGE_SITES.items() for site in sites],
)
def test_damaged_wire_aborts_the_run(
    rmat_small, undamaged_makespans, algorithm, site, codec_name, runtime_name
):
    """A damaged buffer mid-traversal ends the run with the receiver's
    ``CodecError``: no tree is returned, no rank hangs, and the failure
    carries every rank's partial clock from before the end."""
    with pytest.raises(SpmdFailure) as info:
        launch_any(
            rmat_small, 5, algorithm, nprocs=DAMAGE_NPROCS, machine="hopper",
            codec=_damaging_codec(codec_name, site), runtime=runtime_name,
        )
    failure = info.value
    assert isinstance(failure.exc, CodecError), failure.exc
    assert str(failure.exc).startswith("corrupt ")
    assert 0 <= failure.rank < DAMAGE_NPROCS
    assert str(failure).startswith(f"SPMD rank {failure.rank} failed: CodecError(")
    assert len(failure.stats.clocks) == DAMAGE_NPROCS
    assert 0.0 < failure.stats.makespan < undamaged_makespans[algorithm, codec_name]

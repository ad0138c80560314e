"""Round-trip property tests for the ``repro.comm`` wire-format codecs.

Every codec must reproduce the shipped (vertex, parent) multiset up to
the receiver-side (select, max) dedup — including the empty buffer, a
single element, adversarial delta gaps, and ids at the top of the int64
range.  The varint primitives get their own exhaustive round-trips since
every other codec property rests on them.

The exchange-wide ``encode_pairs_many`` / ``decode_pairs_many`` are held
byte for byte to a per-buffer oracle kept here (``oracle_encode`` /
``oracle_decode``): one buffer at a time, the formats written out
longhand, ``auto`` by encoding with every candidate and keeping the
smallest.  ``auto``'s vertex sets are held to the same kind of oracle
(``oracle_encode_set``), bitmap set form included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.comm import (
    CODECS,
    AutoCodec,
    CodecError,
    DeltaVarintCodec,
    RawCodec,
    VertexRange,
    get_codec,
)
from repro.comm.codecs import RunLayout, bytes_to_words
from repro.core.frontier import bitmap_words, dedup_candidates, pack_frontier_bitmap

from tests.conftest import CODEC_FORMS

MAX_ID = 2**63 - 1
ALL_CODECS = sorted(CODEC_FORMS)

int64s = st.integers(-(2**63), MAX_ID)
vertex_ids = st.integers(0, MAX_ID)


def _norm(targets, parents):
    """Order-insensitive canonical form of a pair multiset."""
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    order = np.lexsort((parents, targets))
    return targets[order], parents[order]


def assert_pairs_roundtrip(name, targets, parents, ctx):
    """Every pair form ships the multiset exactly (reordering allowed)."""
    codec = CODEC_FORMS[name]()
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    wire = codec.encode_pairs(targets, parents, ctx)
    assert wire.dtype == np.int64
    assert (wire.size == 0) == (targets.size == 0)
    want = _norm(targets, parents)
    got = _norm(*codec.decode_pairs(wire, ctx))
    assert np.array_equal(got[0], want[0]), name
    assert np.array_equal(got[1], want[1]), name


@st.composite
def pair_case(draw):
    """Unranged pairs: full-range vertex ids, arbitrary int64 parents."""
    n = draw(st.integers(0, 60))
    targets = draw(st.lists(vertex_ids, min_size=n, max_size=n))
    parents = draw(st.lists(int64s, min_size=n, max_size=n))
    return np.array(targets, np.int64), np.array(parents, np.int64)


@st.composite
def ranged_pair_case(draw):
    """Pairs confined to an owned VertexRange (what exchanges ship)."""
    nbits = draw(st.integers(1, 192))
    lo = draw(st.integers(0, MAX_ID - nbits))
    n = draw(st.integers(0, 60))
    targets = draw(
        st.lists(st.integers(lo, lo + nbits - 1), min_size=n, max_size=n)
    )
    parents = draw(st.lists(int64s, min_size=n, max_size=n))
    return (
        VertexRange(lo, nbits),
        np.array(targets, np.int64),
        np.array(parents, np.int64),
    )


class TestPairRoundTrips:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @settings(max_examples=50, deadline=None)
    @given(pair_case())
    def test_without_range_context(self, name, case):
        targets, parents = case
        assert_pairs_roundtrip(name, targets, parents, ctx=None)

    @pytest.mark.parametrize("name", ALL_CODECS)
    @settings(max_examples=50, deadline=None)
    @given(ranged_pair_case())
    def test_with_range_context(self, name, case):
        ctx, targets, parents = case
        assert_pairs_roundtrip(name, targets, parents, ctx)


class TestSetRoundTrips:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @settings(max_examples=50, deadline=None)
    @given(st.lists(vertex_ids, max_size=60))
    def test_sparse(self, name, vertices):
        codec = CODEC_FORMS[name]()
        v = np.array(vertices, np.int64)
        out = codec.decode_set(codec.encode_set(v), dense=False)
        assert np.array_equal(np.sort(out), np.sort(v))

    @pytest.mark.parametrize("name", ALL_CODECS)
    @settings(max_examples=50, deadline=None)
    @given(ranged_pair_case())
    def test_dense(self, name, case):
        """Dense sets are presence sets: round-trips up to uniqueness."""
        ctx, vertices, _ = case
        codec = CODEC_FORMS[name]()
        wire = codec.encode_set(vertices, ctx, dense=True)
        out = codec.decode_set(wire, ctx, dense=True)
        assert np.array_equal(np.unique(out), np.unique(vertices))


class TestEdgeCases:
    CTX = VertexRange(MAX_ID - 63, 64)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_empty_pairs(self, name):
        codec = CODEC_FORMS[name]()
        empty = np.empty(0, np.int64)
        wire = codec.encode_pairs(empty, empty, self.CTX)
        assert wire.size == 0
        t, p = codec.decode_pairs(wire, self.CTX)
        assert t.size == p.size == 0
        assert t.dtype == p.dtype == np.int64

    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("dense", [False, True])
    def test_empty_set(self, name, dense):
        codec = CODEC_FORMS[name]()
        empty = np.empty(0, np.int64)
        wire = codec.encode_set(empty, self.CTX, dense=dense)
        if not (name == "raw" and dense):
            assert wire.size <= 1  # raw dense ships the (all-zero) bitmap
        out = codec.decode_set(wire, self.CTX, dense=dense)
        assert out.size == 0 and out.dtype == np.int64

    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("parent", [0, -(2**63), MAX_ID])
    def test_single_pair_at_int64_extremes(self, name, parent):
        assert_pairs_roundtrip(
            name, [MAX_ID], [parent], self.CTX
        )

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_adversarial_deltas(self, name):
        """Near-maximal gaps between consecutive sorted ids: the deltas
        themselves are ~2**63 and need the full 10-byte varint."""
        ctx = VertexRange(0, 0)  # an unknown range: nothing to check against
        targets = np.array([0, 1, MAX_ID - 1, MAX_ID], np.int64)
        parents = np.array([MAX_ID, 0, -1, -(2**63)], np.int64)
        assert_pairs_roundtrip(name, targets, parents, ctx=None if name != "auto" else ctx)

    def test_duplicate_targets_keep_max_parent(self):
        """No pair form collapses duplicates: ``auto`` ships every pair,
        and the receiver's (select, max) rule alone keeps the max parent."""
        ctx = VertexRange(10, 8)
        targets = np.array([12, 12, 15, 12], np.int64)
        parents = np.array([3, 9, 1, 7], np.int64)
        auto = AutoCodec()
        t, p = auto.decode_pairs(auto.encode_pairs(targets, parents, ctx), ctx)
        assert all(np.array_equal(a, b) for a, b in zip(_norm(t, p), _norm(targets, parents)))
        got_t, got_p = dedup_candidates(t, p)
        assert got_t.tolist() == [12, 15] and got_p.tolist() == [9, 1]


class TestAutoPolicy:
    def test_picks_smallest_image_plus_tag(self):
        ctx = VertexRange(0, 256)
        auto = AutoCodec()
        candidates = (RawCodec(), DeltaVarintCodec())
        dense = np.arange(256, dtype=np.int64)
        sparse = np.array([3, 250], dtype=np.int64)
        for targets in (dense, sparse):
            parents = targets % 7
            best = min(
                c.encode_pairs(targets, parents, ctx).size for c in candidates
            )
            wire = auto.encode_pairs(targets, parents, ctx)
            assert wire.size == best + 1

    def test_dense_set_selects_bitmap(self):
        """A full frontier piece: the bitmap (8 words for 512 vertices)
        beats even 1-byte varint deltas, and auto must find it."""
        ctx = VertexRange(0, 512)
        vertices = np.arange(512, dtype=np.int64)
        wire = AutoCodec().encode_set(vertices, ctx)
        assert wire.tolist() == oracle_encode_set(vertices, ctx, dense=False).tolist()
        assert wire[0] == AutoCodec.BITMAP and wire.size == 8 + 1

    @settings(max_examples=50, deadline=None)
    @given(ranged_pair_case(), st.booleans(), st.booleans())
    def test_set_equals_smallest_image(self, case, dense, known):
        """Sparse and dense sets, ranges known or not: ``auto`` ships
        exactly the oracle's smallest image and reads it back."""
        ctx, vertices, _ = case
        ctx = ctx if known else VertexRange(ctx.lo, 0)
        if dense and not known:
            return  # a dense set has no image without its range
        auto = AutoCodec()
        wire = auto.encode_set(vertices, ctx, dense)
        assert wire.tolist() == oracle_encode_set(vertices, ctx, dense).tolist()
        assert np.array_equal(np.unique(auto.decode_set(wire, ctx, dense)), np.unique(vertices))


# -- whole-exchange codecs against the per-buffer oracle ------------------------

ORACLE_TAGS = ("raw", "delta-varint")


def oracle_encode_set(vertices, ctx, dense):
    """``auto``'s image of one vertex set: the smallest of the raw list
    (or raw bitmap, when dense), the delta-varint stream and, with a known
    range, the presence bitmap under tag 2; ties to the lowest tag."""
    if vertices.size == 0:
        return np.empty(0, np.int64)
    images = [(0, vertices), (1, DeltaVarintCodec().encode_set(vertices))]
    if ctx.nbits > 0:
        bits = pack_frontier_bitmap(vertices, ctx.lo, ctx.nbits).view(np.int64)
        images.append((2, bits))
        if dense:
            images[0] = (0, bits)
    tag, wire = min(images, key=lambda image: (image[1].size, image[0]))
    return np.concatenate([[tag], wire])


def oracle_encode(name, targets, parents, ctx):
    """One buffer, encoded the way the wire formats are documented."""
    if targets.size == 0:
        return np.empty(0, np.int64)
    if name == "raw":
        return np.stack([targets, parents], axis=1).ravel()
    if name == "delta-varint":
        order = np.lexsort((parents, targets))
        seq = np.empty(2 * targets.size, np.int64)
        seq[0::2] = np.diff(targets[order], prepend=0)
        seq[1::2] = parents[order]
        stream = kernels.varint_encode(seq)
        return np.concatenate([[targets.size, stream.size], bytes_to_words(stream)])
    # auto: encode with every candidate, keep the smallest, ties to the
    # lowest tag.
    images = [
        (tag, oracle_encode(inner, targets, parents, ctx))
        for tag, inner in enumerate(ORACLE_TAGS)
    ]
    tag, wire = min(images, key=lambda image: (image[1].size, image[0]))
    return np.concatenate([[tag], wire])


def oracle_decode(name, wire, ctx):
    """Decode one valid buffer (the strict decoders are tested apart)."""
    if wire.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if name == "raw":
        return wire[0::2], wire[1::2]
    if name == "delta-varint":
        seq = kernels.varint_decode(wire[2:].view(np.uint8)[: int(wire[1])])
        return np.cumsum(seq[0::2]), seq[1::2]
    return oracle_decode(ORACLE_TAGS[int(wire[0])], wire[1:], ctx)


def assert_same_buffers(got, want):
    assert len(got) == len(want)
    for ours, theirs in zip(got, want):
        assert ours.dtype == theirs.dtype == np.int64
        assert ours.tolist() == theirs.tolist()


@st.composite
def exchange_case(draw):
    """One rank's send array: p segments, each inside its own range.

    Segments may be empty, unsorted and carry duplicate targets with
    different parents; parents span the whole int64 range.  ``ranges``
    is either real, degenerate (``nbits == 0``) or absent.  Hypothesis
    draws the shape, a seeded generator fills it (drawing every pair
    through hypothesis costs seconds over the suite).
    """
    p = draw(st.integers(1, 16))
    nbits = draw(st.integers(1, 96))
    lo = draw(st.sampled_from([0, 7, 1 << 40, MAX_ID - p * nbits]))
    parent_lo, parent_hi = draw(
        st.sampled_from([(0, 300), (-MAX_ID - 1, MAX_ID), (MAX_ID - 2, MAX_ID), (-3, 0)])
    )
    ranging = draw(st.sampled_from(["ranges", "degenerate", "none"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 9, p) * (rng.random(p) < 0.7)
    owners = np.repeat(np.arange(p), counts)
    targets = lo + owners * nbits + rng.integers(0, nbits, owners.size)
    parents = rng.integers(parent_lo, parent_hi, owners.size, endpoint=True)
    if draw(st.booleans()):  # arrive sorted, as the 1D dedup leaves them
        order = np.lexsort((parents, targets))
        targets, parents = targets[order], parents[order]
    if ranging == "none":
        ranges = None
    else:
        width = nbits if ranging == "ranges" else 0
        ranges = [VertexRange(lo + seg * nbits, width) for seg in range(p)]
    return targets, parents, counts, ranges, VertexRange(lo, p * nbits)


@pytest.fixture
def kernels_of(request, backend):
    """Leave the numpy kernels in place or swap the reference in."""
    if backend == "python":
        request.getfixturevalue("reference_kernels")


def both_backends(test):
    """Both kernel implementations must produce the same wire, byte for
    byte: run ``test`` on the numpy kernels and again on the reference."""
    test = pytest.mark.usefixtures("kernels_of")(test)
    return pytest.mark.parametrize("backend", ["numpy", "python"])(test)


class TestWholeExchange:
    @both_backends
    @pytest.mark.parametrize("name", ALL_CODECS)
    @settings(max_examples=25, deadline=None)
    @given(exchange_case())
    def test_encode_many_equals_per_buffer_oracle(self, name, case):
        targets, parents, counts, ranges, _everything = case
        ends = np.cumsum(counts)
        segments = [
            (targets[lo:hi], parents[lo:hi], ctx)
            for lo, hi, ctx in zip(ends - counts, ends, ranges or [None] * counts.size)
        ]
        codec = CODEC_FORMS[name]()
        want = [oracle_encode(name, *segment) for segment in segments]
        assert_same_buffers(
            codec.encode_pairs_many(targets, parents, counts, ranges), want
        )
        # The one-buffer form is the one-segment case of the same code.
        assert_same_buffers(
            [codec.encode_pairs(*segment) for segment in segments], want
        )

    @both_backends
    @pytest.mark.parametrize("name", ALL_CODECS)
    @settings(max_examples=25, deadline=None)
    @given(exchange_case())
    def test_decode_many_equals_concatenated_pieces(self, name, case):
        """What a rank receives: p pieces, all against its own range."""
        targets, parents, counts, _ranges, ctx = case
        ends = np.cumsum(counts)
        pieces = [
            oracle_encode(name, targets[lo:hi], parents[lo:hi], ctx)
            for lo, hi in zip(ends - counts, ends)
        ]
        decoded = [oracle_decode(name, piece, ctx) for piece in pieces]
        got_t, got_p = CODEC_FORMS[name]().decode_pairs_many(pieces, ctx)
        assert got_t.dtype == got_p.dtype == np.int64
        assert got_t.tolist() == np.concatenate([t for t, _ in decoded]).tolist()
        assert got_p.tolist() == np.concatenate([q for _, q in decoded]).tolist()

    @pytest.mark.parametrize(
        "targets, parents, ctx, tag",
        [
            # raw 4 words == delta-varint 2 + ceil(12 / 8): raw keeps it.
            ([5, 9], [MAX_ID, 1], None, AutoCodec.RAW),
        ],
        ids=["raw-ties-varint"],
    )
    def test_auto_size_ties_go_to_the_lowest_tag(self, targets, parents, ctx, tag):
        targets, parents = np.array(targets, np.int64), np.array(parents, np.int64)
        wire = AutoCodec().encode_pairs(targets, parents, ctx)
        assert wire[0] == tag
        assert wire.tolist() == oracle_encode("auto", targets, parents, ctx).tolist()

    def test_segment_counts_are_validated(self):
        one = np.array([1], np.int64)
        for codec in (form() for form in CODEC_FORMS.values()):
            with pytest.raises(ValueError, match="segment counts"):
                codec.encode_pairs_many(one, one, [2])
            with pytest.raises(ValueError, match="segment counts"):
                codec.encode_pairs_many(one, one, [2, -1])
            with pytest.raises(ValueError, match="one VertexRange per segment"):
                codec.encode_pairs_many(one, one, [1], [None, None])

    def test_auto_keeps_the_pack_time_range_check(self):
        """A target outside its destination's range is a bucketing bug;
        ``auto`` reports it whichever format would have won."""
        ranges = [VertexRange(0, 4096), VertexRange(4096, 4096)]
        targets = np.array([1, 2, 4096, 9000], np.int64)
        parents = np.zeros(4, np.int64)
        auto = AutoCodec()
        with pytest.raises(ValueError, match=r"out of owned range \[4096, 8192\)"):
            auto.encode_pairs_many(targets, parents, [2, 2], ranges)
        with pytest.raises(ValueError, match=r"out of owned range \[0, 4096\)"):
            auto.encode_pairs(targets[2:3], parents[2:3], ranges[0])
        with pytest.raises(ValueError, match=r"out of owned range \[0, 4096\)"):
            auto.encode_set(targets, ranges[0])
        # Unknown ranges (none, or nbits == 0) cannot be checked.
        auto.encode_pairs_many(targets, parents, [2, 2], None)
        auto.encode_pairs_many(targets, parents, [2, 2], [VertexRange(0, 0)] * 2)


# -- damage at every piece position of a batch -----------------------------------

DAMAGE_CTX = VertexRange(1000, 512)


def _batch(name):
    """Five pieces (one empty) as a rank would receive them."""
    rng = np.random.default_rng(11)
    pieces = []
    for count in (9, 0, 1, 17, 6):
        targets = np.sort(rng.choice(DAMAGE_CTX.nbits, count, replace=False)) + DAMAGE_CTX.lo
        parents = rng.integers(0, 1 << 20, count)
        pieces.append(CODEC_FORMS[name]().encode_pairs(targets, parents, None))
    return pieces


def _truncate(piece, head):
    return piece[:-1]


def _smash(piece, head):
    piece[0] = MAX_ID - (1 << 40)
    return piece


def _continuation_on_last_byte(piece, head):
    piece[head + 2 :].view(np.uint8)[int(piece[head + 1]) - 1] |= 0x80
    return piece


def _count_mismatch(piece, head):
    piece[head] += 1
    return piece


def _byte_count_mismatch(piece, head):
    piece[head + 1] -= 1
    return piece


def _trailing_word(piece, head):
    return np.append(piece, 0)


VARINT_DAMAGE = [
    _truncate,
    _smash,
    _continuation_on_last_byte,
    _count_mismatch,
    _byte_count_mismatch,
    _trailing_word,
]


class TestDamagedBatches:
    """One damaged piece anywhere in a batch fails the whole decode:
    every piece is held to its own byte and value counts, so no varint
    (and no mistake) can straddle two pieces."""

    @both_backends
    @pytest.mark.parametrize("damage", VARINT_DAMAGE, ids=lambda f: f.__name__.strip("_"))
    @pytest.mark.parametrize("name", ["delta-varint", "auto"])
    def test_varint_damage_at_each_position(self, name, damage):
        codec = CODEC_FORMS[name]()
        pieces = _batch(name)
        head = 1 if name == "auto" else 0  # words before [count, nbytes]
        codec.decode_pairs_many(pieces, DAMAGE_CTX)  # intact: decodes
        for position, piece in enumerate(pieces):
            if name == "auto" and piece.size and piece[0] != AutoCodec.DELTA_VARINT:
                continue  # the single-pair piece ships raw
            if piece.size == 0:
                continue
            batch = list(pieces)
            batch[position] = damage(piece.copy(), head)
            with pytest.raises(CodecError, match="corrupt"):
                codec.decode_pairs_many(batch, DAMAGE_CTX)
            with pytest.raises(CodecError, match="corrupt"):
                codec.decode_pairs(batch[position], DAMAGE_CTX)

    @both_backends
    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_out_of_range_id_at_each_position(self, name):
        codec = CODEC_FORMS[name]()
        pieces = _batch(name)
        stray = codec.encode_pairs(
            np.array([DAMAGE_CTX.lo + DAMAGE_CTX.nbits], np.int64),
            np.array([3], np.int64),
            None,
        )
        for position in range(len(pieces)):
            batch = list(pieces)
            batch[position] = stray
            with pytest.raises(CodecError, match="outside"):
                codec.decode_pairs_many(batch, DAMAGE_CTX)

    @both_backends
    def test_raw_truncation_at_each_position(self):
        codec = RawCodec()
        pieces = _batch("raw")
        for position, piece in enumerate(pieces):
            if piece.size:
                batch = list(pieces)
                batch[position] = piece[:-1]
                with pytest.raises(CodecError, match="odd word count"):
                    codec.decode_pairs_many(batch, DAMAGE_CTX)


def _per_run_frame(name, runs, ctx):
    """One segment's run frame written out a run at a time: raw ships a
    run of more targets than the ``B = bitmap_words(nbits)`` words of
    the range as the range's bitmap and any other run as its targets;
    ``auto`` ships the raw frame unless delta-varint's is smaller."""
    width = bitmap_words(ctx.nbits)
    raw = np.concatenate(
        [
            pack_frontier_bitmap(run, ctx.lo, ctx.nbits).view(np.int64)
            if len(run) > width
            else np.asarray(run, dtype=np.int64)
            for run in runs
        ]
    )
    if name == "raw":
        return raw
    values = np.concatenate(runs).astype(np.int64)
    lengths = [len(run) for run in runs]
    (varint,) = DeltaVarintCodec().encode_runs_many(
        values, RunLayout.build(lengths, [values.size], [ctx])
    )
    return varint if varint.size < raw.size else raw


class TestRunFrames:
    """Target run frames around the bitmap width ``B``: runs of ``B - 1``,
    ``B``, ``B + 1`` and ``nbits`` targets over ranges whose ``nbits``
    is not a multiple of 64 (``B`` = 3 and 2)."""

    RANGES = [VertexRange(1000, 150), VertexRange(1150, 70)]

    def _runs(self, seed):
        rng = np.random.default_rng(seed)
        segments = []
        for ctx in self.RANGES:
            width = bitmap_words(ctx.nbits)
            lengths = rng.permutation([width - 1, width, width + 1, ctx.nbits])
            segments.append(
                [ctx.lo + np.sort(rng.choice(ctx.nbits, n, replace=False)) for n in lengths]
            )
        return segments

    @both_backends
    @pytest.mark.parametrize("name", ["raw", "auto"])
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_against_the_per_run_frame(self, name, seed):
        segments = self._runs(seed)
        runs = [run for segment in segments for run in segment]
        values = np.concatenate(runs).astype(np.int64)
        lengths = np.array([len(run) for run in runs], dtype=np.int64)
        counts = [sum(len(run) for run in segment) for segment in segments]
        codec = CODEC_FORMS[name]()
        frames = codec.encode_runs_many(values, RunLayout.build(lengths, counts, self.RANGES))
        for frame, segment, ctx in zip(frames, segments, self.RANGES):
            assert frame.dtype == np.int64
            assert frame.tolist() == _per_run_frame(name, segment, ctx).tolist()
            layout = RunLayout.build(
                [len(run) for run in segment], [sum(len(run) for run in segment)], [ctx]
            )
            got = codec.decode_runs_at(frame, [0], [frame.size], layout)
            assert got.tolist() == np.concatenate(segment).tolist()
        # A receiver decodes every frame addressed to it from one buffer.
        first = segments[0]
        lengths = [len(run) for run in first]
        (frame,) = codec.encode_runs_many(
            np.concatenate(first), RunLayout.build(lengths, [counts[0]], self.RANGES[:1])
        )
        joined = np.concatenate([[7], frame, [7], frame])
        got = codec.decode_runs_at(
            joined, [1, 2 + frame.size], [frame.size] * 2,
            RunLayout.build(lengths * 2, [counts[0]] * 2, self.RANGES[:1] * 2),
        )
        assert got.tolist() == 2 * np.concatenate(first).tolist()

    def test_auto_ships_varint_only_below_the_raw_frame(self):
        ctx = self.RANGES[0]
        auto = AutoCodec()

        def frame(values, lengths):
            values = np.asarray(values, dtype=np.int64)
            return auto.encode_runs_many(values, RunLayout.build(lengths, [values.size], [ctx]))[0]

        # Every vertex of the range in one run: delta-varint's 2 + 19
        # words undercut the 150 targets, but not the 3-word bitmap.
        every = np.arange(1000, 1150)
        bitmap = pack_frontier_bitmap(every, ctx.lo, ctx.nbits).view(np.int64)
        assert frame(every, [150]).tolist() == bitmap.tolist()
        # Forty one-target runs: 40 raw words against 2 + 5.
        sparse = frame(np.arange(1000, 1040), [1] * 40)
        assert sparse.size == 7 and sparse[:2].tolist() == [40, 40]
        # Three one-target runs: 3 raw words tie 2 + 1, and raw keeps it.
        assert frame([1000, 1001, 1002], [1, 1, 1]).tolist() == [1000, 1001, 1002]

    def test_raw_refuses_what_a_bitmap_cannot_carry(self):
        ctx = VertexRange(0, 64)
        raw = RawCodec()
        layout = RunLayout.build([3], [3], [ctx])
        with pytest.raises(ValueError, match="cannot carry a repeated target"):
            raw.encode_runs_many(np.array([3, 3, 5], np.int64), layout)
        with pytest.raises(ValueError, match="out of their destination's range"):
            raw.encode_runs_many(np.array([3, 5, 64], np.int64), layout)
        # Without a range, every run ships its targets.
        values = np.array([3, 3, 5], np.int64)
        assert raw.encode_runs_many(values, RunLayout.build([3], [3]))[0].tolist() == [3, 3, 5]


class TestVarints:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(int64s, max_size=80))
    def test_roundtrip_and_sizes(self, values):
        v = np.array(values, np.int64)
        stream = kernels.varint_encode(v)
        assert np.array_equal(kernels.varint_decode(stream), v)
        assert stream.size == int(kernels.varint_sizes(v).sum()) if v.size else stream.size == 0

    def test_boundary_sizes(self):
        for k in range(1, kernels.MAX_VARINT_BYTES):
            below = np.array([(1 << (7 * k)) - 1], np.int64)
            above = np.array([1 << (7 * k)], np.int64) if 7 * k < 63 else None
            assert kernels.varint_sizes(below)[0] == k
            assert kernels.varint_encode(below).size == k
            if above is not None:
                assert kernels.varint_sizes(above)[0] == k + 1
        # Negative values view as >= 2**63 and always need all 10 bytes.
        assert kernels.varint_sizes(np.array([-1], np.int64))[0] == kernels.MAX_VARINT_BYTES

    def test_truncated_stream_raises(self):
        with pytest.raises(ValueError, match="truncated"):
            kernels.varint_decode(np.array([0x80], np.uint8))

    def test_overlong_varint_raises(self):
        stream = np.array([0x80] * kernels.MAX_VARINT_BYTES + [0x00], np.uint8)
        with pytest.raises(ValueError, match="longer than"):
            kernels.varint_decode(stream)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=64))
    def test_word_packing_roundtrip(self, raw):
        stream = np.frombuffer(raw, dtype=np.uint8)
        words = bytes_to_words(stream)
        assert words.size == (stream.size + 7) // 8
        assert np.array_equal(words.view(np.uint8)[: stream.size], stream)


class TestValidation:
    def test_get_codec_unknown_name(self):
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec("zstd")
        # The two names; ``auto``'s inner forms are instances, not names.
        assert sorted(CODECS) == ["auto", "raw"]
        for name in ("delta-varint", "bitmap"):
            with pytest.raises(ValueError, match=f"unknown codec '{name}'"):
                get_codec(name)

    def test_get_codec_instance_passthrough(self):
        codec = DeltaVarintCodec()
        assert get_codec(codec) is codec

    def test_vertex_range_rejects_negative_width(self):
        with pytest.raises(ValueError, match="nbits"):
            VertexRange(0, -1)

    def test_bitmap_requires_context(self):
        """Only a known range makes a bitmap: without one ``auto`` never
        ships its bitmap set form, which cannot be read back without it,
        and no raw dense set can be built or read."""
        auto, raw = AutoCodec(), RawCodec()
        one = np.array([1], np.int64)
        full = np.arange(512, dtype=np.int64)
        for ctx in (None, VertexRange(0, 0)):
            assert auto.encode_set(full, ctx)[0] != AutoCodec.BITMAP
        wire = auto.encode_set(full, VertexRange(0, 512))
        assert wire[0] == AutoCodec.BITMAP
        for call in (
            lambda: auto.decode_set(wire, None),
            lambda: raw.encode_set(one, None, dense=True),
            lambda: raw.decode_set(one, None, dense=True),
        ):
            with pytest.raises(ValueError, match="VertexRange"):
                call()

    def test_corrupt_delta_varint_header_raises(self):
        codec = DeltaVarintCodec()
        wire = codec.encode_pairs(np.array([5], np.int64), np.array([1], np.int64))
        wire = wire.copy()
        wire[0] = 2  # claim two pairs; the stream holds one
        with pytest.raises(ValueError, match="corrupt"):
            codec.decode_pairs(wire)

"""Codec hardening: damaged wire buffers raise typed errors, never decode.

The fault layer's corrupt events rely on every codec *detecting* damage:
the channel damages a received piece exactly like :func:`corrupt_pieces`
and asserts the decode raises :class:`CodecError` before retrying.  These
tests pin that contract per codec and per site shape, using the same
damage modes the channel injects (truncation for pair/dense buffers,
a smash of the first word for sparse vertex lists), then exercise the
whole loop end to end through ``run_bfs``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.codecs import AutoCodec, CodecError, DeltaVarintCodec, VertexRange
from repro.core import run_bfs
from repro.faults import corrupt_pieces

from tests.conftest import CODEC_FORMS

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


@pytest.mark.parametrize("codec_name", CODECS)
@pytest.mark.parametrize("algorithm", ["1d", "2d"])
def test_corruption_absorbed_end_to_end(rmat_small, algorithm, codec_name):
    """An injected corruption is caught, charged, retried, and survived."""
    codec = CODEC_FORMS[codec_name]()
    plain = run_bfs(rmat_small, 5, algorithm, nprocs=4, machine="hopper", codec=codec)
    faulted = run_bfs(
        rmat_small, 5, algorithm, nprocs=4, machine="hopper", codec=codec,
        faults="corrupt:rank=0,level=2;timeout:level=3",
    )
    assert np.array_equal(plain.parents, faulted.parents)
    counters = faulted.meta["faults"]["counters"]
    assert counters["fault_corruptions"] >= 1  # victim proved detection
    assert counters["fault_retries"] >= 2 * 4  # both events, all 4 ranks
    # Absorbed faults cost virtual time (detection + backoff) but the
    # traversal's answer and attempt count are untouched.
    assert faulted.meta["faults"]["attempts"] == 1
    assert faulted.time_total > plain.time_total

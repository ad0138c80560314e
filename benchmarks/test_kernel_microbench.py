"""Kernel micro-benchmarks: raw throughput of the hot primitives.

These are classic pytest-benchmark timings (many rounds, statistics) of
the kernels every traversal is built from — useful both as a regression
guard for the substrate and as the "profile before optimizing" baseline
the HPC workflow prescribes.  The numpy-vs-reference smoke at the bottom
additionally pins the *point* of writing every kernel twice: the
vectorized kernels must beat the pure-python reference by a wide margin
on a realistic composite workload, or the reference could simply run.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.comm import (
    AutoCodec,
    CommChannel,
    DeltaVarintCodec,
    ExchangeInfo,
    RawCodec,
    VertexRange,
)
from repro.comm.codecs import RunLayout
from repro.core.frontier import build_send_buffers, dedup_candidates
from repro.core.serial import bfs_serial
from repro.core.validate import count_closed_lane_edges, count_lane_edges, lane_words
from repro.core.partition import Partition1D
from repro.graphs.csr import build_csr
from repro.graphs.graph import Graph
from repro.graphs.permutation import apply_permutation, random_permutation
from repro.graphs.rmat import GRAPH500_PARAMS, rmat_edges
from repro.kernels import numpy_backend, reference
from repro.query import lane_bit, msbfs_serial
from repro.query.msbfs import resolve_lane_winners
from repro.sparse import BIT_OR, SPA
from repro.sparse.dcsc import DCSC
from repro.sparse.spmsv import spmsv_heap, spmsv_spa

SCALE = 16


@pytest.fixture(scope="module")
def workload():
    src, dst = rmat_edges(SCALE, 16, seed=9)
    csr = build_csr(1 << SCALE, src, dst)
    rng = np.random.default_rng(1)
    frontier = np.unique(rng.integers(0, csr.n, 4096))
    targets, sources = csr.gather(frontier)
    # build_csr's output is A^T column-major, sorted and deduplicated.
    block = DCSC.from_sorted_coo(
        csr.n, csr.n, csr.indices,
        np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees()),
    )
    return {
        "src": src,
        "dst": dst,
        "csr": csr,
        "frontier": frontier,
        "targets": targets,
        "sources": sources,
        "block": block,
    }


def test_kernel_rmat_generation(benchmark):
    src, dst = benchmark(rmat_edges, 14, 16, seed=3)
    assert src.size == 16 << 14


def test_kernel_csr_build(benchmark, workload):
    csr = benchmark(build_csr, 1 << SCALE, workload["src"], workload["dst"])
    assert csr.n == 1 << SCALE


def test_kernel_frontier_gather(benchmark, workload):
    targets, sources = benchmark(workload["csr"].gather, workload["frontier"])
    assert targets.size == sources.size > 0


def test_kernel_dedup(benchmark, workload):
    t, p = benchmark(dedup_candidates, workload["targets"], workload["sources"])
    assert np.all(np.diff(t) > 0)


def test_kernel_send_buffers(benchmark, workload):
    targets, sources = workload["targets"], workload["sources"]
    owners = targets % 64
    send = benchmark(build_send_buffers, targets, sources, owners, 64)
    assert sum(buf.size for buf in send) == 2 * targets.size


def test_kernel_spmsv_spa(benchmark, workload):
    idx, val, work = benchmark(
        spmsv_spa, workload["block"], workload["frontier"], workload["frontier"] + 1
    )
    assert work.candidates > 0


def test_kernel_spmsv_heap(benchmark, workload):
    idx, val, work = benchmark(
        spmsv_heap, workload["block"], workload["frontier"], workload["frontier"] + 1
    )
    assert work.candidates > 0


# -- numpy-vs-reference smoke --------------------------------------------------

#: Composite scale for the numpy-vs-python wall-clock smoke: large
#: enough that vectorization dominates call overhead, small enough
#: for the pure-python rounds to stay CI-friendly.
SMOKE_SCALE = 14

#: Loose CI-safe bar; whole scale-16 traversals measured 7x apart.
MIN_SMOKE_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def smoke_load():
    src, dst = rmat_edges(SMOKE_SCALE, 16, seed=5)
    csr = build_csr(1 << SMOKE_SCALE, src, dst)
    rng = np.random.default_rng(7)
    frontier = np.unique(rng.integers(0, csr.n, 2048))
    targets, sources = csr.gather(frontier)
    words = rng.integers(1, 1 << 62, targets.size, dtype=np.uint64)
    return {"n": csr.n, "targets": targets, "sources": sources, "words": words}


def _composite_pass(load, impl):
    """One pass over every kernel family a traversal level exercises,
    on ``impl``: ``numpy_backend`` or ``reference``."""
    targets, sources = load["targets"], load["sources"]
    unique, parents = impl.dedup_max(targets, sources)
    owners = targets % 64
    impl.bucket_by_owner(owners, 64, targets, sources)
    stream = impl.varint_encode(impl.delta_encode(unique))
    decoded = impl.delta_decode(impl.varint_decode(stream))
    bitmap = impl.pack_bitmap(unique, 0, load["n"])
    impl.unpack_bitmap(bitmap, load["n"])
    impl.popcount(bitmap)
    pt, ps, pw = impl.lane_prune(targets, sources, load["words"], 64)
    return (
        np.asarray(unique).tolist(),
        np.asarray(decoded).tolist(),
        np.asarray(bitmap).tolist(),
        np.asarray(pt).tolist(),
        int(np.asarray(pw).size),
    )


def _best_of(fn, rounds):
    best, result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_numpy_backend_beats_reference_wallclock(smoke_load):
    """The vectorized kernels are >= 2x the pure-python reference on a
    scale-14 composite pass (dedup + bucketing + codec roundtrip +
    bitmap scan + lane prune), with bit-identical results."""
    _composite_pass(smoke_load, numpy_backend)  # warm-up, untimed
    vec_time, vec_result = _best_of(
        lambda: _composite_pass(smoke_load, numpy_backend), 3
    )
    ref_time, ref_result = _best_of(lambda: _composite_pass(smoke_load, reference), 2)
    assert vec_result == ref_result
    speedup = ref_time / vec_time
    assert speedup >= MIN_SMOKE_SPEEDUP, (
        f"numpy kernels only {speedup:.1f}x the reference "
        f"({vec_time:.4f}s vs {ref_time:.4f}s); expected "
        f">= {MIN_SMOKE_SPEEDUP}x"
    )


# -- msbfs level: one pass against the per-lane formulations ------------------

MSBFS_LANES = 64
MSBFS_RANKS = 16

#: Loose CI-safe bars; measured on a noisy 2-CPU box 4.4-6.2x (update)
#: and 3.5-4.9x (the run pack).
MIN_UPDATE_SPEEDUP = 3.0
MIN_PACK_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def msbfs_level():
    """The level of a 64-lane batch on the scale-14 graph that reaches
    the most (vertex, lane) slots, as the exchange carries it: each of
    16 senders prunes the adjacencies of its own frontier slice, and the
    pruned triples of all of them meet at the owners (taken together, as
    if one rank owned every vertex)."""
    src, dst = rmat_edges(SMOKE_SCALE, 16, seed=5)
    csr = build_csr(1 << SMOKE_SCALE, src, dst)
    rng = np.random.default_rng(11)
    seeds = rng.choice(np.flatnonzero(csr.degrees()), MSBFS_LANES, replace=False)
    levels, _parents = msbfs_serial(csr, seeds)
    lanes = np.arange(MSBFS_LANES, dtype=np.uint64)
    level = int(np.argmax(np.bincount(levels[levels > 0])))
    fwords = np.bitwise_or.reduce(
        (levels == level - 1).astype(np.uint64) << lanes, axis=1
    )
    visit = np.bitwise_or.reduce(
        ((levels >= 0) & (levels < level)).astype(np.uint64) << lanes, axis=1
    )
    part = Partition1D(csr.n, MSBFS_RANKS)
    senders = []
    for rank in range(MSBFS_RANKS):
        lo, hi = part.range_of(rank)
        targets, sources = csr.gather(np.flatnonzero(fwords[lo:hi]) + lo)
        senders.append((targets, sources, fwords[sources]))
    sent = [kernels.lane_prune(*triple, MSBFS_LANES) for triple in senders]
    triples = tuple(np.concatenate(column) for column in zip(*sent))
    return {
        "n": csr.n,
        "level": level,
        "visit": visit,
        "fwords": fwords,
        "part": part,
        "senders": senders,
        "sent": sent,
        "triples": triples,
    }


def _update(load, resolve, levels, parents):
    """``MSBFS1D``'s owner-side write of one level into ``(n, lanes)``
    arrays, ``resolve`` turning the live triples into slot writes."""
    rt, rs, rw = load["triples"]
    fresh = rw & ~load["visit"][rt]
    alive = fresh != 0
    resolve(rt[alive], rs[alive], fresh[alive], levels, parents, load["level"])
    return levels, parents


def _resolve_one_pass(rt, rs, fresh, levels, parents, level):
    wt, lanes, ws = resolve_lane_winners(rt, rs, fresh, MSBFS_LANES)
    slots = wt * MSBFS_LANES + lanes
    levels.reshape(-1)[slots] = level
    parents.reshape(-1)[slots] = ws


def _resolve_per_lane(rt, rs, fresh, levels, parents, level):
    """The update as it was: a mask pass and a dedup sort per lane."""
    for b in range(MSBFS_LANES):
        mask = (fresh & lane_bit(b)) != 0
        if not mask.any():
            continue
        tb, sb = dedup_candidates(rt[mask], rs[mask])
        levels[tb, b] = level
        parents[tb, b] = sb


def _pack_bucket_then_lexsort(channel, targets, sources, source_words):
    """The run pack as one destination at a time: stable bucket by
    owner, then per destination a two-key lexsort and ``np.unique`` for
    the runs, and the destination's target frame on its own."""
    mine = channel.ranges[channel.comm.rank]
    owners = np.searchsorted(channel._bounds, targets, side="right") - 1
    buckets, _counts = kernels.bucket_by_owner(
        owners, channel.comm.size, targets, sources
    )
    send = []
    for (t, s), rng in zip(buckets, channel.ranges):
        if t.size == 0:
            send.append(np.empty(0, dtype=np.int64))
            continue
        order = np.lexsort((t, s))
        run_sources, lengths = np.unique(s[order], return_counts=True)
        frame = channel.codec.encode_pairs(run_sources, lengths.astype(np.int64), mine)
        words = source_words[run_sources - mine.lo].view(np.int64)
        layout = RunLayout.build(lengths, [t.size], [rng])
        (targets_frame,) = channel.codec.encode_runs_many(t[order], layout)
        send.append(
            np.concatenate([np.array([frame.size], dtype=np.int64), frame, words, targets_frame])
        )
    return send


def _assert_speedup(what, fast, slow, bar):
    speedup = slow / fast
    assert speedup >= bar, (
        f"{what} only {speedup:.1f}x its reference "
        f"({fast:.4f}s vs {slow:.4f}s); expected >= {bar}x"
    )


def test_msbfs_level_one_pass_beats_per_lane(msbfs_level, race):
    """One winner-kernel pass >= 3x the 64-iteration update loop, and the
    one-sort run pack >= 2x bucket + per-destination lexsort, on the
    busiest level of a scale-14 64-lane batch; results identical."""
    # Four (n, lanes) arrays allocated outside the race: filling 8 MiB
    # with -1 would otherwise be a third of the one-pass side's time.
    got_arrays, want_arrays = (
        [np.full((msbfs_level["n"], MSBFS_LANES), -1, dtype=np.int64) for _ in "lp"]
        for _ in range(2)
    )
    fast, got, slow, want = race(
        lambda: _update(msbfs_level, _resolve_one_pass, *got_arrays),
        lambda: _update(msbfs_level, _resolve_per_lane, *want_arrays),
    )
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert (got[0] >= 0).sum() > msbfs_level["n"]  # a real level's worth of slots
    _assert_speedup("one-pass msbfs update", fast, slow, MIN_UPDATE_SPEEDUP)

    # Every sender packs its pruned candidates through its own channel.
    part = msbfs_level["part"]
    ranges = [VertexRange(lo, hi - lo) for lo, hi in map(part.range_of, range(MSBFS_RANKS))]
    packs = [
        (
            CommChannel(SimpleNamespace(size=MSBFS_RANKS, rank=rank), ranges),
            targets,
            sources,
            msbfs_level["fwords"][ranges[rank].lo : ranges[rank].lo + ranges[rank].nbits],
        )
        for rank, (targets, sources, _words) in enumerate(msbfs_level["sent"])
    ]
    fast, got, slow, want = race(
        lambda: [channel.pack_runs(*args)[0] for channel, *args in packs],
        lambda: [_pack_bucket_then_lexsort(*pack) for pack in packs],
    )
    assert [b.tobytes() for send in got for b in send] == [
        b.tobytes() for send in want for b in send
    ]
    _assert_speedup("one-sort pack_runs", fast, slow, MIN_PACK_SPEEDUP)


# -- small exchanges: one codec pass against one buffer at a time -------------

EXCHANGE_RANKS = 8
EXCHANGE_PAIRS = 45
EXCHANGE_LEVELS = 40

#: Loose CI-safe bar; measured on a noisy 2-CPU box 4.3-4.8x.
MIN_EXCHANGE_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def small_exchanges():
    """Forty levels of the exchange a 140-level crawl consists of: one
    rank's sorted candidates for 8 destinations, ~45 pairs each, ids
    and parents below 2**16 — every buffer ends up delta-varint."""
    width = (1 << 16) // EXCHANGE_RANKS
    ranges = [VertexRange(r * width, width) for r in range(EXCHANGE_RANKS)]
    rng = np.random.default_rng(23)
    levels = []
    for _ in range(EXCHANGE_LEVELS):
        counts = rng.poisson(EXCHANGE_PAIRS, EXCHANGE_RANKS)
        targets = np.concatenate(
            [
                np.sort(rng.choice(width, count, replace=False)) + ctx.lo
                for count, ctx in zip(counts, ranges)
            ]
        )
        levels.append((targets, rng.integers(0, 1 << 16, targets.size), counts))
    return levels, ranges, VertexRange(0, 1 << 16)


def _exchange_one_pass(levels, ranges, everything):
    auto = AutoCodec()
    out = []
    for targets, parents, counts in levels:
        send = auto.encode_pairs_many(targets, parents, counts, ranges)
        out.append((send, auto.decode_pairs_many(send, everything)))
    return out


def _exchange_per_buffer(levels, ranges, everything):
    """The exchange as it was: every destination's buffer encoded with
    every candidate pair form to keep the smallest, every piece decoded
    alone."""
    auto = AutoCodec()
    candidates = (RawCodec(), DeltaVarintCodec())
    out = []
    for targets, parents, counts in levels:
        ends = np.cumsum(counts)
        send = []
        for lo, hi, ctx in zip(ends - counts, ends, ranges):
            tag, wire = min(
                (
                    (tag, codec.encode_pairs(targets[lo:hi], parents[lo:hi], ctx))
                    for tag, codec in enumerate(candidates)
                ),
                key=lambda image: (image[1].size, image[0]),
            )
            send.append(np.concatenate([np.array([tag], dtype=np.int64), wire]))
        decoded = [auto.decode_pairs(piece, everything) for piece in send]
        out.append(
            (
                send,
                (
                    np.concatenate([t for t, _ in decoded]),
                    np.concatenate([p for _, p in decoded]),
                ),
            )
        )
    return out


def test_exchange_codec_one_pass_beats_per_buffer(small_exchanges, race):
    """``auto`` over a whole 8-destination x ~45-pair exchange — sizes in
    closed form, one varint pass to encode and one to decode — is >= 3x
    encoding each buffer both ways and decoding each piece alone; wire
    bytes and decoded pairs identical."""
    fast, got, slow, want = race(
        lambda: _exchange_one_pass(*small_exchanges),
        lambda: _exchange_per_buffer(*small_exchanges),
    )
    for (send, pairs), (want_send, want_pairs) in zip(got, want):
        assert [buf.tobytes() for buf in send] == [buf.tobytes() for buf in want_send]
        assert all(np.array_equal(a, b) for a, b in zip(pairs, want_pairs))
    assert all(buf[0] == AutoCodec.DELTA_VARINT for send, _ in got for buf in send)
    _assert_speedup("one-pass exchange codec", fast, slow, MIN_EXCHANGE_SPEEDUP)


# -- varint kernels: one (position, value) grid against a pass per position --

#: Loose CI-safe bars: crawl-sized streams are call-overhead bound, where
#: the grid's fixed pass count pays most; at 2M values both sides are
#: bandwidth bound and the grid must merely not lose.
MIN_VARINT_SMALL_SPEEDUP = 1.5
MIN_VARINT_LARGE_SPEEDUP = 0.9

VARINT_LARGE_PAIRS = 1 << 20


def _varint_encode_per_position(values):
    """``varint_encode`` as it was: sizes from ``varint_sizes``, then one
    masked pass per byte position."""
    values = np.ascontiguousarray(values, dtype=np.int64).view(np.uint64)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    sizes = numpy_backend.varint_sizes(values)
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


def _varint_decode_per_position(stream):
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
    if int(lengths.max()) > numpy_backend.MAX_VARINT_BYTES:
        raise ValueError(
            f"varint longer than {numpy_backend.MAX_VARINT_BYTES} bytes in stream"
        )
    values = np.zeros(ends.size, dtype=np.uint64)
    for j in range(int(lengths.max())):
        sel = lengths > j
        group = stream[starts[sel] + j].astype(np.uint64) & np.uint64(0x7F)
        values[sel] |= group << np.uint64(7 * j)
    return values.view(np.int64)


def _varint_round_trips(batches, encode, decode):
    """``(stream, decoded values)`` of each value array."""
    out = []
    for values in batches:
        stream = encode(values)
        out.append((stream, decode(stream)))
    return out


def test_varint_kernels_beat_per_position(small_exchanges, race):
    """Encode + decode of the delta-varint values of the forty ~360-pair
    crawl exchanges is >= 1.5x the per-byte-position kernels, and of a
    1M-pair exchange (2M values, ids and parents below 2**20) >= 0.9x;
    streams and decoded values identical."""
    levels, _ranges, _everything = small_exchanges
    small = [
        kernels.pack_pairs(kernels.delta_encode(targets), parents)
        for targets, parents, _counts in levels
    ]
    rng = np.random.default_rng(29)
    large = [
        kernels.pack_pairs(
            kernels.delta_encode(np.sort(rng.integers(0, 1 << 20, VARINT_LARGE_PAIRS))),
            rng.integers(0, 1 << 20, VARINT_LARGE_PAIRS),
        )
    ]
    for values, bar, rounds in ((small, MIN_VARINT_SMALL_SPEEDUP, 7),
                                (large, MIN_VARINT_LARGE_SPEEDUP, 3)):
        fast, got, slow, want = race(
            lambda: _varint_round_trips(
                values, numpy_backend.varint_encode, numpy_backend.varint_decode
            ),
            lambda: _varint_round_trips(
                values, _varint_encode_per_position, _varint_decode_per_position
            ),
            rounds=rounds,
        )
        for (stream, decoded), (want_stream, want_decoded), v in zip(got, want, values):
            assert np.array_equal(stream, want_stream)
            assert np.array_equal(decoded, want_decoded) and np.array_equal(decoded, v)
        _assert_speedup(f"varint kernels on {len(values[0])}-value streams", fast, slow, bar)


# -- wide-level dedup: scatter-max against the composite-key sort ------------

#: Loose CI-safe bar for the dense branch over the sort it replaces.
MIN_DENSE_DEDUP_SPEEDUP = 1.5


def _dedup_max_by_sort(targets, parents):
    """``dedup_max`` as it was for non-negative parents: one quicksort of
    a (target major, parent minor) composite key, the last entry of each
    target's run kept."""
    span = np.int64(int(parents.max()) + 1)
    key = targets * span + parents
    key.sort()
    out_targets = key // span
    last = np.empty(key.size, dtype=bool)
    last[-1] = True
    np.not_equal(out_targets[1:], out_targets[:-1], out=last[:-1])
    out_targets = out_targets[last]
    return out_targets, key[last] - out_targets * span


def test_dense_dedup_max_beats_composite_sort(smoke_load, race):
    """On the scale-14 wide-level gather (targets filling their span),
    ``dedup_max``'s scatter-max branch is >= 1.5x the composite-key sort,
    with identical output."""
    targets, sources = smoke_load["targets"], smoke_load["sources"]
    span = int(targets.max()) - int(targets.min()) + 1
    assert span <= numpy_backend.DENSE_SPAN_FACTOR * targets.size
    fast, got, slow, want = race(
        lambda: numpy_backend.dedup_max(targets, sources),
        lambda: _dedup_max_by_sort(targets, sources),
    )
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    _assert_speedup("dense dedup_max", fast, slow, MIN_DENSE_DEDUP_SPEEDUP)


# -- TEPS count race: degree sum of closed sets against the edge pass --------

#: Loose CI-safe bar; measured on a noisy 2-CPU box 10x at one lane and
#: 14x at 64 lanes.
MIN_DEGREE_COUNT_SPEEDUP = 4.0


@pytest.fixture(scope="module")
def reached_words():
    """Reached-lane words of complete traversals of the scale-14 graph:
    one lane, and a 64-lane batch."""
    src, dst = rmat_edges(SMOKE_SCALE, 16, seed=5)
    csr = build_csr(1 << SMOKE_SCALE, src, dst)
    rng = np.random.default_rng(13)
    seeds = rng.choice(np.flatnonzero(csr.degrees()), MSBFS_LANES, replace=False)
    one = lane_words(bfs_serial(csr, int(seeds[0]))[0] >= 0)
    batch = lane_words(msbfs_serial(csr, seeds)[0] >= 0)
    return csr, {1: one, MSBFS_LANES: batch}


@pytest.mark.parametrize("lanes", [1, MSBFS_LANES])
def test_degree_count_beats_edge_pass(reached_words, race, lanes):
    """A search's ``m_traversed``, read off the reached vertices'
    degrees, is >= 4x the pass over every edge it replaced, with
    identical counts, at one lane and at 64."""
    csr, words = reached_words
    words = words[lanes]
    fast, got, slow, want = race(
        lambda: count_closed_lane_edges(csr, words, lanes, 1 << 30),
        lambda: count_lane_edges(csr, words, lanes, 1 << 30),
    )
    assert got == want
    _assert_speedup(f"{lanes}-lane degree count", fast, slow, MIN_DEGREE_COUNT_SPEEDUP)


# -- lane race: contiguous-slice suffix scan against the index-gather scan ---

#: Loose CI-safe bar; measured on a noisy 2-CPU box 2.4-2.5x.
MIN_LANE_SCAN_SPEEDUP = 1.5


def _suffix_winners_by_index(targets, live):
    """The lane scan as it was — a per-candidate ``depth`` array, then
    doubling passes that gather and scatter by index over the candidates
    still that deep into their run — mirrored from prefix to suffix so
    both sides read the same wire-ordered input."""
    n = targets.size
    ends = np.empty(n, dtype=bool)
    ends[-1] = True
    np.not_equal(targets[1:], targets[:-1], out=ends[:-1])
    ends = np.flatnonzero(ends)
    depth = np.repeat(ends, np.diff(ends, prepend=-1)) - np.arange(n)
    inc = live.copy()
    active = np.flatnonzero(depth)
    off = 1
    while active.size:
        inc[active] |= inc[active + off]
        off <<= 1
        active = active[depth[active] >= off]
    wins = np.empty_like(inc)
    wins[:-1] = inc[1:]
    wins[ends] = 0
    np.invert(wins, out=wins)
    wins &= live
    return wins


def test_lane_scan_contiguous_beats_index_scan(msbfs_level, race):
    """On the 16 sender inputs of the scale-14 64-lane level (~0.42 M
    candidates, put in wire order outside the race), the contiguous-slice
    suffix scan is >= 1.5x the depth + index-gather scan it replaced,
    with identical winner words."""
    inputs = []
    for targets, sources, words in msbfs_level["senders"]:
        order = np.lexsort((sources, targets))
        inputs.append((targets[order], words[order]))  # 64 lanes: every bit is live
    assert sum(t.size for t, _w in inputs) > 400_000

    def contiguous(t, w):
        return numpy_backend._wins(w, numpy_backend._suffix_or(t[:-1] == t[1:], w))

    fast, got, slow, want = race(
        lambda: [contiguous(t, w) for t, w in inputs],
        lambda: [_suffix_winners_by_index(t, w) for t, w in inputs],
    )
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    _assert_speedup("contiguous lane scan", fast, slow, MIN_LANE_SCAN_SPEEDUP)


# -- msbfs level on narrow keys: one sort per side against composite keys ----

#: Loose CI-safe bar for the whole level interior.
MIN_NARROW_LEVEL_SPEEDUP = 1.2


def _composite_wire_order(targets, sources):
    """The wire order as it was: one (target, source, input position)
    uint64 key per candidate."""
    n = targets.size
    tmin, smin = int(targets.min()), int(sources.min())
    sbits = (int(sources.max()) - smin).bit_length()
    ibits = (n - 1).bit_length()
    assert (int(targets.max()) - tmin).bit_length() + sbits + ibits <= 64
    key = (targets - np.int64(tmin)).view(np.uint64)
    key <<= np.uint64(sbits)
    key |= (sources - np.int64(smin)).view(np.uint64)
    key <<= np.uint64(ibits)
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    order = (key & np.uint64((1 << ibits) - 1)).view(np.int64)
    key >>= np.uint64(ibits)
    sources = (key & np.uint64((1 << sbits) - 1)).view(np.int64) + np.int64(smin)
    key >>= np.uint64(sbits)
    return key.view(np.int64) + np.int64(tmin), sources, order


def _composite_lane_winners(targets, sources, words):
    """``lane_winners`` as it was: the composite key, the gathered words
    permuted after the sort, a doubling scan re-comparing int64 targets
    every pass."""
    targets, sources, order = _composite_wire_order(targets, sources)
    words = words[order]
    same = targets[:-1] == targets[1:]
    after = np.zeros(targets.size, dtype=np.uint64)
    after[:-1] = words[1:] * same
    off = 1
    while same.any():
        after[:-off] |= after[off:] * same
        off <<= 1
        same = targets[:-off] == targets[off:]
    np.invert(after, out=after)
    after &= words
    return targets, sources, words, after


def _level_composite(load):
    """A level's interior on composite keys: per sender, a word gathered
    per candidate, the composite-key prune, ``owner_of`` and a
    three-key ``lexsort`` regroup into runs; at the owner, the
    composite-key resolve and the BIT_OR SPA's union."""
    part = load["part"]
    sent = []
    for targets, sources, _words in load["senders"]:
        words = load["fwords"][sources]
        targets, sources, words, wins = _composite_lane_winners(targets, sources, words)
        keep = wins != 0
        targets, sources = targets[keep], sources[keep]
        order = np.lexsort((targets, sources, part.owner_of(targets)))
        sources = sources[order]
        sent.append((targets[order], sources, load["fwords"][sources]))
    rt, rs, rw = (np.concatenate(column) for column in zip(*sent))
    fresh = rw & ~load["visit"][rt]
    alive = fresh != 0
    rt, rs, fresh = rt[alive], rs[alive], fresh[alive]
    spa = SPA(load["n"], BIT_OR)
    spa.accumulate(rt, fresh)
    reached, unions = spa.extract_and_reset()
    targets, sources, _words, wins = _composite_lane_winners(rt, rs, fresh)
    return sent, reached, unions, wins


def _level_narrow(load):
    """The same level on narrow keys: the source-word prune, the run
    regroup, the rows rebuilt from the runs, the owner's by-target sort
    and run heads."""
    part = load["part"]
    bounds = np.asarray(part.bounds)
    sent = []
    for rank, (targets, sources, _words) in enumerate(load["senders"]):
        lo, hi = part.range_of(rank)
        targets, sources, _words, _sieved = kernels.lane_prune_by_source(
            targets, sources, load["fwords"][lo:hi], lo, MSBFS_LANES
        )
        targets, run_sources, lengths, _runs, _counts = kernels.source_runs(
            targets, sources, bounds
        )
        run_words = load["fwords"][run_sources]
        sent.append(
            (targets, np.repeat(run_sources, lengths), np.repeat(run_words, lengths))
        )
    rt, rs, rw = (np.concatenate(column) for column in zip(*sent))
    fresh = rw & ~load["visit"][rt]
    alive = np.flatnonzero(fresh)
    rt, rs, fresh = rt[alive], rs[alive], fresh[alive]
    _t, _s, wins, reached, unions = kernels.lane_winners(rt, rs, fresh, MSBFS_LANES)
    return sent, reached, unions, wins


def test_msbfs_narrow_keys_beat_composite(msbfs_level, race):
    """The busiest level of the scale-14 64-lane batch — 16 senders'
    prune and run regroup, then the owner's winners and lane unions —
    is >= 1.2x on narrow keys (a narrow sort per step, unions off the
    scan's run heads) than on the composite keys, a ``lexsort`` regroup
    and the BIT_OR SPA, with identical sends, unions and winner words."""
    fast, got, slow, want = race(
        lambda: _level_narrow(msbfs_level),
        lambda: _level_composite(msbfs_level),
    )
    for g_send, w_send in zip(got[0], want[0]):
        for g, w in zip(g_send, w_send):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    _assert_speedup("narrow-key msbfs level", fast, slow, MIN_NARROW_LEVEL_SPEEDUP)


# -- 1D top-down pack: sorted candidates routed by range, no owner labels ----

PAIR_RANKS = 16

#: Loose CI-safe bar for the pack of every sender's sorted candidates;
#: measured 3.2-3.3x on a noisy 2-CPU box.
MIN_SORTED_PACK_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def pair_level(workload):
    """A wide 1D top-down level of the scale-16 graph on 16 ranks: each
    sender's deduplicated (so ascending) candidates and its channel."""
    csr = workload["csr"]
    part = Partition1D(csr.n, PAIR_RANKS)
    ranges = [VertexRange(lo, hi - lo) for lo, hi in map(part.range_of, range(PAIR_RANKS))]
    frontier = np.unique(np.random.default_rng(4).integers(0, csr.n, csr.n // 2))
    senders = []
    for rank in range(PAIR_RANKS):
        lo, hi = part.range_of(rank)
        mine = frontier[(frontier >= lo) & (frontier < hi)]
        targets, parents = dedup_candidates(*csr.gather(mine))
        comm = SimpleNamespace(size=PAIR_RANKS, rank=rank)
        senders.append((CommChannel(comm, ranges), targets, parents))
    return part, senders


def _pack_by_owner_labels(part, channel, targets, parents):
    """The pair pack as it was: an owner label per candidate, a stable
    counting sort and two gathers by it, then the encode."""
    owners = part.owner_of(targets)
    (targets, parents), counts = kernels.group_by_owner(
        owners, channel.comm.size, targets, parents
    )
    send = channel.codec.encode_pairs_many(targets, parents, counts, channel.ranges)
    payload, wire = channel._off_rank_words(2.0 * counts, send)
    return send, ExchangeInfo(int(targets.size), payload, wire, 0)


def test_sorted_pair_pack_beats_owner_labels(pair_level, race):
    """Packing 16 senders' sorted candidates is >= 1.3x faster routed by
    the channel's range bounds (one ``searchsorted`` for the counts) than
    labelled with owners and regrouped, with identical buffers and
    accounting."""
    part, senders = pair_level
    fast, got, slow, want = race(
        lambda: [channel.pack_pairs(t, p) for channel, t, p in senders],
        lambda: [_pack_by_owner_labels(part, *sender) for sender in senders],
    )
    for (g_send, g_info), (w_send, w_info) in zip(got, want, strict=True):
        assert g_info == w_info
        assert [b.tobytes() for b in g_send] == [b.tobytes() for b in w_send]
    _assert_speedup("sorted pair pack", fast, slow, MIN_SORTED_PACK_SPEEDUP)


# -- kernel 1: reused buffers and one in-place key against per-bit temporaries

KERNEL1_SCALE = 16

#: Loose CI-safe bar; measured on a noisy 2-CPU box 1.56-1.64x (the gap
#: widens with scale: freshly faulted temporaries cost more at scale 18).
MIN_KERNEL1_SPEEDUP = 1.3


def _rmat_edges_per_bit(scale, seed):
    """``rmat_edges`` as it was (Graph 500 parameters, no noise): a fresh
    draw, fresh masks and two int64 copies per bit."""
    a, b, c, _d = GRAPH500_PARAMS
    m = 16 << scale
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        draw = rng.random(m)
        src_bit = draw >= a + b
        dst_bit = ((draw >= a) & (draw < a + b)) | (draw >= a + b + c)
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    return src, dst


def _from_edges_with_copies(n, src, dst, seed):
    """``Graph.from_edges`` as it was: a permuted copy of the edges, a
    self-loop-free copy, a symmetrising ``concatenate`` pair, the key and
    ``bincount``.  Returns ``(perm, indptr, indices)``."""
    perm = random_permutation(n, seed)
    src, dst = apply_permutation(perm, src, dst)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    key = src * np.int64(n) + dst
    key.sort()
    keep = np.empty(key.size, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    src = key // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return perm, indptr, key - src * n


def test_kernel1_in_place_beats_per_bit_temporaries(race):
    """Scale-16 generate + construct on reused per-bit buffers and one
    in-place composite key is >= 1.3x the per-bit temporaries and edge
    list copies it replaced; edges, permutation and CSR identical."""
    n = 1 << KERNEL1_SCALE

    def in_place():
        src, dst = rmat_edges(KERNEL1_SCALE, 16, seed=4)
        graph = Graph.from_edges(n, src, dst, seed=4)
        return src, dst, graph.perm, graph.csr.indptr, graph.csr.indices

    def with_temporaries():
        src, dst = _rmat_edges_per_bit(KERNEL1_SCALE, seed=4)
        return (src, dst, *_from_edges_with_copies(n, src, dst, seed=4))

    fast, got, slow, want = race(in_place, with_temporaries, rounds=3)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    _assert_speedup("in-place kernel 1", fast, slow, MIN_KERNEL1_SPEEDUP)

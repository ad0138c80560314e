"""The batched-query subsystem: lanes, the source-run wire, and the driver API.

The centerpiece is the acceptance criterion of the ``repro.query``
subsystem: a full 64-lane ``msbfs-1d`` run is **lane-for-lane
bit-identical** to 64 independent single-source serial oracle runs —
batching is a pure throughput device, never an approximation.  Around it
sit the supporting contracts: the sender-side lane-dominance prune
preserves every lane's (select, max) winner, the source-run wire
format ships each (destination, source) run's lane word once and
rebuilds every candidate row through every codec, and the driver
surfaces the structural refusals (sieve, bitmap, missing sources) as
friendly config-time errors.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.comm import CommChannel, Sieve, VertexRange
from repro.comm.codecs import RunLayout, bytes_to_words
from repro.core import run_bfs
from repro.core.frontier import bitmap_words, dedup_candidates
from repro.core.validate import count_lane_edges, count_traversed_edges, lane_words
from repro.graphs import Graph
from repro.graphs.csr import build_csr
from repro.graphs.rmat import rmat_graph
from repro.mpsim import run_spmd
from repro.query import WORD_LANES, lane_bit, msbfs_serial, run_query
from repro.query.msbfs import resolve_lane_winners

from tests.conftest import CODEC_FORMS, make_path_graph

NPROCS = 4


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, 8, seed=5)


@pytest.fixture(scope="module")
def batch64(graph):
    return [int(s) for s in graph.random_nonisolated_vertices(64, seed=1)]


class TestBitParallelEquivalence:
    def test_full_batch_matches_64_serial_runs(self, graph, batch64):
        """The acceptance criterion: every lane of one 64-way traversal
        is bit-identical to its own single-source serial oracle run."""
        res = run_query(graph, sources=batch64, nprocs=NPROCS, validate=True)
        assert res.batch == WORD_LANES
        assert res.levels.shape == res.parents.shape == (graph.n, WORD_LANES)
        for b, s in enumerate(batch64):
            ref = run_bfs(graph, s, "serial")
            lane_levels, lane_parents = res.lane(b)
            assert np.array_equal(lane_levels, ref.levels), f"lane {b}"
            assert np.array_equal(lane_parents, ref.parents), f"lane {b}"

    def test_batch_composition_is_irrelevant(self, graph, batch64):
        """A lane's result depends only on its own source: the same
        source embedded in two different batches yields identical lanes."""
        res_full = run_query(graph, sources=batch64, nprocs=NPROCS)
        res_small = run_query(graph, sources=batch64[:3], nprocs=NPROCS)
        for b in range(3):
            assert np.array_equal(res_full.levels[:, b], res_small.levels[:, b])
            assert np.array_equal(res_full.parents[:, b], res_small.parents[:, b])

    @pytest.mark.parametrize("dedup_sends", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("width", [1, 2, 3, 31, 32, 33, 63, 64])
    def test_every_width_matches_the_oracle(self, graph, batch64, width, dedup_sends):
        """Batches that fill part of the lane word, up to and across its
        halves, with and without the sender-side prune: the lanes in use
        equal ``msbfs_serial`` and no unused lane leaks into the result."""
        sources = batch64[:width]
        res = run_query(graph, sources=sources, nprocs=NPROCS, dedup_sends=dedup_sends)
        assert res.batch == width
        assert res.levels.shape == res.parents.shape == (graph.n, width)
        internal = np.asarray(graph.to_internal(np.array(sources)), dtype=np.int64)
        levels, parents = msbfs_serial(graph.csr, internal)
        for b in range(width):
            assert np.array_equal(res.levels[:, b], graph.relabel_level_array(levels[:, b]))
            assert np.array_equal(res.parents[:, b], graph.relabel_vertex_array(parents[:, b]))

    @pytest.mark.parametrize("codec", ["raw", "auto"])
    def test_unpruned_multigraph_matches_the_oracle(self, graph, batch64, codec, monkeypatch):
        """A non-canonical CSR (every edge twice) without the
        prune: a source reaches a target twice, the pack ships the
        repeated (target, source) pair once — it carries one lane word
        either way, and a run that ships as a bitmap could not carry it
        twice — and every lane still equals ``msbfs_serial``."""
        csr = graph.csr
        src = np.repeat(np.arange(csr.n), np.diff(csr.indptr))
        twice = build_csr(
            csr.n, np.tile(src, 2), np.tile(csr.indices, 2), symmetrize=False, dedup=False
        )
        multigraph = Graph(csr=twice, m_input=graph.m_input, directed=False)
        assert not twice.is_canonical()
        repeats = []
        pack_runs = CommChannel.pack_runs

        def recording(channel, targets, srcs, words):
            send, info = pack_runs(channel, targets, srcs, words)
            repeats.append(targets.size - info.pairs)
            return send, info

        monkeypatch.setattr(CommChannel, "pack_runs", recording)
        sources = np.array(batch64[:5], dtype=np.int64)
        res = run_query(
            multigraph, sources=sources, nprocs=NPROCS, dedup_sends=False, codec=codec
        )
        assert sum(repeats) > 0
        levels, parents = msbfs_serial(csr, sources)
        assert np.array_equal(res.levels, levels) and np.array_equal(res.parents, parents)

    def test_serial_oracle_matches_per_source_bfs(self, graph, batch64):
        """``msbfs_serial`` (the validator's reference) is itself just a
        stack of single-source serial traversals."""
        srcs = np.array(
            [int(np.asarray(graph.to_internal(s))) for s in batch64[:5]],
            dtype=np.int64,
        )
        levels, parents = msbfs_serial(graph.csr, srcs)
        for b, s in enumerate(batch64[:5]):
            ref = run_bfs(graph, s, "serial")
            assert np.array_equal(
                graph.relabel_level_array(levels[:, b]), ref.levels
            )
            assert np.array_equal(
                graph.relabel_vertex_array(parents[:, b]), ref.parents
            )


class TestLaneDominancePrune:
    def _random_triples(self, rng, nlanes, size):
        targets = rng.integers(0, 12, size).astype(np.int64)
        sources = rng.integers(0, 100, size).astype(np.int64)
        words = rng.integers(1, 1 << nlanes, size).astype(np.uint64)
        return targets, sources, words

    def test_per_lane_winners_survive_and_runs_are_bounded(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            nlanes = int(rng.integers(1, 9))
            t, s, w = self._random_triples(rng, nlanes, int(rng.integers(1, 80)))
            pt, ps, pw = kernels.lane_prune(t, s, w, nlanes)
            # At most nlanes survivors per target.
            _, counts = np.unique(pt, return_counts=True)
            assert counts.max() <= nlanes
            # Every lane's max-source contributor per target survives
            # with its full word, so the owner-side (select, max) race
            # has the same winner from the pruned set.
            for b in range(nlanes):
                has = (w & lane_bit(b)) != 0
                for target in np.unique(t[has]):
                    want = s[has & (t == target)].max()
                    kept = (pw & lane_bit(b)) != 0
                    got = ps[kept & (pt == target)].max()
                    assert got == want, (trial, b, target)

    def test_prune_is_deterministic_and_sorted(self):
        rng = np.random.default_rng(3)
        t, s, w = self._random_triples(rng, 4, 50)
        perm = rng.permutation(t.size)
        a = kernels.lane_prune(t, s, w, 4)
        b = kernels.lane_prune(t[perm], s[perm], w[perm], 4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        pt, ps, _ = a
        order = np.lexsort((ps, pt))
        assert np.array_equal(order, np.arange(pt.size))

    def test_empty_input_passes_through(self):
        e = np.empty(0, dtype=np.int64)
        ew = np.empty(0, dtype=np.uint64)
        pt, ps, pw = kernels.lane_prune(e, e, ew, 8)
        assert pt.size == ps.size == pw.size == 0


def _per_lane_update(targets, sources, fresh, nlanes):
    """The executable spec of the owner-side update: one
    ``dedup_candidates`` (select, max) pass per lane over the candidates
    carrying that lane, as ``MSBFS1D.step`` did it before the winner
    kernel.  Returns sorted ``(target, lane, parent)`` rows."""
    rows = []
    for b in range(nlanes):
        mask = (fresh & lane_bit(b)) != 0
        if not mask.any():
            continue
        tb, sb = dedup_candidates(targets[mask], sources[mask])
        rows += [(int(t), b, int(p)) for t, p in zip(tb, sb)]
    return sorted(rows)


class TestOnePassUpdate:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nlanes=st.sampled_from([1, 2, 7, 31, 63, 64]),
        size=st.integers(0, 120),
        ntargets=st.integers(1, 9),
    )
    def test_equals_per_lane_dedup(self, seed, nlanes, size, ntargets):
        """Random received triples with several contenders per (target,
        lane) slot, already-visited lanes masked off as the step does."""
        rng = np.random.default_rng(seed)
        lo = 40
        rt = rng.integers(lo, lo + ntargets, size)
        rs = rng.integers(0, 25, size)
        lane_mask = np.uint64((1 << nlanes) - 1)
        rw = rng.integers(0, 1 << 63, size, dtype=np.uint64) & lane_mask
        visit = rng.integers(0, 1 << 63, ntargets, dtype=np.uint64)
        fresh = rw & ~visit[rt - lo]
        alive = fresh != 0
        rt, rs, fresh = rt[alive], rs[alive], fresh[alive]

        wt, lanes, ws = resolve_lane_winners(rt, rs, fresh, nlanes)
        got = sorted(zip(wt.tolist(), lanes.tolist(), ws.tolist()))
        assert got == _per_lane_update(rt, rs, fresh, nlanes)
        # One row per slot, so the step's fancy write never races itself.
        assert len({(t, b) for t, b, _ in got}) == len(got)
        assert wt.dtype == ws.dtype == np.int64


def _raw_target_frame_spec(runs, rng):
    """One destination's raw target frame, run by run: a run of more
    targets than the ``bitmap_words(nbits)`` words of the destination's
    range ships as that range's presence bitmap, any other run as its
    targets."""
    width = bitmap_words(rng.nbits)
    frame = []
    for run in runs:
        if len(run) > width:
            bitmap = [0] * width
            for t in run:
                bitmap[(t - rng.lo) // 64] |= 1 << ((t - rng.lo) % 64)
            frame += [word - (1 << 64) if word >> 63 else word for word in bitmap]
        else:
            frame += run
    return np.array(frame, dtype=np.int64)


def _target_frame_spec(codec, runs, rng):
    """One destination's target frame: raw ships each run as its targets
    or its range's bitmap, whichever is smaller (the targets on a tie);
    delta-varint a ``[count, nbytes]`` header and the LEB128 bytes of
    each run's first offset into the destination's range and its gaps;
    auto the smaller of raw and delta-varint, raw on a tie (and no tag
    either way)."""
    raw = _raw_target_frame_spec(runs, rng)
    if codec.name == "raw":
        return raw
    targets = [t for run in runs for t in run]
    gaps = [t - (rng.lo if i == 0 else run[i - 1]) for run in runs for i, t in enumerate(run)]
    stream = kernels.varint_encode(np.array(gaps, dtype=np.int64))
    packed = np.concatenate([[len(targets), stream.size], bytes_to_words(stream)])
    return raw if codec.name == "auto" and packed.size >= raw.size else packed


def _pack_spec(channel, targets, sources, source_words):
    """The run layout, written out one destination at a time: the
    destination's distinct candidates grouped by source, sources
    ascending and targets ascending within each group; then a header
    word, the codec's ``(source, run length)`` frame, one lane word per
    run and the codec's target frame."""
    mine = channel.ranges[channel.comm.rank]
    send = []
    for rng in channel.ranges:
        runs: dict[int, list[int]] = {}
        for s, tgt in sorted(set(zip(sources.tolist(), targets.tolist()))):
            if rng.lo <= tgt < rng.lo + rng.nbits:
                runs.setdefault(s, []).append(tgt)
        if not runs:
            send.append(np.empty(0, dtype=np.int64))
            continue
        run_sources = np.array(list(runs), dtype=np.int64)
        lengths = np.array([len(run) for run in runs.values()], dtype=np.int64)
        frame = channel.codec.encode_pairs(run_sources, lengths, mine)
        words = np.asarray(source_words, dtype=np.uint64)[run_sources - mine.lo]
        send.append(
            np.concatenate(
                [
                    np.array([frame.size], dtype=np.int64),
                    frame,
                    words.view(np.int64),
                    _target_frame_spec(channel.codec, list(runs.values()), rng),
                ]
            )
        )
    return send


@st.composite
def run_exchanges(draw):
    """Every sender's candidates of one exchange over ranges of uneven
    sizes, some empty and some several bitmap words wide: sources in
    the sender's own range (a few of them, so runs run long, or any),
    repeated (target, source) rows, in the lane prune's order or not,
    and lane words with bit 63 set."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nranks = draw(st.integers(1, 5))
    sizes = rng.integers(0, draw(st.sampled_from([24, 200])), nranks)
    spread = draw(st.sampled_from([3, None]))
    sizes[int(rng.integers(nranks))] += 1  # at least one vertex
    starts = 5 + np.concatenate([[0], np.cumsum(sizes)[:-1]])
    ranges = [VertexRange(int(lo), int(n)) for lo, n in zip(starts, sizes)]
    ordered = draw(st.booleans())
    senders = []
    for rng_r in ranges:
        size = int(rng.integers(0, 120)) if rng_r.nbits else 0
        targets = rng.integers(5, 5 + sizes.sum(), size)
        sources = rng_r.lo + rng.integers(0, max(min(rng_r.nbits, spread or rng_r.nbits), 1), size)
        if size > 1:
            dup = rng.integers(0, size, size // 3 + 1)
            targets[dup[1:]], sources[dup[1:]] = targets[dup[:-1]], sources[dup[:-1]]
        if ordered:
            order = np.lexsort((sources, targets))
            targets, sources = targets[order], sources[order]
        words = rng.integers(0, 1 << 63, rng_r.nbits, dtype=np.uint64) << np.uint64(1)
        senders.append((targets, sources, words))
    codec = draw(st.sampled_from(["raw", "delta-varint", "auto"]))
    return ranges, senders, codec


def _channel(ranges, rank, codec):
    comm = SimpleNamespace(size=len(ranges), rank=rank)
    return CommChannel(comm, ranges, codec=CODEC_FORMS[codec]())


class TestRunWire:
    """The source-run exchange: its layout, its accounting, the round
    trip through every codec, and what it refuses."""

    @settings(max_examples=60, deadline=None)
    @given(exchange=run_exchanges())
    def test_pack_is_the_layout_spec(self, exchange):
        ranges, senders, codec = exchange
        for rank, (targets, sources, words) in enumerate(senders):
            channel = _channel(ranges, rank, codec)
            columns = [a.copy() for a in (targets, sources)]
            send, info = channel.pack_runs(targets, sources, words)
            want = _pack_spec(channel, targets, sources, words)
            assert [buf.tobytes() for buf in send] == [buf.tobytes() for buf in want]
            assert all(buf.dtype == np.int64 for buf in send)
            for given_col, kept in zip((targets, sources), columns):
                assert np.array_equal(given_col, kept)
            # Candidates and runs count every destination, a repeated
            # (target, source) row once; the payload is ``3R + K`` per
            # off-rank buffer, whatever form its targets ship in.
            runs = [
                np.unique(_owned(ranges, j, targets, sources)[1]).size
                for j in range(len(ranges))
            ]
            distinct = set(zip(targets.tolist(), sources.tolist()))
            assert info.pairs == len(distinct) and info.runs == sum(runs)
            off = [j for j in range(len(ranges)) if j != rank]
            ks = [
                len(set(zip(*(c.tolist() for c in _owned(ranges, j, targets, sources)))))
                for j in off
            ]
            assert info.payload_words == sum(3 * runs[j] + k for j, k in zip(off, ks))
            assert info.wire_words == sum(send[j].size for j in off)

    @settings(max_examples=60, deadline=None)
    @given(exchange=run_exchanges())
    def test_round_trip_rebuilds_every_row(self, exchange):
        """What each rank decodes is one ``(target, source, word)`` row
        per distinct candidate addressed to it: pieces in rank order,
        each in (source, target) order."""
        ranges, senders, codec = exchange
        sent = [
            _channel(ranges, rank, codec).pack_runs(*sender)[0]
            for rank, sender in enumerate(senders)
        ]
        for dst, rng_d in enumerate(ranges):
            rt, rs, rx, _layout = _channel(ranges, dst, codec)._decode_runs(
                [buffers[dst] for buffers in sent]
            )
            want = []
            for rank, (targets, sources, words) in enumerate(senders):
                t, s = _owned(ranges, dst, targets, sources)
                lo = ranges[rank].lo
                want += sorted(
                    {
                        (int(si), int(ti), int(words[si - lo].view(np.int64)))
                        for ti, si in zip(t.tolist(), s.tolist())
                    }
                )
            got = list(zip(rs.tolist(), rt.tolist(), rx.tolist()))
            assert got == want
            assert rt.dtype == rs.dtype == rx.dtype == np.int64

    def test_raw_buffer_ships_long_runs_as_range_bitmaps(self):
        """``1 + 3R`` words plus, per run, its targets or — when it holds
        more than the ``B = bitmap_words(nbits)`` words of its
        destination's range — that range's bitmap.  Rank 1's 70-bit
        range takes ``B = 2``: source 2's two targets tie and ship raw,
        source 5's four ship as two bitmap words, bit 69 in the second.
        The repeated (12, 5) row ships once."""
        ranges = [VertexRange(0, 8), VertexRange(8, 70)]
        channel = _channel(ranges, 0, "raw")
        words = np.arange(8, dtype=np.uint64) + np.uint64(1 << 63)
        targets = np.array([12, 9, 3, 12, 9, 15, 77, 12], dtype=np.int64)
        sources = np.array([5, 5, 2, 2, 2, 5, 5, 5], dtype=np.int64)
        send, info = channel.pack_runs(targets, sources, words)
        w = words.view(np.int64)
        assert send[0].tolist() == [2, 2, 1, w[2], 3]
        bitmap = [(1 << 1) | (1 << 4) | (1 << 7), 1 << 5]
        assert send[1].tolist() == [4, 2, 2, 5, 4, w[2], w[5], 9, 12, *bitmap]
        assert info.runs == 3 and info.pairs == 7
        # Rank 0's own buffer stays off the books; the payload is the
        # logical ``3R + K``.
        assert info.payload_words == 3 * 2 + 6
        assert info.wire_words == send[1].size == 1 + 3 * 2 + 2 + 2
        received = [send[1], np.empty(0, dtype=np.int64)]
        rt, rs, rx, layout = _channel(ranges, 1, "raw")._decode_runs(received)
        assert rt.tolist() == [9, 12, 9, 12, 15, 77]
        assert rs.tolist() == [2, 2, 5, 5, 5, 5] and layout.lengths.tolist() == [2, 4]
        assert rx.tolist() == [w[2]] * 2 + [w[5]] * 4

    def test_raw_bitmap_runs_are_charged_on_both_sides(self):
        """Packing and unpacking a bitmap run is charged even under raw:
        streaming of its bitmap words and one int op per target it
        carries.  Source 5's run of 4 targets into the 70-bit range is
        the one bitmap run (2 words); source 2's tie ships raw, free."""
        calls = []

        class Recording:
            def intops(self, ops, **counters):
                calls.append(("intops", ops))

            def stream(self, words, **counters):
                calls.append(("stream", words))

        ranges = [VertexRange(0, 8), VertexRange(8, 70)]
        targets = np.array([12, 9, 12, 9, 15, 77], dtype=np.int64)
        sources = np.array([5, 5, 2, 2, 5, 5], dtype=np.int64)
        sender = CommChannel(
            SimpleNamespace(size=2, rank=0), ranges, codec="raw", charger=Recording()
        )
        send, info = sender.pack_runs(targets, sources, np.arange(8, dtype=np.uint64))
        assert calls == [("intops", 4.0), ("stream", 2.0)]
        calls.clear()
        comm = SimpleNamespace(
            size=2, rank=1,
            stats=SimpleNamespace(record_channel=lambda *args, **kwargs: None),
            alltoallv=lambda buffers: [send[1], np.empty(0, dtype=np.int64)],
        )
        receiver = CommChannel(comm, ranges, codec="raw", charger=Recording())
        rt, _rs, _rx = receiver.exchange_runs([send[0], send[1]], info, level=1)
        assert rt.tolist() == [9, 12, 9, 12, 15, 77]
        assert calls == [("intops", 4.0), ("stream", 2.0)]
        # Runs no longer than their range's bitmap cost nothing extra.
        calls.clear()
        sender.pack_runs(targets[:1], sources[:1], np.arange(8, dtype=np.uint64))
        assert calls == []

    @pytest.mark.parametrize("codec", ["raw", "auto"])
    def test_each_side_builds_the_run_layout_once(self, monkeypatch, codec):
        """Each ``pack_runs`` and each ``exchange_runs`` of an
        ``msbfs-1d`` batch builds its :class:`RunLayout` exactly once;
        the codec and the bitmap charge read that one layout.  On the
        scale-9 golden graph (4 ranks, 8 lanes) the raw senders ship 323
        of 831 runs as their range's bitmap."""
        # Ranks run on threads: each build goes to its own thread's call.
        here = threading.local()
        stray = []
        build = RunLayout.build.__func__

        def counting(cls, *args, **kwargs):
            layout = build(cls, *args, **kwargs)
            getattr(here, "built", stray).append(layout)
            return layout

        monkeypatch.setattr(RunLayout, "build", classmethod(counting))
        sides = {"pack_runs": [], "exchange_runs": []}
        for name, calls in sides.items():

            def wrapped(self, *args, _method=getattr(CommChannel, name), _calls=calls, **kw):
                here.built = []
                try:
                    return _method(self, *args, **kw)
                finally:
                    _calls.append(here.built)
                    del here.built

            monkeypatch.setattr(CommChannel, name, wrapped)
        graph = rmat_graph(scale=9, edgefactor=8, seed=5)
        sources = graph.random_nonisolated_vertices(8, seed=3)
        run_query(graph, sources=sources, algorithm="msbfs-1d", nprocs=4, codec=codec)
        packs, exchanges = sides["pack_runs"], sides["exchange_runs"]
        assert len(packs) == len(exchanges) > 4
        assert [len(built) for built in packs + exchanges] == [1] * (2 * len(packs))
        assert stray == []
        sent = [built[0] for built in packs]
        assert sum(int(layout.bitmap.sum()) for layout in sent) == 323
        assert sum(layout.lengths.size for layout in sent) == 831

    def test_exchange_runs_through_the_collective(self):
        def fn(comm):
            per = 16
            ranges = [VertexRange(per * r, per) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec="auto")
            dst = (comm.rank + 1) % comm.size
            # Two sources, each reaching the same six targets of the next
            # rank: two runs, twelve candidates.
            targets = np.tile(np.arange(per * dst, per * dst + 6, dtype=np.int64), 2)
            sources = per * comm.rank + np.repeat([3, 7], 6)
            words = np.arange(per, dtype=np.uint64) * np.uint64(13)
            send, info = channel.pack_runs(targets, sources, words)
            rt, rs, rx = channel.exchange_runs(send, info, level=0)
            src = (comm.rank - 1) % comm.size
            assert rs.tolist() == (per * src + np.repeat([3, 7], 6)).tolist()
            assert np.array_equal(rx, 13 * (rs - per * src))  # words ride their runs
            assert rt.tolist() == 2 * list(range(per * comm.rank, per * comm.rank + 6))
            assert info.payload_words == 3.0 * 2 + 12
            return True

        assert all(run_spmd(3, fn).returns)

    def test_channel_refuses_sieve_bitmap_and_a_short_word_table(self):
        def fn(comm):
            ranges = [VertexRange(8 * r, 8) for r in range(comm.size)]
            t = np.array([0], dtype=np.int64)
            words = np.zeros(8, dtype=np.uint64)
            sieved = CommChannel(
                comm, ranges, codec="raw", sieve=Sieve(8 * comm.size)
            )
            with pytest.raises(ValueError, match="sieve"):
                sieved.pack_runs(t, t + 8 * comm.rank, words)
            plain = CommChannel(comm, ranges, codec="raw")
            with pytest.raises(ValueError, match="one source word per owned vertex"):
                plain.pack_runs(t, t + 8 * comm.rank, words[:-1])
            # The bitmap pair form is gone: the name is unknown.
            with pytest.raises(ValueError, match="unknown codec 'bitmap'"):
                CommChannel(comm, ranges, codec="bitmap")
            return True

        res = run_spmd(2, fn)
        assert all(res.returns)


def _owned(ranges, dst, targets, sources):
    """The candidates whose target lies in ``ranges[dst]``."""
    rng = ranges[dst]
    keep = (rng.lo <= targets) & (targets < rng.lo + rng.nbits)
    return targets[keep], sources[keep]


class TestLaneSieve:
    """The lane sieve built into the prune: each rank keeps, per target,
    the lanes it has shipped for it, and races only the others."""

    @pytest.mark.parametrize("width", [1, 5, 64])
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 16])
    def test_no_rank_reships_a_lane_and_lanes_match_the_oracle(
        self, graph, batch64, nprocs, width, monkeypatch
    ):
        """Every candidate a rank packs carries a lane it never shipped
        for that target before, the sieve drops some candidate, and
        every lane still equals ``msbfs_serial``."""
        shipped = {}  # rank -> the OR of every word it shipped, per target
        pack_runs = CommChannel.pack_runs

        def recording(channel, targets, srcs, words):
            rank = channel.comm.rank
            seen = shipped.setdefault(rank, np.zeros(graph.n, dtype=np.uint64))
            carried = np.asarray(words, dtype=np.uint64)[srcs - channel.ranges[rank].lo]
            assert np.all(carried & ~seen[targets]), f"rank {rank} re-ships shipped lanes"
            np.bitwise_or.at(seen, targets, carried)
            return pack_runs(channel, targets, srcs, words)

        monkeypatch.setattr(CommChannel, "pack_runs", recording)
        sources = batch64[:width]
        res = run_query(graph, sources=sources, nprocs=nprocs, machine="hopper")
        assert sorted(shipped) == list(range(nprocs))
        assert sum(c.counters.get("sieve_dropped", 0) for c in res.stats.clocks) > 0
        internal = np.asarray(graph.to_internal(np.array(sources)), dtype=np.int64)
        levels, parents = msbfs_serial(graph.csr, internal)
        for b in range(width):
            assert np.array_equal(res.levels[:, b], graph.relabel_level_array(levels[:, b]))
            assert np.array_equal(res.parents[:, b], graph.relabel_vertex_array(parents[:, b]))


class TestRunWireVolume:
    """The run layout's wire volume on a real batch."""

    def test_raw_batch_ships_one_plus_three_words_per_run_plus_targets(self, monkeypatch):
        """A raw 64-lane batch on 16 ranks: the alltoallv wire words are
        ``1 + 3R + sum(min(L, B))`` summed over every off-rank non-empty
        buffer, ``R`` its runs, ``L`` a run's length and ``B`` the
        bitmap words of the destination's range; some run ships as its
        bitmap, and the wire is under 2.25 words per shipped candidate —
        a triple per candidate shipped more than 3."""
        graph = rmat_graph(10)
        sources = graph.random_nonisolated_vertices(64, seed=1)
        buffers = []  # (run lengths, bitmap words) per off-rank non-empty buffer
        pack_runs = CommChannel.pack_runs

        def recording(channel, targets, srcs, words):
            for dst in range(channel.comm.size):
                if dst != channel.comm.rank:
                    t, s = _owned(channel.ranges, dst, targets, srcs)
                    if t.size:
                        _run_sources, lengths = np.unique(s, return_counts=True)
                        buffers.append((lengths, bitmap_words(channel.ranges[dst].nbits)))
            return pack_runs(channel, targets, srcs, words)

        monkeypatch.setattr(CommChannel, "pack_runs", recording)
        result = run_query(
            graph, sources=sources, algorithm="msbfs-1d", nprocs=16,
            machine="hopper", codec="raw", validate=True,
        )
        wire = result.stats.words_sent("alltoallv")
        shipped = sum(int(lengths.sum()) for lengths, _b in buffers)
        raw_targets = sum(1 + 3 * lengths.size + int(lengths.sum()) for lengths, _b in buffers)
        assert shipped > 10_000
        assert wire == sum(
            1 + 3 * lengths.size + int(np.minimum(lengths, b).sum()) for lengths, b in buffers
        )
        assert wire < raw_targets
        assert wire < 2.25 * shipped < 0.75 * sum(1 + 3 * lengths.sum() for lengths, _b in buffers)


class TestLanesAtOnceEdgeCount:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nlanes=st.sampled_from([1, 7, 12, 30, 64]),
        directed=st.booleans(),
        with_m_input=st.booleans(),
    )
    def test_equals_per_lane_counts(self, seed, nlanes, directed, with_m_input):
        """Any reached sets (not only BFS ones), one lane reaching
        nothing, duplicate input edges so the ``m_input`` rounding is
        exercised per lane."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 4 * n))
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        src, dst = np.concatenate([src, src[: m // 3]]), np.concatenate([dst, dst[: m // 3]])
        graph = Graph.from_edges(n, src, dst, symmetrize=not directed, seed=seed)
        levels = rng.integers(-1, 3, (n, nlanes))
        levels[:, int(rng.integers(nlanes))] = -1
        m_input = graph.m_input if with_m_input else None
        want = [
            count_traversed_edges(graph.csr, levels[:, b], m_input)
            for b in range(nlanes)
        ]
        assert count_lane_edges(graph.csr, lane_words(levels >= 0), nlanes, m_input) == want

    def test_query_total_is_the_per_lane_sum(self, graph, batch64):
        res = run_query(graph, sources=batch64[:9], nprocs=NPROCS)
        levels_int = np.empty_like(res.levels)
        levels_int[np.asarray(graph.to_internal(np.arange(graph.n)))] = res.levels
        assert res.m_traversed == sum(
            count_traversed_edges(graph.csr, levels_int[:, b], graph.m_input)
            for b in range(9)
        )


class TestDriverApi:
    def test_sources_required_and_bounded(self, graph):
        with pytest.raises(ValueError, match="sources"):
            run_query(graph, nprocs=2)
        with pytest.raises(ValueError, match="batch size"):
            run_query(graph, sources=list(range(WORD_LANES + 1)), nprocs=2)
        with pytest.raises(ValueError, match="out of range"):
            run_query(graph, sources=[graph.n], nprocs=2)

    def test_config_and_kwargs_are_exclusive(self, graph):
        from repro.core.runner import RunConfig

        config = RunConfig(algorithm="msbfs-1d", sources=(1,), nprocs=2)
        with pytest.raises(TypeError, match="not both"):
            run_query(graph, config=config, nprocs=2)
        res = run_query(graph, config=config)
        assert res.batch == 1

    def test_bfs_kinds_are_redirected(self, graph):
        with pytest.raises(ValueError, match="single-source BFS"):
            run_query(graph, sources=[1], algorithm="1d", nprocs=2)
        with pytest.raises(ValueError, match="single-source BFS"):
            run_query(graph, algorithm="1d", nprocs=2)

    def test_structural_refusals_surface_at_config_time(self, graph):
        with pytest.raises(ValueError, match="sieve"):
            run_query(graph, sources=[1], nprocs=2, sieve=True)
        for name in ("bitmap", "delta-varint"):
            with pytest.raises(ValueError, match=f"unknown codec '{name}'"):
                run_query(graph, sources=[1], nprocs=2, codec=name)
            with pytest.raises(ValueError, match=f"unknown codec '{name}'"):
                run_bfs(graph, 1, "1d", nprocs=2, codec=name)
        for name in ("cc", "sssp-delta", "landmark"):
            with pytest.raises(ValueError, match=f"unknown algorithm '{name}'"):
                run_query(graph, sources=[1], algorithm=name, nprocs=2)

    def test_non_integer_sources_are_refused(self):
        """A float source used to truncate to a vertex id and a bool to
        pass for 0 or 1; every way a batch arrives now refuses both."""
        from repro.core.runner import RunConfig, prepare

        path = make_path_graph(3)
        for batch in ([0.7, 1.9], [True], [1, np.float64(2.0)], np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="vertex ids must be integers"):
                run_query(path, sources=batch, nprocs=2)
        with pytest.raises(ValueError, match=r"got 1\.5"):
            run_query(path, config=RunConfig(algorithm="msbfs-1d", sources=(1.5, 0.2)))
        with pytest.raises(ValueError, match="got True"):
            run_query(path, config=RunConfig(algorithm="msbfs-1d", sources=(True,)))
        session = prepare(path, RunConfig(algorithm="msbfs-1d", nprocs=2))
        with pytest.raises(ValueError, match=r"got np\.False_|got False"):
            session.query(np.array([False]))
        # Python and numpy integers of any width still run.
        res = session.query([np.int32(2), 0, np.uint8(1)])
        assert res.sources.tolist() == [2, 0, 1]
        assert res.lane(0)[0].tolist() == [2, 1, 0]
        assert session.query(np.int64(1)).sources.tolist() == [1]

    def test_result_helpers(self, graph, batch64):
        res = run_query(
            graph, sources=batch64[:4], nprocs=2, machine="hopper"
        )
        assert res.source == batch64[0]
        assert res.modeled_cores == res.nranks * res.threads
        assert res.gteps() > 0
        assert res.queries_per_second() == pytest.approx(4 / res.time_total)
        untimed = run_query(graph, sources=batch64[:2], nprocs=2)
        with pytest.raises(ValueError, match="untimed"):
            untimed.gteps()
        with pytest.raises(ValueError, match="untimed"):
            untimed.queries_per_second()

    def test_batching_amortizes_modeled_latency(self, graph, batch64):
        """More lanes per traversal means more queries per modeled
        second — the whole point of the subsystem.  (The full 1..64
        sweep with the >= 8x acceptance bar lives in
        ``benchmarks/test_query_throughput.py``.)"""
        one = run_query(graph, sources=batch64[:1], nprocs=NPROCS, machine="hopper")
        sixteen = run_query(
            graph, sources=batch64[:16], nprocs=NPROCS, machine="hopper"
        )
        assert (
            sixteen.queries_per_second() > 2.0 * one.queries_per_second()
        )

"""The batched-query subsystem: lanes, wire triples, and the driver API.

The centerpiece is the acceptance criterion of the ``repro.query``
subsystem: a full 64-lane ``msbfs-1d`` run is **lane-for-lane
bit-identical** to 64 independent single-source serial oracle runs —
batching is a pure throughput device, never an approximation.  Around it
sit the supporting contracts: the sender-side lane-dominance prune
preserves every lane's (select, max) winner, the triple wire format
keeps its raw extra column row-aligned through every codec and rejects
damaged buffers, and the driver surfaces the structural refusals
(sieve, bitmap, missing sources) as friendly config-time errors.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import CodecError, CommChannel, DeltaVarintCodec, Sieve, VertexRange
from repro.core import run_bfs
from repro.core.frontier import dedup_candidates
from repro.core.validate import count_lane_edges, count_traversed_edges, lane_words
from repro.graphs import Graph
from repro.graphs.rmat import rmat_graph
from repro.kernels import bucket_by_owner
from repro.mpsim import run_spmd
from repro.query import (
    WORD_LANES,
    close_lane_classes,
    lane_bit,
    msbfs_serial,
    prune_lane_candidates,
    run_query,
)
from repro.query.msbfs import resolve_lane_winners

from tests.conftest import CODEC_FORMS

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
            pt, ps, pw = prune_lane_candidates(t, s, w, nlanes)
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
        a = prune_lane_candidates(t, s, w, 4)
        b = prune_lane_candidates(t[perm], s[perm], w[perm], 4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        pt, ps, _ = a
        order = np.lexsort((ps, pt))
        assert np.array_equal(order, np.arange(pt.size))

    def test_empty_input_passes_through(self):
        e = np.empty(0, dtype=np.int64)
        ew = np.empty(0, dtype=np.uint64)
        pt, ps, pw = prune_lane_candidates(e, e, ew, 8)
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


def _pack_spec(channel, targets, values, extras, owners):
    """The formulation ``pack_triples`` replaced, kept as its spec: stable
    bucket by owner, then one three-key lexsort per destination."""
    buckets, _ = bucket_by_owner(
        owners, channel.comm.size, targets, values, extras
    )
    send = []
    for dst, (t, v, x) in enumerate(buckets):
        if t.size == 0:
            send.append(np.empty(0, dtype=np.int64))
            continue
        order = np.lexsort((x, v, t))
        t, v, x = t[order], v[order], x[order]
        pair_buf = channel.codec.encode_pairs(t, v, channel.ranges[dst])
        send.append(
            np.concatenate([np.array([pair_buf.size], dtype=np.int64), pair_buf, x])
        )
    return send


class TestTripleWire:
    """The (target, value, extra) exchange: alignment and damage detection."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        codec=st.sampled_from(["raw", "delta-varint", "auto"]),
        nranks=st.integers(1, 5),
        size=st.integers(0, 90),
        wide=st.booleans(),
    )
    def test_single_sort_pack_is_byte_identical(self, seed, codec, nranks, size, wide):
        """Duplicate ``(target, value)`` rows with different extras (an
        SSSP level), extras with bit 63 set (lane words), and owners
        drawn per row — not monotone in the target, not even a function
        of it, so every rank's range spans all targets (``auto`` checks
        packed targets against it); ``wide`` values overflow the
        composite key and take the lexsort path."""
        rng = np.random.default_rng(seed)
        comm = SimpleNamespace(size=nranks, rank=int(rng.integers(nranks)))
        ranges = [VertexRange(0, 16 * nranks)] * nranks
        channel = CommChannel(comm, ranges, codec=CODEC_FORMS[codec]())
        targets = rng.integers(0, 16 * nranks, size)
        values = rng.integers(0, 4, size)
        if wide:
            values = values * ((1 << 62) - 1)
        extras = rng.integers(-(1 << 63), 1 << 63, size)
        extras[rng.random(size) < 0.3] = 7  # full-row duplicates too
        owners = rng.integers(0, nranks, size)

        send, info = channel.pack_triples(targets, values, extras, owners)
        want = _pack_spec(channel, targets, values, extras, owners)
        assert len(send) == len(want) == nranks
        for got_buf, want_buf in zip(send, want):
            assert got_buf.dtype == want_buf.dtype
            assert got_buf.tobytes() == want_buf.tobytes()
        assert info.pairs == size

    @pytest.mark.parametrize("codec", ["raw", "delta-varint", "auto"])
    @pytest.mark.parametrize("shape", ["pruned", "pruned-reversed", "sssp-ties"])
    def test_ordered_input_pack_is_byte_identical(self, codec, shape):
        """The no-sort path: triples straight from the lane prune are
        already in wire order; reversed they take the sort; SSSP rows
        tying on (owner, target, value) with unordered extras keep the
        extras fix-up on an ordered key — and the caller's columns stay
        untouched."""
        nranks, per = 4, 16
        rng = np.random.default_rng(17)
        comm = SimpleNamespace(size=nranks, rank=1)
        ranges = [VertexRange(per * r, per) for r in range(nranks)]
        channel = CommChannel(comm, ranges, codec=CODEC_FORMS[codec]())
        if shape == "sssp-ties":
            targets = np.repeat(np.arange(0, per * nranks, 3), 3)
            values = targets // 2
            extras = rng.integers(-(1 << 63), 1 << 63, targets.size)
        else:
            targets, values, words = prune_lane_candidates(
                rng.integers(0, per * nranks, 400),
                rng.integers(0, 200, 400),
                rng.integers(0, 1 << 63, 400, dtype=np.uint64) << np.uint64(1),
                WORD_LANES,
            )
            extras = words.view(np.int64)
            if shape == "pruned-reversed":
                targets, values, extras = targets[::-1], values[::-1], extras[::-1]
        owners = targets // per
        columns = [a.copy() for a in (targets, values, extras, owners)]
        send, info = channel.pack_triples(targets, values, extras, owners)
        want = _pack_spec(channel, *columns)
        assert [buf.tobytes() for buf in send] == [buf.tobytes() for buf in want]
        assert info.pairs == targets.size
        for given_col, kept in zip((targets, values, extras, owners), columns):
            assert np.array_equal(given_col, kept)

    def test_pack_rejects_out_of_range_owners(self):
        comm = SimpleNamespace(size=2, rank=0)
        channel = CommChannel(comm, [VertexRange(0, 8), VertexRange(8, 8)])
        t = np.array([1, 9], dtype=np.int64)
        for owners in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match=r"owners out of range \[0, 2\)"):
                channel.pack_triples(t, t, t, np.array(owners, dtype=np.int64))

    @pytest.mark.parametrize("codec", ["raw", "delta-varint", "auto"])
    def test_roundtrip_keeps_extras_row_aligned(self, codec):
        def fn(comm):
            per = 16
            ranges = [VertexRange(per * r, per) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec=CODEC_FORMS[codec]())
            dst = (comm.rank + 1) % comm.size
            # Duplicate targets with distinct values — exactly what a
            # lane batch ships — tied to their extras by construction.
            targets = np.repeat(
                np.arange(per * dst, per * dst + 6, dtype=np.int64), 2
            )
            values = np.arange(12, dtype=np.int64) + 50 * comm.rank
            extras = values * 13 + 2
            owners = np.full(12, dst, dtype=np.int64)
            send, info = channel.pack_triples(targets, values, extras, owners)
            rt, rv, rx = channel.exchange_triples(send, info, level=0)
            assert rt.size == rv.size == rx.size == 12
            assert np.array_equal(rx, rv * 13 + 2)  # row alignment held
            assert np.all((per * comm.rank <= rt) & (rt < per * comm.rank + 6))
            assert info.payload_words == 3.0 * 12
            return True

        res = run_spmd(3, fn)
        assert all(res.returns)

    def test_damaged_buffers_raise_codec_error(self):
        def fn(comm):
            per = 8
            ranges = [VertexRange(per * r, per) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec=DeltaVarintCodec())
            dst = (comm.rank + 1) % comm.size
            targets = np.arange(per * dst, per * dst + 4, dtype=np.int64)
            values = targets * 7 + 1
            extras = targets * 13 + 2
            owners = np.full(4, dst, dtype=np.int64)
            send, _ = channel.pack_triples(targets, values, extras, owners)
            buf, ctx = send[dst], ranges[dst]
            # Truncation desyncs the extras column behind the header.
            with pytest.raises(CodecError):
                channel._decode_triples([buf[:-1]], ctx)
            # A header claiming more pair words than the buffer holds.
            bad = buf.copy()
            bad[0] = buf.size + 5
            with pytest.raises(CodecError):
                channel._decode_triples([bad], ctx)
            # A negative header is equally out of bounds.
            bad = buf.copy()
            bad[0] = -1
            with pytest.raises(CodecError):
                channel._decode_triples([bad], ctx)
            return True

        res = run_spmd(2, fn)
        assert all(res.returns)

    def test_channel_refuses_sieve_and_bitmap(self):
        def fn(comm):
            ranges = [VertexRange(8 * r, 8) for r in range(comm.size)]
            t = np.array([0], dtype=np.int64)
            owners = np.array([0], dtype=np.int64)
            sieved = CommChannel(
                comm, ranges, codec="raw", sieve=Sieve(8 * comm.size)
            )
            with pytest.raises(ValueError, match="sieve"):
                sieved.pack_triples(t, t, t, owners)
            # The bitmap pair form is gone: the name is unknown.
            with pytest.raises(ValueError, match="unknown codec 'bitmap'"):
                CommChannel(comm, ranges, codec="bitmap")
            return True

        res = run_spmd(2, fn)
        assert all(res.returns)


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


class TestCloseLaneClasses:
    def test_chain_merges_into_one_class(self):
        # Lane 0 co-occurs with 1, lane 1 with 2: all three share a
        # component and must close to the same mask.
        masks = np.array(
            [0b011, 0b111, 0b110, 0b1000], dtype=np.uint64
        )
        closed = close_lane_classes(masks)
        assert closed[0] == closed[1] == closed[2] == np.uint64(0b111)
        assert closed[3] == np.uint64(0b1000)  # untouched singleton

    def test_closure_is_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k = int(rng.integers(1, 16))
            masks = rng.integers(0, 1 << k, k).astype(np.uint64)
            masks |= np.uint64(1) << np.arange(k, dtype=np.uint64)  # self bits
            once = close_lane_classes(masks)
            assert np.array_equal(close_lane_classes(once), once)


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
        with pytest.raises(ValueError, match="sources"):
            run_query(graph, sources=[1], algorithm="cc", nprocs=2)
        with pytest.raises(ValueError, match="landmarks"):
            run_query(
                graph, sources=[1], nprocs=2, landmarks=4
            )

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
        cc = run_query(graph, algorithm="cc", nprocs=2)
        with pytest.raises(ValueError, match="lanes"):
            cc.lane(0)

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

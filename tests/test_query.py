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
    lane_bit,
    msbfs_serial,
    prune_lane_candidates,
    run_query,
)
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


def _pack_spec(channel, targets, values, extras):
    """The formulation ``pack_triples`` replaced, kept as its spec: stable
    bucket by the owner of each target's range, then one three-key
    lexsort per destination."""
    owners = [
        next(r for r, rng in enumerate(channel.ranges) if rng.lo <= t < rng.lo + rng.nbits)
        for t in targets.tolist()
    ]
    buckets, _ = bucket_by_owner(
        np.asarray(owners, dtype=np.int64), channel.comm.size, targets, values, extras
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
        """Unordered triples routed by contiguous ranges of uneven
        sizes (some empty), with duplicate ``(target, value)`` rows and
        extras with bit 63 set: each extra is a function of its (target,
        value), as an msbfs lane word is of its (target, source) row;
        ``wide`` values overflow the composite key and take the lexsort
        path."""
        rng = np.random.default_rng(seed)
        comm = SimpleNamespace(size=nranks, rank=int(rng.integers(nranks)))
        sizes = rng.integers(0, 24, nranks)
        sizes[int(rng.integers(nranks))] += 1  # at least one vertex
        starts = 5 + np.concatenate([[0], np.cumsum(sizes)[:-1]])
        ranges = [VertexRange(int(lo), int(n)) for lo, n in zip(starts, sizes)]
        channel = CommChannel(comm, ranges, codec=CODEC_FORMS[codec]())
        targets = rng.integers(5, 5 + sizes.sum(), size)
        slots = rng.integers(0, 4, size)
        values = slots * ((1 << 62) - 1) if wide else slots
        table = rng.integers(-(1 << 63), 1 << 63, (5 + sizes.sum(), 4))
        table[:, 2] = 7  # equal extras across targets too
        extras = table[targets, slots]

        send, info = channel.pack_triples(targets, values, extras)
        want = _pack_spec(channel, targets, values, extras)
        assert len(send) == len(want) == nranks
        for got_buf, want_buf in zip(send, want):
            assert got_buf.dtype == want_buf.dtype
            assert got_buf.tobytes() == want_buf.tobytes()
        assert info.pairs == size

    @pytest.mark.parametrize("codec", ["raw", "delta-varint", "auto"])
    @pytest.mark.parametrize("shape", ["pruned", "pruned-reversed", "unpruned"])
    def test_ordered_input_pack_is_byte_identical(self, codec, shape):
        """The no-sort path: triples straight from the lane prune are
        already in wire order; reversed they take the sort, as do the
        raw candidates of ``dedup_sends=False`` — and the caller's
        columns stay untouched.  Each candidate carries its source's
        frontier word, as in an msbfs level, so repeated (target,
        source) rows repeat their extra too."""
        nranks, per = 4, 16
        rng = np.random.default_rng(17)
        comm = SimpleNamespace(size=nranks, rank=1)
        ranges = [VertexRange(per * r, per) for r in range(nranks)]
        channel = CommChannel(comm, ranges, codec=CODEC_FORMS[codec]())
        sources = rng.integers(0, 200, 400)
        frontier_words = rng.integers(0, 1 << 63, 200, dtype=np.uint64) << np.uint64(1)
        targets = rng.integers(0, per * nranks, 400)
        if shape == "unpruned":
            # Every (target, source) row appears twice, as a multi-edge
            # makes it, and keeps its row order.
            targets, values = np.repeat(targets, 2), np.repeat(sources, 2)
            words = frontier_words[values]
        else:
            targets, values, words = prune_lane_candidates(
                targets, sources, frontier_words[sources], WORD_LANES
            )
        extras = words.view(np.int64)
        if shape == "pruned-reversed":
            targets, values, extras = targets[::-1], values[::-1], extras[::-1]
        columns = [a.copy() for a in (targets, values, extras)]
        send, info = channel.pack_triples(targets, values, extras)
        want = _pack_spec(channel, *columns)
        assert [buf.tobytes() for buf in send] == [buf.tobytes() for buf in want]
        assert info.pairs == targets.size
        for given_col, kept in zip((targets, values, extras), columns):
            assert np.array_equal(given_col, kept)

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
            send, info = channel.pack_triples(targets, values, extras)
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
            send, _ = channel.pack_triples(targets, values, extras)
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
            sieved = CommChannel(
                comm, ranges, codec="raw", sieve=Sieve(8 * comm.size)
            )
            with pytest.raises(ValueError, match="sieve"):
                sieved.pack_triples(t, t, t)
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

"""CommChannel accounting: payload/wire stats, sieve, and reporting.

The channel is the only seam between the algorithms and the wire, so
these tests pin its bookkeeping contract: raw is the identity (wire ==
payload, self-buckets excluded), codecs shrink the wire without touching
the decoded multiset, the sieve drops exactly the already-shipped
targets, and everything lands in ``SimStats.summary()``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.comm import CommChannel, DeltaVarintCodec, Sieve, VertexRange
from repro.core import run_bfs
from repro.graphs.rmat import rmat_graph
from repro.mpsim import run_spmd


class TestPairAccounting:
    def test_raw_is_identity_and_excludes_self_bucket(self):
        """One pair to every rank (self included): payload counts only
        the off-rank pairs, and raw wire words equal payload words."""

        def fn(comm):
            ranges = [VertexRange(4 * r, 4) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec="raw")
            targets = np.arange(comm.size, dtype=np.int64) * 4
            parents = np.full(comm.size, comm.rank, dtype=np.int64)
            send, info = channel.pack_pairs(targets, parents)
            rv, rp = channel.exchange_pairs(send, info, level=0)
            assert info.pairs == comm.size
            assert info.payload_words == 2.0 * (comm.size - 1)
            assert info.wire_words == info.payload_words
            assert info.dropped == 0
            # Every rank addressed vertex 4*rank to this rank's range.
            assert rv.size == comm.size
            assert np.all(rv == 4 * comm.rank)
            assert np.array_equal(np.sort(rp), np.arange(comm.size))
            return True

        res = run_spmd(4, fn)
        assert all(res.returns)
        assert res.stats.payload_words("alltoallv") == 4 * 6.0
        assert res.stats.wire_words("alltoallv") == 4 * 6.0
        assert res.stats.compression_ratio("alltoallv") == 1.0

    def test_delta_varint_shrinks_wire_and_preserves_pairs(self):
        """A consecutive id block delta-encodes to 1-byte varints: the
        wire shrinks well past 2x and the decoded pairs are intact."""

        def fn(comm):
            per = 128
            ranges = [VertexRange(per * r, per) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec=DeltaVarintCodec())
            dst = (comm.rank + 1) % comm.size
            targets = np.arange(per * dst, per * (dst + 1), dtype=np.int64)
            parents = np.full(per, comm.rank, dtype=np.int64)
            send, info = channel.pack_pairs(targets, parents)
            rv, rp = channel.exchange_pairs(send, info, level=3)
            assert info.payload_words == 2.0 * per
            assert 0 < info.wire_words < info.payload_words / 2
            assert np.array_equal(
                np.sort(rv), np.arange(per * comm.rank, per * (comm.rank + 1))
            )
            assert np.all(rp == (comm.rank - 1) % comm.size)
            return True

        res = run_spmd(4, fn)
        assert all(res.returns)
        stats = res.stats
        assert 0 < stats.wire_words("alltoallv") < stats.payload_words("alltoallv")
        assert stats.compression_ratio("alltoallv") > 2.0
        summary = stats.summary()
        for key in (
            "total_payload_words",
            "total_wire_words",
            "compression_ratio",
            "sieve_dropped_candidates",
            "words_by_kind",
            "payload_by_kind",
            "words_by_level",
        ):
            assert key in summary, key
        assert 3 in summary["words_by_level"]
        assert summary["compression_ratio"] > 2.0

    def test_sieve_drops_resends_exactly_once(self):
        def fn(comm):
            ranges = [VertexRange(8 * r, 8) for r in range(comm.size)]
            sieve = Sieve(8 * comm.size)
            channel = CommChannel(comm, ranges, codec="raw", sieve=sieve)
            dst = (comm.rank + 1) % comm.size
            targets = np.arange(8 * dst, 8 * dst + 4, dtype=np.int64)
            parents = np.zeros(4, dtype=np.int64)
            send, first = channel.pack_pairs(targets, parents)
            channel.exchange_pairs(send, first, level=0)
            send, second = channel.pack_pairs(targets, parents)
            channel.exchange_pairs(send, second, level=1)
            assert first.dropped == 0 and first.pairs == 4
            assert second.dropped == 4 and second.pairs == 0
            assert second.payload_words == second.wire_words == 0.0
            assert sieve.dropped == 4
            return True

        res = run_spmd(3, fn)
        assert all(res.returns)
        assert res.stats.sieve_dropped == 3 * 4


class TestRangeRouting:
    """Pair and run packs route each target by the channel's range
    bounds: the first range's start plus the sizes before each range.
    Under the diagonal vector distribution all but one of a processor
    row's ranges are empty, the non-empty one anywhere in the row."""

    @pytest.mark.parametrize("owner", [0, 1, 2])
    def test_pairs_and_runs_reach_the_one_non_empty_range(self, owner):
        def fn(comm):
            ranges = [VertexRange(16, 8 if j == owner else 0) for j in range(3)]
            channel = CommChannel(comm, ranges, codec="raw")
            assert channel._bounds.tolist() == [16] + [16 + 8 * (j >= owner) for j in range(3)]
            targets = np.array([16, 19, 23], dtype=np.int64)
            parents = targets + 100 * comm.rank
            send, info = channel.pack_pairs(targets, parents)
            rv, rp = channel.exchange_pairs(send, info, level=0)
            mine = comm.rank == owner
            # Only the owner has sources: a rank that owns nothing ships
            # no runs.
            sources = np.array([23, 17, 23] if mine else [], dtype=np.int64)
            words = np.arange(8, dtype=np.uint64) * np.uint64(3) if mine else []
            send, info = channel.pack_runs(targets[: sources.size], sources, words)
            rt, rs, rx = channel.exchange_runs(send, info, level=1)
            assert rv.size == (9 if mine else 0)
            assert rt.size == (3 if mine else 0)
            if mine:
                want = sorted(t + 100 * r for r in range(3) for t in (16, 19, 23))
                assert sorted(rp.tolist()) == want
                assert np.array_equal(rp - rv, 100 * (rp // 100))
                assert rt.tolist() == [19, 16, 23] and rs.tolist() == [17, 23, 23]
                assert np.array_equal(rx, 3 * (rs - 16))
            return True

        assert all(run_spmd(3, fn).returns)

    @pytest.mark.parametrize(
        "los,sizes",
        [([64, 64, 64], [64, 64, 64]), ([0, 8], [4, 4]), ([8, 0], [8, 8])],
        ids=["overlapping", "gap", "out-of-order"],
    )
    def test_ranges_that_do_not_tile_cannot_route(self, los, sizes):
        comm = SimpleNamespace(size=len(los), rank=0)
        ranges = [VertexRange(lo, size) for lo, size in zip(los, sizes)]
        channel = CommChannel(comm, ranges)
        t = np.array([los[0]], dtype=np.int64)
        with pytest.raises(ValueError, match="do not tile one interval"):
            channel.pack_pairs(t, t)
        with pytest.raises(ValueError, match="do not tile one interval"):
            channel.pack_runs(t, t, np.zeros(sizes[0], dtype=np.uint64))


class TestGatherAccounting:
    @pytest.mark.parametrize(
        "los,nbits",
        [
            ([0, 64, 128], 64),  # tiling [0, n): the 1D bottom-up expand
            ([64, 64, 64], 64),  # identical overlapping: a 2D column block
            ([100, 132, 164], 32),  # disjoint, offset from zero: a 2D block row
        ],
        ids=["tiling", "overlapping", "offset"],
    )
    def test_gather_mask_counts_words_and_marks_sieve(self, los, nbits):
        base, top = min(los), max(los) + nbits
        # Two vertices of its own per rank, plus one that every rank
        # contributes when the ranges coincide (the OR-union case).
        shared = [los[0] + 40] if len(set(los)) == 1 else []
        contributions = [
            [lo + 2 * r, lo + 2 * r + 1] + shared for r, lo in enumerate(los)
        ]
        want = sorted({v for vs in contributions for v in vs})

        def fn(comm):
            ranges = [VertexRange(lo, nbits) for lo in los]
            sieve = Sieve(256)
            channel = CommChannel(comm, ranges, codec="raw", sieve=sieve)
            mine = np.array(contributions[comm.rank], dtype=np.int64)
            mask, info = channel.gather_mask(mine, level=0)
            # Index i of the mask is vertex base + i.
            assert mask.size == top - base
            assert (np.flatnonzero(mask) + base).tolist() == want
            assert info.pairs == mine.size and info.dropped == 0
            assert info.payload_words == info.wire_words == 1.0  # <= 64 bits
            # The gathered vertices are discovered: exactly they are marked.
            assert np.flatnonzero(sieve.seen).tolist() == want
            return True

        res = run_spmd(3, fn)
        assert all(res.returns)
        assert res.stats.calls("allgatherv") == 1
        assert res.stats.payload_words("allgatherv") == 3 * 1.0
        assert res.stats.wire_words("allgatherv") == 3 * 1.0

    def test_allgatherv_vertices_rank_order(self):
        def fn(comm):
            ranges = [VertexRange(10 * r, 10) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec=DeltaVarintCodec())
            mine = np.array([10 * comm.rank + 1, 10 * comm.rank + 7], np.int64)
            gathered, info = channel.allgatherv_vertices(mine, level=2)
            want = np.concatenate(
                [[10 * r + 1, 10 * r + 7] for r in range(comm.size)]
            )
            assert np.array_equal(gathered, want)
            assert info.payload_words == 2.0
            return True

        assert all(run_spmd(3, fn).returns)


class TestSummaryMixedCollectives:
    def test_per_level_breakdowns_exclude_control_collectives(self):
        """A realistic level interleaves channel-routed exchanges with
        control collectives (allreduce termination test, barrier): the
        per-level payload/wire breakdowns must cover exactly the channel
        kinds while ``words_by_kind`` still counts everything."""

        def fn(comm):
            per = 16
            ranges = [VertexRange(per * r, per) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec="raw")
            for level in (1, 2):
                dst = (comm.rank + 1) % comm.size
                targets = np.arange(per * dst, per * dst + 4, dtype=np.int64)
                send, info = channel.pack_pairs(targets, targets)
                channel.exchange_pairs(send, info, level=level)
                if level == 2:
                    mine = np.array([per * comm.rank], dtype=np.int64)
                    channel.allgatherv_vertices(mine, level=level)
                comm.allreduce(np.int64(1))  # control: no level attribution
            comm.barrier()
            return True

        res = run_spmd(3, fn)
        assert all(res.returns)
        summary = res.stats.summary()

        by_level = summary["words_by_level"]
        assert set(by_level) == {1, 2}
        assert set(by_level[1]) == {"alltoallv"}
        assert set(by_level[2]) == {"alltoallv", "allgatherv"}
        # 3 ranks x 4 pairs x 2 words, all off-rank, raw codec.
        assert by_level[1]["alltoallv"] == 3 * 8.0
        assert by_level[2]["allgatherv"] == 3 * 1.0

        # Control collectives appear in the per-kind totals but never in
        # the channel's payload/wire accounting.
        assert "allreduce" in summary["words_by_kind"]
        assert "allreduce" not in summary["payload_by_kind"]
        payload_by_level = res.stats.payload_by_level()
        assert set(payload_by_level) == {1, 2}
        assert payload_by_level[1]["alltoallv"] == 3 * 8.0

        # Channel totals reconcile with the per-level breakdowns.
        wire_total = sum(
            words for kinds in by_level.values() for words in kinds.values()
        )
        assert summary["total_wire_words"] == wire_total
        assert summary["total_payload_words"] == wire_total  # raw codec
        # The wire's grand total also includes the control collectives.
        assert summary["total_words_sent"] > wire_total


class TestValidationAndReporting:
    def test_channel_requires_one_range_per_rank(self):
        def fn(comm):
            with pytest.raises(ValueError, match="VertexRange per group rank"):
                CommChannel(comm, [VertexRange(0, 4)] * (comm.size + 1))
            return True

        assert all(run_spmd(2, fn).returns)

    @pytest.mark.parametrize("codec", ["auto"])
    def test_misrouted_target_fails_at_pack_time(self, codec):
        """A candidate bucketed to a rank that does not own it is caught
        before it reaches the wire, whichever format ``auto`` would have
        picked for the buffer (here: delta-varint, by a wide margin).
        The channel routes by its own ranges, so the misrouted bucket is
        handed to its codec directly; the channel itself routes it right."""

        def fn(comm):
            ranges = [VertexRange(4096 * r, 4096) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec=codec)
            targets = np.array([10, 20, 4096 + 30], dtype=np.int64)
            with pytest.raises(ValueError, match=r"out of owned range \[0, 4096\)"):
                channel.codec.encode_pairs_many(
                    targets, targets, np.array([3, 0]), ranges
                )
            _send, info = channel.pack_pairs(targets, targets)
            assert info.pairs == 3
            return True

        assert all(run_spmd(2, fn).returns)

    def test_misrouted_run_fails_at_pack_time(self):
        """The run site routes by the same range bounds as the pair
        site: a target outside every range, or a source outside the
        sender's own range, fails at pack time, and targets inside them
        land in their owners' buffers, so ``auto`` never sees a
        misrouted lane candidate."""

        def fn(comm):
            ranges = [VertexRange(4096 * r, 4096) for r in range(comm.size)]
            channel = CommChannel(comm, ranges, codec="auto")
            words = np.arange(4096, dtype=np.uint64)
            base = 4096 * comm.rank
            for bad in (-1, 4096 * comm.size):
                targets = np.array([10, bad], dtype=np.int64)
                with pytest.raises(ValueError, match=r"out of range \[0, 8192\)"):
                    channel.pack_runs(targets, base + targets % 7, words)
            for bad in (base - 1, base + 4096):
                sources = np.array([base, bad], dtype=np.int64)
                with pytest.raises(ValueError, match="sender's range"):
                    channel.pack_runs(np.array([10, 20]), sources, words)
            for targets in ([10, 20, 4096 + 30], [4096 + 30]):
                targets = np.array(targets, dtype=np.int64)
                send, info = channel.pack_runs(targets, base + targets % 2, words)
                assert info.pairs == targets.size
                assert send[1][-1] == 4096 + 30  # the owner's last target
            return True

        assert all(run_spmd(2, fn).returns)

    def test_serial_families_reject_wire_options(self):
        graph = rmat_graph(6, 8, seed=5)
        with pytest.raises(ValueError, match="codec/sieve"):
            run_bfs(graph, 0, "serial", codec=DeltaVarintCodec())
        with pytest.raises(ValueError, match="codec/sieve"):
            run_bfs(graph, 0, "graph500-ref", nprocs=2, sieve=True)

    def test_codec_run_ships_fewer_wire_words_than_payload(self):
        graph = rmat_graph(8, 8, seed=2)
        res = run_bfs(
            graph, 17, "1d", nprocs=4, codec=DeltaVarintCodec(), sieve=True
        )
        stats = res.stats
        assert stats.wire_words("alltoallv") < stats.payload_words("alltoallv")

    def test_codec_run_breaks_wire_and_payload_down_by_level(self):
        graph = rmat_graph(8, 8, seed=2)
        res = run_bfs(
            graph, 17, "1d", nprocs=4, codec=DeltaVarintCodec(), sieve=True
        )
        stats = res.stats
        summary = stats.summary()
        wire = summary["words_by_level"]
        payload = stats.payload_by_level()
        assert set(wire) == set(payload) and len(wire) > 1
        for level, by_kind in payload.items():
            assert wire[level]["alltoallv"] <= by_kind["alltoallv"]
        assert sum(w["alltoallv"] for w in wire.values()) == stats.wire_words("alltoallv")
        assert summary["payload_by_kind"]["alltoallv"] == sum(
            p["alltoallv"] for p in payload.values()
        )
        assert summary["compression_ratio"] > 1.0

"""Failure injection and robustness tests for the SPMD engine."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.comm import RawCodec
from repro.core.bfs1d import TopDown1D
from repro.core.bfs_dirop import DirOpt1D
from repro.core.engine import traversal_body
from repro.graphs.rmat import rmat_graph
from repro.mpsim import SpmdFailure, run_spmd
from repro.runtime import BACKENDS
from repro.runtime.threads import ThreadsEngine


def assert_deadlock_aborts(nranks, fn):
    """Every way a deadlocked run must end, one per scheduler.

    ``threads`` and ``processes`` wait until their (here 0.5 s) timeout
    breaks the wait; ``sequential`` is given no timeout and must name the
    deadlock the moment every live rank is blocked.
    """
    for name in ("threads", "processes"):
        with pytest.raises(SpmdFailure, match="failed") as info:
            run_spmd(nranks, fn, runtime=name, timeout=0.5)
        assert isinstance(info.value.exc, TimeoutError), name
    start = time.perf_counter()
    with pytest.raises(SpmdFailure) as info:
        run_spmd(nranks, fn, runtime="sequential")
    assert time.perf_counter() - start < 1.0
    assert isinstance(info.value.exc, TimeoutError)
    assert str(info.value.exc).startswith("deadlock: every live rank is blocked")


class TestAbortPaths:
    def test_exception_in_combine_phase(self):
        """A rank crashing mid-collective releases peers blocked in it."""

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("dies before the collective")
            comm.allreduce(1)

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_spmd(4, fn)

    def test_exception_in_subcommunicator(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            if comm.rank == 1:
                raise ValueError("odd group member dies")
            sub.barrier()
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(4, fn)

    @pytest.mark.parametrize("runtime_name", BACKENDS)
    def test_exception_while_peer_waits_at_collective(self, runtime_name):
        """Rank 0, parked in the collective when rank 1 fails, is released."""

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.05)
                raise RuntimeError("peer never arrives")
            comm.allreduce(1)

        with pytest.raises(SpmdFailure, match="rank 1 failed") as info:
            run_spmd(2, fn, runtime=runtime_name, timeout=30.0)
        assert isinstance(info.value.exc, RuntimeError)

    def test_multiple_failures_report_first(self):
        def fn(comm):
            raise KeyError(f"rank {comm.rank}")

        with pytest.raises(RuntimeError, match="failed"):
            run_spmd(3, fn)

    def test_mismatched_collectives_abort_not_hang(self):
        """Rank 0 calls a different collective than the others; the
        deterministic protocol still exchanges payloads (the mismatch is
        a semantic bug), but a hard *count* mismatch — one rank exiting
        early — must abort (timeout or structural detection) rather than
        hang."""

        def fn(comm):
            if comm.rank == 0:
                return None  # leaves the group short-handed
            comm.barrier()

        assert_deadlock_aborts(2, fn)


class TestBottomUpExpandFailure:
    def test_crash_inside_bitmap_allgatherv_releases_peers(self):
        """A rank dying inside the bottom-up expand must not leave the
        other ranks hung in the bitmap ``Allgatherv``: the engine aborts
        the collective and surfaces the originating rank."""

        class FailingComm:
            """Delegating wrapper whose allgatherv raises on one rank."""

            def __init__(self, comm, fail_rank):
                self._comm = comm
                self._fail_rank = fail_rank

            def __getattr__(self, name):
                return getattr(self._comm, name)

            def allgatherv(self, buf, concat=True):
                if self._comm.rank == self._fail_rank:
                    raise RuntimeError("NIC falls over mid-expand")
                return self._comm.allgatherv(buf, concat=concat)

        graph = rmat_graph(9, 16, seed=1)
        source = int(
            np.asarray(
                graph.to_internal(
                    int(graph.random_nonisolated_vertices(1, seed=2)[0])
                )
            )
        )

        def fn(comm):
            # alpha huge -> the very first level runs bottom-up, so every
            # surviving rank is parked inside the real allgatherv when
            # rank 1 raises.
            return traversal_body(
                FailingComm(comm, fail_rank=1),
                DirOpt1D,
                (graph.csr, source),
                {"alpha": 1e9},
            )

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(4, fn)

    def test_healthy_ranks_complete_without_injection(self):
        # Control: the same harness with no failing rank terminates.
        graph = rmat_graph(9, 16, seed=1)
        source = int(
            np.asarray(
                graph.to_internal(
                    int(graph.random_nonisolated_vertices(1, seed=2)[0])
                )
            )
        )
        res = run_spmd(
            4, traversal_body, DirOpt1D, (graph.csr, source), {"alpha": 1e9}
        )
        assert all(r["nlevels"] >= 1 for r in res.returns)


def _rmat_case():
    graph = rmat_graph(9, 16, seed=1)
    source = int(
        np.asarray(
            graph.to_internal(
                int(graph.random_nonisolated_vertices(1, seed=2)[0])
            )
        )
    )
    return graph, source


class TestMidDecodeFailure:
    def test_crash_mid_decode_releases_peers(self):
        """A rank raising while decoding its received buffers dies *after*
        the Alltoallv but before the termination Allreduce; the peers are
        already parked in (or heading into) the next collective and must
        be released with the originating rank reported, not deadlock."""
        graph, source = _rmat_case()

        def fn(comm):
            class FailingDecode(RawCodec):
                def decode_pairs(self, wire, ctx=None):
                    if comm.rank == 1:
                        raise RuntimeError("bit flip in the receive buffer")
                    return super().decode_pairs(wire, ctx)

            # Codec *instances* are accepted wherever names are; that is
            # what makes this injection possible from outside the comm
            # package.
            return traversal_body(
                comm, TopDown1D, (graph.csr, source), {"codec": FailingDecode()}
            )

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(4, fn)

    def test_codec_instance_control_completes(self):
        # Control: the same harness minus the injected raise terminates
        # and matches the name-configured raw codec.
        graph, source = _rmat_case()
        args = (graph.csr, source)
        res = run_spmd(4, traversal_body, TopDown1D, args, {"codec": RawCodec()})
        ref = run_spmd(4, traversal_body, TopDown1D, args, {"codec": "raw"})
        for got, want in zip(res.returns, ref.returns):
            assert np.array_equal(got["levels"], want["levels"])
            assert np.array_equal(got["parents"], want["parents"])


class TestTimeout:
    def test_timeout_breaks_deadlock(self):
        def fn(comm):
            sub = comm.split(color=0)  # the same members, another group
            if comm.rank == 0:
                sub.barrier()  # rank 1 never joins the sub-communicator
            else:
                comm.barrier()  # rank 0 never joins the world

        assert_deadlock_aborts(2, fn)


class TestEngineValidation:
    def test_bad_nranks(self):
        with pytest.raises(ValueError, match="nranks"):
            ThreadsEngine(0)

    def test_results_preserved_before_failure(self):
        """Ranks that returned before the abort keep their results...
        but the run as a whole still raises."""

        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("late failure")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(2, fn)

    def test_non_collective_work_unaffected_by_abort_machinery(self):
        def fn(comm):
            data = np.arange(100)
            comm.charge_compute(0.0, touched=float(data.sum()))
            return int(data.sum())

        res = run_spmd(3, fn)
        assert res.returns == [4950] * 3
        assert res.stats.counter("touched") == 3 * 4950


class TestCommunicatorValidation:
    def test_bad_destinations(self):
        def fn(comm):
            with pytest.raises(ValueError, match="out of range"):
                comm.exchange(9, np.array([1]))
            with pytest.raises(ValueError, match="out of range"):
                comm.exchange(-1, np.array([1]))
            return True

        assert all(run_spmd(2, fn).returns)

    def test_alltoallv_wrong_buffer_count(self):
        def fn(comm):
            with pytest.raises(ValueError, match="send buffers"):
                comm.alltoallv([np.array([1])])  # needs comm.size buffers
            return True

        assert all(run_spmd(3, fn).returns)


class TestFailurePickling:
    """Failure exceptions cross process boundaries intact (the process
    runtime ships them over a pipe; the default exception reduction
    would replay ``__init__`` with the formatted message and crash)."""

    def test_spmd_failure_round_trips_rank_exc_stats(self):
        import pickle

        def fn(comm):
            comm.allreduce(comm.rank)
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(SpmdFailure) as info:
            run_spmd(3, fn)
        failure = info.value
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.rank == failure.rank == 1
        assert isinstance(clone.exc, ValueError)
        assert clone.exc.args == ("boom",)
        assert str(clone) == str(failure)
        # The partial stats at abort time survive too: how far each
        # rank's clock got before the run died.
        assert clone.stats.makespan == failure.stats.makespan
        assert len(clone.stats.clocks) == 3

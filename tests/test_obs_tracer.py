"""Tracer mechanics: nesting, level inheritance, null-object path."""

from __future__ import annotations

import numpy as np

from repro.core import run_bfs
from repro.mpsim import run_spmd
from repro.obs import (
    NULL_RANK_TRACER,
    NULL_TRACER,
    Tracer,
    resolve_tracer,
)
from repro.obs.tracer import _NULL_HANDLE


class _Clock:
    """Stand-in for a RankClock: only ``.time`` is read by the tracer."""

    def __init__(self):
        self.time = 0.0


class _Comm:
    def __init__(self, rank, clock):
        self.global_rank = rank
        self.clock = clock


class TestSpans:
    def test_nesting_depth_and_parent_indices(self):
        clock = _Clock()
        rt = Tracer().for_rank(_Comm(0, clock))
        with rt.span("level", level=1):
            clock.time = 1.0
            with rt.span("td-scan"):
                clock.time = 2.0
            with rt.span("td-exchange"):
                clock.time = 5.0
        outer, scan, exch = rt.spans
        assert (outer.depth, scan.depth, exch.depth) == (0, 1, 1)
        assert outer.parent is None
        assert scan.parent == exch.parent == 0
        assert outer.t_start == 0.0 and outer.t_end == 5.0
        assert scan.duration == 1.0 and exch.duration == 3.0

    def test_level_inherited_from_enclosing_span(self):
        clock = _Clock()
        rt = Tracer().for_rank(_Comm(0, clock))
        with rt.span("level", level=7):
            with rt.span("td-exchange"):
                with rt.span("alltoallv"):
                    pass
            with rt.span("sync", level=8):
                pass
        levels = [s.level for s in rt.spans]
        assert levels == [7, 7, 7, 8]  # explicit level wins

    def test_instant_marker(self):
        clock = _Clock()
        rt = Tracer().for_rank(_Comm(0, clock))
        with rt.span("level", level=2):
            clock.time = 3.0
            mark = rt.instant("spmsv-kernel", kernel="spa", candidates=9)
        assert mark.instant and mark.duration == 0.0
        assert mark.t_start == 3.0
        assert mark.level == 2 and mark.parent == 0
        assert mark.meta == {"kernel": "spa", "candidates": 9}

    def test_meta_kwargs_stored(self):
        rt = Tracer().for_rank(_Comm(0, _Clock()))
        with rt.span("encode", codec="bitmap") as span:
            pass
        assert span.meta == {"codec": "bitmap"}


class TestTracer:
    def test_for_rank_returns_same_handle(self):
        tracer = Tracer()
        comm = _Comm(3, _Clock())
        assert tracer.for_rank(comm) is tracer.for_rank(comm)
        assert tracer.ranks == [3] and tracer.nranks == 1

    def test_makespan_and_reset(self):
        tracer = Tracer()
        clock = _Clock()
        rt = tracer.for_rank(_Comm(0, clock))
        with rt.span("level", level=1):
            clock.time = 4.0
        assert tracer.makespan == 4.0
        assert len(tracer.all_spans()) == 1
        tracer.reset()
        assert tracer.nranks == 0 and tracer.makespan == 0.0

    def test_records_under_spmd_threads(self):
        tracer = Tracer()

        def fn(comm):
            rt = tracer.for_rank(comm)
            with rt.span("level", level=1):
                comm.allreduce(np.int64(comm.rank))
            return True

        assert all(run_spmd(4, fn).returns)
        assert tracer.ranks == [0, 1, 2, 3]
        for rank in tracer.ranks:
            (span,) = tracer.spans_for(rank)
            assert span.phase == "level" and span.rank == rank


    def test_second_run_rebinds_to_its_clocks(self, rmat_small):
        """One tracer passed to two searches: every rank's handle rebinds
        to the second run's fresh clocks, so its spans end on that run's
        timeline, not the first run's."""
        tracer = Tracer()
        sources = rmat_small.random_nonisolated_vertices(2, seed=4)
        runs = [
            run_bfs(rmat_small, int(src), "1d", nprocs=4, machine="hopper", tracer=tracer)
            for src in sources
        ]
        first, second = (run.stats.clocks for run in runs)
        assert tracer.ranks == [0, 1, 2, 3]
        for rank in tracer.ranks:
            last = [s for s in tracer.spans_for(rank) if s.phase == "level"][-1]
            assert last.t_end == second[rank].time != first[rank].time


class TestNullPath:
    def test_resolve_none_is_shared_null(self):
        assert resolve_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer

    def test_null_handles_are_shared_singletons(self):
        rt = NULL_TRACER.for_rank(_Comm(0, _Clock()))
        assert rt is NULL_RANK_TRACER
        # The hot path allocates nothing: every span() is the same object.
        assert rt.span("level", level=1) is _NULL_HANDLE
        assert rt.span("other", meta=1) is _NULL_HANDLE
        with rt.span("x") as span:
            assert span is None
        assert rt.instant("spmsv-kernel", kernel="spa") is None

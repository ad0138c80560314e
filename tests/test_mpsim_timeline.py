"""Tests for the ASCII Gantt view of a simulated run's communication spans.

The synthetic workload opens its own ``repro.obs`` spans around each
collective, the way the comm channel and the engine do on the BFS paths.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.runner import ALGORITHMS
from repro.model import FRANKLIN, NetworkCostModel
from repro.mpsim import run_spmd
from repro.obs import COMM_PHASES, Tracer, render_timeline
from repro.obs.export import TIMELINE_GLYPHS, comm_spans

from tests.conftest import launch_any


def _workload(comm, tracer):
    obs = tracer.for_rank(comm)
    comm.charge_compute(1e-5 * (comm.rank + 1))
    with obs.span("alltoallv"):
        comm.alltoallv([np.arange(100)] * comm.size)
    with obs.span("allgatherv"):
        comm.allgatherv(np.arange(50))
    with obs.span("allreduce"):
        comm.allreduce(1)
    return None


def _timed_run(nranks=3):
    tracer = Tracer()
    res = run_spmd(
        nranks,
        _workload,
        tracer,
        cost_model=NetworkCostModel(FRANKLIN, total_ranks=nranks),
    )
    return tracer, res


class TestRecording:
    def test_events_cover_every_collective(self):
        tracer, _res = _timed_run()
        for rank in tracer.ranks:
            phases = [s.phase for s in comm_spans(tracer, rank)]
            assert phases == ["alltoallv", "allgatherv", "allreduce"]

    def test_event_times_ordered_and_positive(self):
        tracer, _res = _timed_run()
        for rank in tracer.ranks:
            spans = comm_spans(tracer, rank)
            for prev, cur in zip(spans, spans[1:]):
                assert cur.t_start >= prev.t_end - 1e-15
            assert all(s.duration >= 0 for s in spans)

    def test_event_durations_sum_to_mpi_time(self):
        tracer, res = _timed_run()
        for rank in tracer.ranks:
            total = sum(s.duration for s in comm_spans(tracer, rank))
            assert total == pytest.approx(res.stats.clocks[rank].mpi_time)

    def test_waiting_visible_in_spans(self):
        # Rank 0 does the least compute, so it waits longest at the first
        # collective: its span must start earliest and end with the rest.
        tracer, _res = _timed_run()
        first = [comm_spans(tracer, rank)[0] for rank in tracer.ranks]
        assert first[0].t_start < first[2].t_start
        assert first[0].t_end == pytest.approx(first[2].t_end)

    def test_nested_comm_span_counted_once(self):
        # A collective issued inside another comm span (a step's
        # gather inside the engine's termination allreduce) belongs to
        # the outer span: drawn with its glyph, timed once.
        def fn(comm, tracer):
            obs = tracer.for_rank(comm)
            with obs.span("allreduce"):
                comm.allreduce(1)
                with obs.span("allgatherv"):
                    comm.allgatherv(np.arange(4))

        tracer = Tracer()
        res = run_spmd(
            2, fn, tracer, cost_model=NetworkCostModel(FRANKLIN, total_ranks=2)
        )
        for rank in tracer.ranks:
            spans = comm_spans(tracer, rank)
            assert [s.phase for s in spans] == ["allreduce"]
            assert spans[0].duration == pytest.approx(res.stats.clocks[rank].mpi_time)
        assert "g" not in render_timeline(tracer, width=20).split("legend:")[0]


class TestRenderer:
    def test_renders_rows_and_legend(self):
        tracer, _res = _timed_run()
        chart = render_timeline(tracer, width=40)
        lines = chart.splitlines()
        assert sum(1 for ln in lines if ln.startswith("rank ")) == 3
        assert "legend:" in lines[-1]
        assert "a" in chart and "g" in chart and "r" in chart

    def test_rank_subset(self):
        tracer, _res = _timed_run()
        chart = render_timeline(tracer, width=30, ranks=[1])
        assert chart.count("rank ") == 1
        assert chart.startswith("rank 1 |")

    def test_untimed_run_rejected(self):
        def fn(comm, tracer):
            with tracer.for_rank(comm).span("allreduce"):
                comm.allreduce(1)

        tracer = Tracer()
        run_spmd(2, fn, tracer)  # no cost model: virtual time stays at 0
        with pytest.raises(ValueError, match="nothing to render"):
            render_timeline(tracer)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"ranks": [-1]}, "ranks"),
            ({"ranks": []}, "ranks"),
            ({"ranks": [7]}, "ranks"),
            ({"width": 0}, "width"),
        ],
        ids=["negative-rank", "empty-ranks", "untraced-rank", "zero-width"],
    )
    def test_bad_arguments_rejected(self, kwargs, name):
        tracer, _res = _timed_run()
        with pytest.raises(ValueError, match=name):
            render_timeline(tracer, **kwargs)

    def test_glyph_table_consistent(self):
        assert set(TIMELINE_GLYPHS) == COMM_PHASES
        assert len(set(TIMELINE_GLYPHS.values())) == len(TIMELINE_GLYPHS)
        assert TIMELINE_GLYPHS["transpose"] == "x"
        tracer, _res = _timed_run()
        legend = render_timeline(tracer, width=40).splitlines()[-1]
        for phase, glyph in TIMELINE_GLYPHS.items():
            assert f"{glyph}={phase}" in legend


#: Every registered family that runs under the engine's span tracer.
TRACED_FAMILIES = sorted(
    name for name, spec in ALGORITHMS.items() if "tracer" in spec.capabilities
)


class TestCoverage:
    @pytest.mark.parametrize("algorithm", TRACED_FAMILIES)
    def test_comm_spans_cover_mpi_time(self, algorithm):
        # Every collective of every traced family runs inside a comm span
        # — the pre-level-1 allreduce included — so the Gantt accounts
        # for each rank's whole MPI time; a collective added outside a
        # span fails here instead of leaving the chart.
        graph = repro.rmat_graph(10, 16, seed=3)
        source = int(graph.random_nonisolated_vertices(1, 1)[0])
        tracer = Tracer()
        result = launch_any(
            graph, source, algorithm, nprocs=16, machine="hopper", tracer=tracer
        )
        assert tracer.ranks == list(range(16))
        for rank in tracer.ranks:
            drawn = sum(s.duration for s in comm_spans(tracer, rank))
            mpi = result.stats.clocks[rank].mpi_time
            assert mpi > 0
            assert drawn == pytest.approx(mpi, rel=0, abs=1e-12)

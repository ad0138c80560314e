"""Critical-path, imbalance, and comm/comp analyses over traced runs."""

from __future__ import annotations

import time

import pytest

from repro.core import run_bfs
from repro.core.runner import RunConfig, prepare
from repro.graph500 import run_graph500
from repro.graphs import rmat_graph
from repro.obs import (
    COMM_PHASES,
    HOST_RANK,
    RENDEZVOUS,
    UNTRACED,
    MetricsRegistry,
    Tracer,
    check_critical_path,
    chrome_trace,
    comm_comp_summary,
    critical_path,
    load_imbalance,
    wall_table,
)


def _traced(graph, algorithm, **kwargs):
    tracer = Tracer()
    result = run_bfs(
        graph, 5, algorithm, nprocs=4, machine="hopper", tracer=tracer, **kwargs
    )
    return result, tracer


class TestCriticalPath:
    @pytest.mark.parametrize("threads", [1, 6])
    @pytest.mark.parametrize("algorithm", ["1d", "1d-dirop", "2d"])
    def test_sums_to_modeled_total(self, rmat_small, algorithm, threads):
        """The acceptance bar: init + per-level phase times == makespan
        within 1e-6 relative tolerance (here they match to fp roundoff)."""
        result, tracer = _traced(rmat_small, algorithm, threads=threads)
        path = check_critical_path(tracer, result.time_total, rel_tol=1e-6)
        assert path.total == pytest.approx(result.time_total, rel=1e-9)
        for lc in path.levels:
            assert sum(lc.phases.values()) == pytest.approx(lc.duration, rel=1e-9)

    def test_mismatch_raises(self, rmat_small):
        result, tracer = _traced(rmat_small, "1d")
        with pytest.raises(ValueError, match="critical path sums"):
            check_critical_path(tracer, result.time_total * 1.5)

    def test_level_structure(self, rmat_small):
        result, tracer = _traced(rmat_small, "1d-dirop")
        path = critical_path(tracer)
        assert [lc.level for lc in path.levels] == list(
            range(1, result.nlevels + 1)
        )
        assert path.init > 0  # dirop's initial frontier-stats allreduce
        for prev, cur in zip(path.levels, path.levels[1:]):
            assert cur.t_start == pytest.approx(prev.t_end)
        for lc in path.levels:
            assert lc.rank in tracer.ranks
            assert UNTRACED in lc.phases
            assert lc.bounding_phase in lc.phases

    def test_phase_names_match_algorithm(self, rmat_small):
        _result, tracer = _traced(rmat_small, "2d")
        totals = critical_path(tracer).phase_totals()
        assert {"transpose", "expand", "spmsv", "fold-exchange", "sync"} <= set(
            totals
        )
        _result, tracer = _traced(rmat_small, "1d")
        totals = critical_path(tracer).phase_totals()
        assert {"td-scan", "td-pack", "td-exchange", "td-update", "sync"} <= set(
            totals
        )

    def test_empty_tracer(self):
        path = critical_path(Tracer())
        assert path.init == 0.0 and path.levels == [] and path.total == 0.0

    def test_untimed_run_checks_out_at_zero(self, rmat_small):
        tracer = Tracer()
        result = run_bfs(rmat_small, 5, "1d", nprocs=4, tracer=tracer)
        path = check_critical_path(tracer, result.time_total)
        assert path.total == 0.0


class TestImbalance:
    def test_per_level_per_phase_records(self, rmat_small):
        result, tracer = _traced(rmat_small, "1d")
        records = load_imbalance(tracer)
        assert records
        levels = {r.level for r in records}
        assert levels == set(range(1, result.nlevels + 1))
        for rec in records:
            assert rec.max_seconds >= rec.mean_seconds >= 0
            assert rec.imbalance >= 1.0
            assert rec.straggler in tracer.ranks

    def test_skewed_workload_attributes_straggler(self):
        """A rank doing 4x the compute of its peers must be named the
        straggler with the matching max/mean factor."""
        from repro.model import FRANKLIN, NetworkCostModel
        from repro.mpsim import run_spmd

        tracer = Tracer()

        def fn(comm):
            rt = tracer.for_rank(comm)
            with rt.span("level", level=1):
                with rt.span("work"):
                    comm.charge_compute(4e-5 if comm.rank == 2 else 1e-5)
                with rt.span("sync"):
                    comm.allreduce(1)
            return True

        run_spmd(4, fn, cost_model=NetworkCostModel(FRANKLIN, total_ranks=4))
        (work,) = [r for r in load_imbalance(tracer) if r.phase == "work"]
        assert work.straggler == 2
        assert work.imbalance == pytest.approx(4 / ((3 * 1 + 4) / 4))
        # The fast ranks absorb the skew as waiting inside the sync.
        (sync,) = [r for r in load_imbalance(tracer) if r.phase == "sync"]
        assert sync.straggler != 2


class TestCommComp:
    def test_totals_accumulate_levels(self, rmat_small):
        _result, tracer = _traced(rmat_small, "2d")
        summary = comm_comp_summary(tracer)
        levels = summary["levels"]
        assert levels
        assert summary["totals"]["comm_max"] == pytest.approx(
            sum(lv["comm_max"] for lv in levels)
        )
        for lv in levels:
            assert lv["comm_max"] >= 0 and lv["comp_max"] >= 0
            assert lv["comm_mean"] <= lv["comm_max"] + 1e-18

    def test_means_tile_levels_exactly(self, rmat_small):
        """Sync-aligned level spans have identical durations on every
        rank, so comm_mean + comp_mean reproduces each level exactly."""
        _result, tracer = _traced(rmat_small, "1d")
        summary = comm_comp_summary(tracer)
        path = critical_path(tracer)
        assert len(summary["levels"]) == len(path.levels)
        for lv, lc in zip(summary["levels"], path.levels):
            assert lv["comm_mean"] + lv["comp_mean"] == pytest.approx(
                lc.duration, rel=1e-9
            )
            # Maxes are over different ranks, so they bound from above.
            assert lv["comm_max"] + lv["comp_max"] >= lc.duration - 1e-15
        assert summary["totals"]["comm_max"] > 0

    def test_comm_phase_classifier_covers_instrumentation(self):
        assert {"alltoallv", "allgatherv", "allreduce", "transpose"} <= COMM_PHASES


class TestWallTable:
    """The second clock: wall stamps on the same spans, host outer spans,
    and the self-time table read off both."""

    def test_shares_sum_to_the_search_wall(self):
        """On a scale-12 ``2d`` search under ``sequential``, the rows sum
        to within 10 % of the wall measured around ``Session.bfs``."""
        graph = rmat_graph(12, 16, seed=1)
        tracer = Tracer()
        session = prepare(
            graph, RunConfig(algorithm="2d", nprocs=16, machine="hopper", validate=True,
                             tracer=tracer),
        )
        session.unobserved().bfs(3)  # warm caches outside the measured search
        tracer.reset()
        start = time.perf_counter()
        session.bfs(3)
        wall = time.perf_counter() - start
        table = wall_table(tracer)
        assert abs(sum(table.values()) - wall) <= 0.1 * wall
        assert min(table.values()) >= 0
        assert not COMM_PHASES & set(table)
        assert {RENDEZVOUS, "stitch", "validate", "teps", "spmsv"} <= set(table)
        assert list(table.values()) == sorted(table.values(), reverse=True)

    def test_spans_nest_on_the_wall_clock(self, rmat_small):
        _result, tracer = _traced(rmat_small, "1d-dirop")
        for rank in tracer.ranks:
            spans = tracer.spans_for(rank)
            for span in spans:
                if span.instant:
                    continue
                assert 0 < span.wall_start_ns <= span.wall_end_ns
                if span.parent is not None:
                    outer = spans[span.parent]
                    assert outer.wall_start_ns <= span.wall_start_ns
                    assert span.wall_end_ns <= outer.wall_end_ns

    def test_host_spans_stay_out_of_the_rank_views(self, rmat_small):
        _result, tracer = _traced(rmat_small, "2d")
        assert [s.phase for s in tracer.host.spans] == [
            "partition", "plan", "launch", "stitch", "teps",
        ]
        assert {s.rank for s in tracer.host.spans} == {HOST_RANK}
        assert HOST_RANK not in tracer.ranks
        assert {e["tid"] for e in chrome_trace(tracer)["traceEvents"]} == set(range(4))
        tracer.reset()
        assert tracer.host.spans == [] and wall_table(tracer) == {}

    def test_metrics_book_the_table_as_wall_seconds(self, rmat_small):
        tracer, metrics = Tracer(), MetricsRegistry()
        run_bfs(rmat_small, 5, "1d", nprocs=4, machine="hopper", tracer=tracer,
                metrics=metrics)
        table = wall_table(tracer)
        assert metrics.nranks == 4
        assert {layer["layer"] for layer in metrics.label_sets("wall_seconds")} == set(table)
        for layer, seconds in table.items():
            assert metrics.gauge_value("wall_seconds", layer=layer) == seconds
        # The default exports stay deterministic: no wall series in them.
        assert "wall_seconds" not in metrics.snapshot()["metrics"]
        assert "wall_seconds" not in metrics.render_openmetrics()
        untraced = MetricsRegistry()
        run_bfs(rmat_small, 5, "1d", nprocs=4, machine="hopper", metrics=untraced)
        assert "wall_seconds" not in untraced.names()

    def test_graph500_spans_kernel_one(self):
        tracer = Tracer()
        run_graph500(scale=8, nprocs=4, algorithm="1d", nbfs=2, tracer=tracer)
        phases = [s.phase for s in tracer.host.spans]
        assert phases[:4] == ["generate", "construct", "partition", "plan"]
        assert "validate" in phases and "oracle" not in phases

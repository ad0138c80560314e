"""Metrics registry: typed labeled series, null path, reconciliation.

Three contracts:

* the registry itself — typed counter/gauge/histogram series keyed by
  sorted label sets, OpenMetrics rendering, versioned JSON snapshot;
* the **null path** — installing a registry is passive: a metered run
  is bit-identical to an unmetered one (same parents, same clocks to
  the ULP), mirroring the tracer's zero-overhead contract;
* **reconciliation** — every instrumented counter equals the quantity
  the stats ledger / result derives independently, exactly, not
  approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import DeltaVarintCodec
from repro.core import run_bfs
from repro.obs import (
    METRICS_SCHEMA,
    NULL_METRICS,
    NULL_RANK_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    resolve_metrics,
)

from tests.conftest import launch_any


class TestRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        m = reg.for_rank(0)
        m.inc("words", 3.0, kind="alltoallv")
        m.inc("words", 2.0, kind="alltoallv")
        m.inc("words", 7.0, kind="allgatherv")
        assert reg.counter_value("words", kind="alltoallv") == 5.0
        assert reg.counter_value("words", kind="allgatherv") == 7.0
        assert reg.counter_value("words") == 12.0  # subset match sums
        assert reg.counter_value("words", kind="bcast") == 0.0

    def test_counters_sum_across_ranks(self):
        reg = MetricsRegistry()
        reg.for_rank(0).inc("hits")
        reg.for_rank(1).inc("hits", 2.0)
        assert reg.counter_value("hits") == 3.0
        assert reg.counter_value("hits", rank=1) == 2.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            MetricsRegistry().for_rank(0).inc("x", -1.0)

    def test_gauges_keep_latest_and_max_across_series(self):
        reg = MetricsRegistry()
        m = reg.for_rank(0)
        m.set_gauge("lanes", 8.0, level=1)
        m.set_gauge("lanes", 4.0, level=2)
        assert reg.gauge_value("lanes", level=2) == 4.0
        assert reg.gauge_value("lanes") == 8.0  # max over matching series
        assert reg.gauge_value("missing") is None

    def test_histogram_observe_and_merge(self):
        reg = MetricsRegistry()
        reg.declare_histogram("size", (1.0, 10.0, 100.0))
        reg.for_rank(0).observe("size", 0.5)
        reg.for_rank(0).observe("size", 5.0)
        reg.for_rank(1).observe("size", 500.0)  # overflow bucket
        hist = reg.histogram_value("size")
        assert isinstance(hist, Histogram)
        assert hist.count == 3
        assert hist.sum == pytest.approx(505.5)
        assert hist.bucket_counts[0] == 1  # <= 1.0
        assert hist.bucket_counts[-1] == 1  # > 100.0

    def test_name_binds_to_one_type(self):
        reg = MetricsRegistry()
        reg.for_rank(0).inc("x")
        with pytest.raises(TypeError, match="counter"):
            reg.for_rank(0).set_gauge("x", 1.0)

    def test_for_rank_returns_stable_handle(self):
        reg = MetricsRegistry()
        assert reg.for_rank(3) is reg.for_rank(3)
        assert reg.for_rank(3) is not reg.for_rank(4)

    def test_snapshot_schema_and_round_trip(self):
        reg = MetricsRegistry()
        reg.for_rank(0).inc("n", 2.0, kind="a")
        reg.for_rank(0).set_gauge("g", 1.5)
        reg.for_rank(0).observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["metrics"]["n"]["type"] == "counter"
        assert snap["metrics"]["g"]["type"] == "gauge"
        assert snap["metrics"]["h"]["type"] == "histogram"
        import json

        assert json.loads(json.dumps(snap)) == snap  # JSON-serializable

    def test_openmetrics_rendering(self):
        reg = MetricsRegistry()
        reg.for_rank(0).inc("requests", 3.0, kind="a")
        reg.for_rank(0).observe("latency", 0.5)
        text = reg.render_openmetrics()
        assert "# TYPE requests counter" in text
        assert 'requests{kind="a"} 3' in text
        assert "# TYPE latency histogram" in text
        assert "latency_count" in text and "latency_sum" in text
        assert 'le="+Inf"' in text

    def test_reset_clears_series(self):
        reg = MetricsRegistry()
        reg.for_rank(0).inc("x", 5.0)
        reg.reset()
        assert reg.counter_value("x") == 0.0


class TestNullPath:
    def test_resolve_metrics_defaults_to_shared_null(self):
        assert resolve_metrics(None) is NULL_METRICS
        assert isinstance(resolve_metrics(None), NullMetrics)
        reg = MetricsRegistry()
        assert resolve_metrics(reg) is reg

    def test_null_handles_are_inert(self):
        handle = NULL_METRICS.for_rank(0)
        assert handle is NULL_RANK_METRICS
        handle.inc("x")
        handle.set_gauge("g", 1.0)
        handle.observe("h", 2.0)  # no-ops, no state anywhere

    def test_uninstrumented_families_reject_metrics(self, rmat_small):
        with pytest.raises(ValueError, match="not instrumented"):
            run_bfs(rmat_small, 5, "serial", nprocs=2, metrics=MetricsRegistry())


def _fingerprint(result):
    clocks = [
        (c.time, c.compute_time, c.mpi_time, dict(c.counters))
        for c in result.stats.clocks
    ]
    return result.stats.summary(), clocks


#: One flat representative per instrumented algorithm family.
FAMILY_ALGORITHMS = [
    "1d",
    "1d-dirop",
    "2d",
    "2d-dirop",
    "msbfs-1d",
]


class TestMeteredRunBitIdentical:
    """Metrics read the clocks but never charge them: zero overhead."""

    @pytest.mark.parametrize("algorithm", FAMILY_ALGORITHMS)
    def test_metered_matches_plain(self, rmat_small, algorithm):
        kwargs = dict(nprocs=4, machine="hopper", batch=8)
        plain = launch_any(rmat_small, 5, algorithm, **kwargs)
        registry = MetricsRegistry()
        metered = launch_any(
            rmat_small, 5, algorithm, metrics=registry, **kwargs
        )
        assert np.array_equal(plain.levels, metered.levels)
        assert np.array_equal(plain.parents, metered.parents)
        # == on floats, not approx: the clocks must agree bit for bit.
        assert plain.time_total == metered.time_total
        assert _fingerprint(plain) == _fingerprint(metered)
        # ... and the registry actually recorded the run.
        assert registry.counter_value("engine_levels") > 0

    def test_metered_and_traced_compose(self, rmat_small):
        from repro.obs import Tracer

        plain = run_bfs(rmat_small, 5, "1d-dirop", nprocs=4, machine="hopper")
        both = run_bfs(
            rmat_small, 5, "1d-dirop", nprocs=4, machine="hopper",
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        assert np.array_equal(plain.parents, both.parents)
        assert plain.time_total == both.time_total


class TestReconciliation:
    """Counter totals equal independently-derived quantities, exactly."""

    @pytest.fixture(scope="class")
    def metered(self, rmat_small):
        registry = MetricsRegistry()
        result = run_bfs(
            rmat_small, 5, "1d-dirop", nprocs=4, machine="hopper",
            codec=DeltaVarintCodec(), sieve=True, metrics=registry,
        )
        return result, registry

    def test_wire_and_payload_words_match_stats(self, metered):
        result, registry = metered
        for kind in ("alltoallv", "allreduce", "allgatherv"):
            assert registry.counter_value(
                "comm_wire_words", kind=kind
            ) == float(result.stats.wire_words(kind))
            assert registry.counter_value(
                "comm_payload_words", kind=kind
            ) == float(result.stats.payload_words(kind))

    def test_engine_levels_and_discovered_match_result(self, metered):
        result, registry = metered
        assert registry.counter_value("engine_levels") == float(
            result.nlevels * result.nranks
        )
        reached = int((np.asarray(result.levels) >= 1).sum())
        assert registry.counter_value("engine_discovered") == float(reached)

    def test_sieve_counters_match_clock_ledger(self, metered):
        result, registry = metered
        dropped = sum(
            c.counters.get("sieve_dropped", 0) for c in result.stats.clocks
        )
        assert dropped > 0
        assert registry.counter_value("sieve_dropped") == float(dropped)

    def test_codec_encodes_are_labeled(self, metered):
        _result, registry = metered
        assert registry.counter_value("codec_encodes", codec="delta-varint") > 0
        assert registry.counter_value("codec_encodes", codec="raw") == 0.0

    def test_frontier_histogram_covers_every_level(self, metered):
        result, registry = metered
        hist = registry.histogram_value("engine_frontier_size")
        assert hist.count == result.nlevels * result.nranks

    def test_query_lanes_gauge_tracks_batch(self, rmat_small):
        registry = MetricsRegistry()
        result = launch_any(
            rmat_small, 5, "msbfs-1d", nprocs=4, machine="hopper",
            batch=8, metrics=registry,
        )
        assert registry.gauge_value("query_lanes_active") == float(result.batch)
        candidates = registry.counter_value("lane_prune_candidates")
        kept = registry.counter_value("lane_prune_kept")
        assert 0 < kept <= candidates

    def test_lane_sieve_counter_matches_clock_ledger_and_profile(self, rmat_small):
        """The candidates the lane sieve dropped: one counter, the
        clocks' ``sieve_dropped`` ledger, the exchanges' record and the
        level profile agree, and none of them was kept."""
        registry = MetricsRegistry()
        result = launch_any(
            rmat_small, 5, "msbfs-1d", nprocs=4, machine="hopper",
            batch=8, metrics=registry, trace=True,
        )
        dropped = registry.counter_value("lane_sieve_dropped")
        assert dropped > 0
        assert dropped == sum(c.counters.get("sieve_dropped", 0) for c in result.stats.clocks)
        assert dropped == result.stats.summary()["sieve_dropped_candidates"]
        profile = result.meta["level_profile"]
        assert dropped == sum(row["sieve_dropped"] for row in profile)
        candidates = registry.counter_value("lane_prune_candidates")
        kept = registry.counter_value("lane_prune_kept")
        assert dropped + kept <= candidates

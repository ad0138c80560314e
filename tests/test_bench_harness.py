"""Tests for the benchmark harness machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import (
    average_bfs,
    closest_square_cores,
    paper_threads,
    pick_sources,
    projected_costs,
    projected_gteps,
)
from repro.core import bfs_serial
from repro.model import CARVER, FRANKLIN, HOPPER


class TestPickSources:
    def test_sources_in_large_component(self, rmat_small):
        sources = pick_sources(rmat_small, 4, seed=0)
        assert len(sources) == 4
        probe = int(np.asarray(rmat_small.to_internal(sources[0])))
        levels, _ = bfs_serial(rmat_small.csr, probe)
        for s in sources[1:]:
            internal = int(np.asarray(rmat_small.to_internal(s)))
            assert levels[internal] >= 0  # same component

    def test_deterministic_by_seed(self, rmat_small):
        assert pick_sources(rmat_small, 3, seed=5) == pick_sources(
            rmat_small, 3, seed=5
        )

    def test_crawl_graph(self, crawl_graph):
        sources = pick_sources(crawl_graph, 2, seed=1)
        assert len(sources) == 2

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_rejected(self, rmat_small, count):
        with pytest.raises(ValueError, match="at least 1"):
            pick_sources(rmat_small, count)


class TestAverageBfs:
    def test_metrics_are_means(self, rmat_small):
        sources = pick_sources(rmat_small, 2, seed=2)
        run = average_bfs(rmat_small, "1d", 4, FRANKLIN, sources=sources)
        times = [r.time_total for r in run.results]
        assert run.time_total == pytest.approx(np.mean(times))
        assert len(run.results) == 2
        assert run.gteps > 0
        assert run.mteps == pytest.approx(run.gteps * 1e3)
        assert 0 < run.comm_fraction < 1

    def test_threads_plumbed(self, rmat_small):
        sources = pick_sources(rmat_small, 1, seed=3)
        run = average_bfs(
            rmat_small, "1d", 2, FRANKLIN, sources=sources, threads=2
        )
        assert run.threads == 2

    def test_graph_is_distributed_once_for_all_sources(self, rmat_small, block_builds):
        sources = pick_sources(rmat_small, 3, seed=2)
        run = average_bfs(rmat_small, "2d", 4, HOPPER, sources=sources)
        assert len(run.results) == 3
        assert len(block_builds) == 1


class TestPaperThreads:
    def test_machine_specific(self):
        assert paper_threads(FRANKLIN) == 4
        assert paper_threads(HOPPER) == 6
        assert paper_threads("hopper") == 6
        assert paper_threads(CARVER) == 4


class TestProjection:
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("algo", ["1d", "2d"])
    def test_costs_positive_and_consistent(self, algo, threads):
        costs = projected_costs(algo, 29, 16, 1024, FRANKLIN, threads=threads)
        assert costs.total > 0
        assert costs.comm < costs.total
        rate = projected_gteps(algo, 29, 16, 1024, FRANKLIN, threads=threads)
        assert rate == pytest.approx(16 * 2**29 / costs.total / 1e9)

    def test_kernel_override(self):
        spa = projected_costs("2d", 29, 16, 1024, HOPPER, kernel="spa")
        heap = projected_costs("2d", 29, 16, 1024, HOPPER, kernel="heap")
        assert spa.comp != heap.comp

    def test_auto_kernel_switches_at_scale(self):
        # Below the Figure-3 crossover auto == spa; above it auto == heap.
        low_auto = projected_costs("2d", 29, 16, 1024, HOPPER, kernel="auto")
        low_spa = projected_costs("2d", 29, 16, 1024, HOPPER, kernel="spa")
        assert low_auto.comp == pytest.approx(low_spa.comp)
        hi_auto = projected_costs("2d", 32, 16, 40000, HOPPER, kernel="auto")
        hi_heap = projected_costs("2d", 32, 16, 40000, HOPPER, kernel="heap")
        assert hi_auto.comp == pytest.approx(hi_heap.comp)

    def test_closest_square(self):
        assert closest_square_cores(40000) == 200 * 200
        assert closest_square_cores(10008) == 100 * 100
        assert closest_square_cores(4) == 4

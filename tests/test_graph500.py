"""Tests for the Graph 500 benchmark driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph500 import Graph500Result, run_graph500, sample_search_keys
from repro.graphs import rmat_graph


@pytest.fixture(scope="module")
def small_run() -> Graph500Result:
    return run_graph500(
        scale=11, nprocs=9, algorithm="2d", machine="hopper", nbfs=4, seed=3
    )


class TestRunGraph500:
    def test_counts_and_fields(self, small_run):
        assert small_run.scale == 11
        assert small_run.nbfs == 4
        assert small_run.nranks == 9
        assert small_run.bfs_times.shape == (4,)
        assert small_run.teps.shape == (4,)
        assert small_run.construction_seconds > 0
        assert len(small_run.searches) == 4

    def test_all_searches_validated(self, small_run):
        # run_graph500 validates by default; traversal results must be
        # non-trivial (every search reaches the giant component).
        for res in small_run.searches:
            assert (res.levels >= 0).sum() > 0.2 * (1 << 11)

    def test_harmonic_mean_definition(self, small_run):
        teps = small_run.teps
        expected = teps.size / np.sum(1.0 / teps)
        assert small_run.harmonic_mean_teps == pytest.approx(expected)
        # Harmonic mean never exceeds the arithmetic mean.
        assert small_run.harmonic_mean_teps <= small_run.teps_stats["mean"] + 1e-9

    def test_quartile_ordering(self, small_run):
        for stats in (small_run.time_stats, small_run.teps_stats):
            assert (
                stats["min"]
                <= stats["firstquartile"]
                <= stats["median"]
                <= stats["thirdquartile"]
                <= stats["max"]
            )

    def test_report_format(self, small_run):
        report = small_run.report()
        for key in (
            "SCALE:",
            "NBFS:",
            "construction_time:",
            "median_time:",
            "max_TEPS:",
            "harmonic_mean_TEPS:",
        ):
            assert key in report, key
        # Canonical key-value layout: every line has exactly one colon.
        for line in report.splitlines():
            assert line.count(":") == 1

    def test_invalid_nbfs(self):
        with pytest.raises(ValueError, match="nbfs"):
            run_graph500(scale=8, nbfs=0)

    @pytest.mark.parametrize(
        "options, match",
        [({"algorithm": "2d-hybrid"}, "unknown algorithm"), ({"threads": 0}, "threads")],
    )
    def test_bad_config_fails_before_kernel_1(self, monkeypatch, options, match):
        def generate(*args, **kwargs):
            raise AssertionError("kernel 1 ran")

        monkeypatch.setattr("repro.graph500.rmat_edges", generate)
        with pytest.raises(ValueError, match=match):
            run_graph500(scale=8, nbfs=1, **options)

    def test_1d_algorithm_path(self):
        result = run_graph500(
            scale=10, nprocs=4, algorithm="1d", machine="franklin", nbfs=2, seed=1
        )
        assert result.nranks == 4
        assert result.threads == 1
        assert np.all(result.teps > 0)

    def test_graph_is_distributed_once_for_all_keys(self, block_builds):
        result = run_graph500(scale=10, algorithm="2d", nbfs=4)
        assert result.nbfs == 4
        assert len(block_builds) == 1


class TestSearchKeys:
    def test_keys_non_isolated_and_distinct(self):
        graph = rmat_graph(10, 4, seed=5)
        keys = sample_search_keys(graph, 8, seed=2)
        assert np.unique(keys).size == keys.size
        internal = np.asarray(graph.to_internal(keys))
        assert np.all(graph.degrees()[internal] > 0)

    def test_deterministic(self):
        graph = rmat_graph(10, 4, seed=5)
        assert np.array_equal(
            sample_search_keys(graph, 4, seed=9), sample_search_keys(graph, 4, seed=9)
        )


def test_untimed_machine_rejected():
    with pytest.raises(ValueError, match="machine model"):
        run_graph500(scale=8, machine=None, nbfs=1)

"""Invariants of the per-level traces emitted by the distributed BFS.

The merged ``level_profile`` (one entry per level, counters summed over
ranks) must stay consistent with the traversal result itself: every
discovered vertex shows up in exactly one level's ``discovered`` count,
the wire-word counters match the candidate counts the algorithms claim
to send, and the direction-optimizing variant labels each level with the
direction it actually ran.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import run_bfs
from repro.core.runner import ALGORITHMS
from repro.graphs.rmat import rmat_graph

from tests.conftest import launch_any, prepare_any, thread_cases, thread_params

#: Every algorithm the registry declares a per-level trace profile for
#: — derived dynamically, so a new plugin is covered the moment it lands
#: (threads share the family's trace path, so one thread stands for all).
TRACE_ALGORITHMS = sorted(
    name for name, spec in ALGORITHMS.items() if "trace-profile" in spec.capabilities
)
#: The direction-optimizing subset: their levels must carry a direction.
DIROP_TRACE_ALGORITHMS = [name for name in TRACE_ALGORITHMS if "dirop" in name]
#: Split by result kind: the single-source BFS entries keep the exact
#: discovered/frontier bookkeeping; the batched query kinds have their
#: own (weaker but still structural) invariants below.
BFS_TRACE_ALGORITHMS = [
    name for name in TRACE_ALGORITHMS if ALGORITHMS[name].kind == "bfs"
]
QUERY_TRACE_ALGORITHMS = [
    name for name in TRACE_ALGORITHMS if ALGORITHMS[name].kind != "bfs"
]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(11, 16, seed=1)


@pytest.fixture(scope="module")
def source(graph):
    return int(graph.random_nonisolated_vertices(1, seed=2)[0])


def reached_after_source(res):
    """Vertices discovered strictly after level 0 (the source)."""
    return int((res.levels >= 1).sum())


class TestTraceEveryAlgorithm:
    """Registry-driven invariants: they hold for every traced plugin."""

    @pytest.mark.parametrize("algorithm", BFS_TRACE_ALGORITHMS)
    def test_discovered_sums_to_reached(self, graph, source, algorithm):
        res = run_bfs(graph, source, algorithm, nprocs=4, trace=True)
        profile = res.meta["level_profile"]
        assert sum(lvl["discovered"] for lvl in profile) == reached_after_source(res)
        # Frontier entering level L+1 is what level L discovered.
        for prev, cur in zip(profile, profile[1:]):
            assert cur["frontier"] == prev["discovered"]
        assert profile[0]["frontier"] == 1

    @pytest.mark.parametrize("algorithm", QUERY_TRACE_ALGORITHMS)
    def test_query_profile_invariants(self, graph, source, algorithm):
        """The lane structure of a batched query's trace.

        ``discovered`` counts *vertices* whose state changed at a level,
        so it is bracketed by the distinct reached vertices (below) and
        the reached (vertex, lane) pairs (above).
        """
        res = launch_any(graph, source, algorithm, nprocs=4, trace=True, batch=8)
        profile = res.meta["level_profile"]
        assert ALGORITHMS[algorithm].kind == "msbfs"
        total_discovered = sum(lvl["discovered"] for lvl in profile)
        lane_pairs = int((res.levels >= 1).sum())
        reached = int((res.levels >= 1).any(axis=1).sum())
        assert reached <= total_discovered <= lane_pairs
        for prev, cur in zip(profile, profile[1:]):
            assert cur["frontier"] == prev["discovered"]
        assert profile[0]["frontier"] == len(set(map(int, res.sources)))
        assert all(lvl["lanes"] == res.batch for lvl in profile)

    @pytest.mark.parametrize("algorithm", DIROP_TRACE_ALGORITHMS)
    def test_dirop_levels_record_direction(self, graph, source, algorithm):
        res = run_bfs(graph, source, algorithm, nprocs=4, trace=True)
        profile = res.meta["level_profile"]
        assert all(
            lvl["direction"] in ("top-down", "bottom-up") for lvl in profile
        )
        # A dense R-MAT actually exercises both directions.
        assert {lvl["direction"] for lvl in profile} == {
            "top-down",
            "bottom-up",
        }


@pytest.mark.parametrize("algorithm,threads", thread_params(thread_cases(ALGORITHMS)))
def test_one_session_two_sources_equals_two_runs(graph, source, algorithm, threads):
    """Searching a prepared session from two sources is bit-identical to
    two independent one-shot runs: nothing leaks from search to search,
    the 2D row-split thread blocks included."""
    options = dict(nprocs=4, threads=threads, machine="hopper", trace=True)
    session = prepare_any(graph, algorithm, **options)
    for s in (source, (source + 101) % graph.n):
        shared = launch_any(graph, s, algorithm, session=session)
        alone = launch_any(graph, s, algorithm, **options)
        assert np.array_equal(shared.levels, alone.levels)
        assert np.array_equal(shared.parents, alone.parents)
        if alone.stats is not None:  # serial launches nothing
            assert shared.stats.makespan == alone.stats.makespan
        assert shared.meta["level_profile"] == alone.meta["level_profile"]


class TestTrace1D:
    def test_words_sent_tracks_candidates_exactly_without_dedup(
        self, graph, source
    ):
        # Without send-side dedup every candidate crosses the wire as a
        # (vertex, parent) pair: exactly two words per candidate.
        res = run_bfs(
            graph, source, "1d", nprocs=4, trace=True, dedup_sends=False
        )
        for lvl in res.meta["level_profile"]:
            assert lvl["words_sent"] == 2 * lvl["candidates"], lvl

    def test_dedup_never_sends_more(self, graph, source):
        res = run_bfs(graph, source, "1d", nprocs=4, trace=True)
        assert any(
            lvl["words_sent"] < 2 * lvl["candidates"]
            for lvl in res.meta["level_profile"]
        )
        for lvl in res.meta["level_profile"]:
            assert lvl["words_sent"] <= 2 * lvl["candidates"], lvl

    def test_trace_words_bound_stats_ledger(self, graph, source):
        # The trace counts every exchanged pair; the simulator's
        # alltoallv ledger counts only the words that leave the rank
        # (self-destined buffers stay in memory).  The trace is therefore
        # an upper bound that the ledger approaches as p grows.
        res = run_bfs(graph, source, "1d", nprocs=4, trace=True)
        traced = sum(lvl["words_sent"] for lvl in res.meta["level_profile"])
        ledger = res.stats.words_sent("alltoallv")
        assert 0 < ledger <= traced
        # With 4 ranks and a hashed vertex distribution roughly 3/4 of
        # the pairs cross rank boundaries.
        assert ledger > traced / 2


class TestTrace2D:
    def test_words_sent_covers_both_exchanges(self, graph, source):
        # 2D sends the frontier along processor columns (expand) AND the
        # candidate pairs along rows (fold), so the wire traffic strictly
        # exceeds two words per surviving candidate on non-trivial levels.
        res = run_bfs(graph, source, "2d", nprocs=4, trace=True)
        for lvl in res.meta["level_profile"]:
            assert lvl["words_sent"] >= 2 * lvl["candidates"], lvl
        assert any(
            lvl["words_sent"] > 2 * lvl["candidates"]
            for lvl in res.meta["level_profile"]
        )


class TestTraceMsbfs:
    @pytest.fixture(scope="class")
    def traced_query(self, graph, source):
        from repro.obs import Tracer

        tracer = Tracer()
        res = launch_any(
            graph, source, "msbfs-1d", nprocs=4, trace=True, batch=8, tracer=tracer
        )
        return res, tracer

    def test_level_spans_cover_every_level(self, traced_query):
        res, tracer = traced_query
        for rank in tracer.ranks:
            level_spans = [
                s for s in tracer.spans_for(rank) if s.phase == "level"
            ]
            assert len(level_spans) == res.nlevels
            assert all(s.meta.get("lanes") == res.batch for s in level_spans)
            assert [s.level for s in level_spans] == list(
                range(1, res.nlevels + 1)
            )


class TestTraceDirop:
    def test_non_dirop_traces_have_no_direction(self, graph, source):
        res = run_bfs(graph, source, "1d", nprocs=4, trace=True)
        assert all(
            "direction" not in lvl for lvl in res.meta["level_profile"]
        )

    def test_topdown_levels_match_1d_counters(self, graph, source):
        # Levels that ran top-down use the same exchange as plain 1d, so
        # their counters obey the same two-words-per-candidate bound.
        res = run_bfs(graph, source, "1d-dirop", nprocs=4, trace=True)
        for lvl in res.meta["level_profile"]:
            if lvl["direction"] == "top-down":
                assert lvl["words_sent"] <= 2 * lvl["candidates"], lvl

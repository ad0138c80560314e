"""The search's TEPS count, read off degrees, against the edge pass.

``Session.bfs`` and the query driver take ``m_traversed`` from
``count_closed_lane_edges``: the degree sum of each lane's reached
vertices.  That equals ``count_lane_edges`` (one pass over every edge,
kept for arbitrary vertex sets) exactly when each reached set is closed
under out-adjacency, as a complete traversal's is.  The sweep holds the
two equal on the outputs of every registry entry, on directed and
undirected graphs, a disconnected one and an isolated source; the last
test pins the precondition with a set that is not closed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bfs_serial
from repro.core.runner import ALGORITHMS
from repro.core.validate import count_closed_lane_edges, count_lane_edges, lane_words
from repro.graphs import rmat_graph
from repro.graphs.graph import Graph
from repro.query import msbfs_serial, run_query

from tests.conftest import launch_any, query_sources


def _random_graph(n, m, seed, directed):
    rng = np.random.default_rng(seed)
    return Graph.from_edges(
        n, rng.integers(0, n, m), rng.integers(0, n, m),
        symmetrize=not directed, shuffle=True, seed=seed,
    )


def _disconnected():
    """Two R-MAT-like halves with no edge between them, plus isolated
    vertices (the vertices no random edge touches)."""
    rng = np.random.default_rng(5)
    src = rng.integers(0, 100, 300)
    dst = rng.integers(0, 100, 300)
    src = np.concatenate([src, src + 128])
    dst = np.concatenate([dst, dst + 128])
    return Graph.from_edges(256, src, dst, shuffle=True, seed=2)


GRAPHS = {
    "rmat": lambda: rmat_graph(9, 8, seed=3),
    "directed": lambda: _random_graph(200, 700, 11, directed=True),
    "disconnected": _disconnected,
}


def _isolated_source(graph):
    degrees = np.zeros(graph.n, dtype=np.int64)
    degrees[graph.to_original(np.arange(graph.n))] = graph.csr.degrees()
    return int(np.flatnonzero(degrees == 0)[0])


def _internal_words(graph, levels):
    """Reached-lane words of a caller-label result, in internal labels."""
    return lane_words(levels[graph.original_rows(0, graph.n)] >= 0)


def _both_counts(graph, levels, lanes):
    words = _internal_words(graph, levels)
    closed = count_closed_lane_edges(graph.csr, words, lanes, graph.m_input)
    edges = count_lane_edges(graph.csr, words, lanes, graph.m_input)
    return closed, edges


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_entry_counts_its_output_by_degrees(algorithm, graph_name):
    graph = GRAPHS[graph_name]()
    sources = [3, _isolated_source(graph)] if graph_name == "disconnected" else [3]
    for source in sources:
        result = launch_any(graph, source, algorithm, nprocs=4)
        lanes = 1 if result.levels.ndim == 1 else result.levels.shape[1]
        closed, edges = _both_counts(graph, result.levels, lanes)
        assert closed == edges
        assert result.m_traversed == sum(edges)
        if source != 3 and lanes == 1:
            assert result.m_traversed == 0


@pytest.mark.parametrize("width", [1, 8, 9, 63, 64])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_msbfs_widths_count_by_degrees(graph_name, width):
    graph = GRAPHS[graph_name]()
    result = run_query(
        graph, sources=query_sources(graph, 7, width), algorithm="msbfs-1d", nprocs=4
    )
    closed, edges = _both_counts(graph, result.levels, width)
    assert closed == edges
    assert result.m_traversed == sum(edges)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.integers(0, 200),
    seed=st.integers(0, 2**16),
    directed=st.booleans(),
    lanes=st.integers(1, 64),
    m_input=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_closed_sets_count_alike(n, m, seed, directed, lanes, m_input):
    """Serial traversals of random graphs: one lane and a batch."""
    graph = _random_graph(n, m, seed, directed)
    csr = graph.csr
    sources = np.arange(lanes) % n
    levels = msbfs_serial(csr, sources)[0]
    words = lane_words(levels >= 0)
    assert count_closed_lane_edges(csr, words, lanes, m_input) == count_lane_edges(
        csr, words, lanes, m_input
    )
    one = lane_words(bfs_serial(csr, 0)[0] >= 0)
    assert count_closed_lane_edges(csr, one, 1, m_input) == count_lane_edges(
        csr, one, 1, m_input
    )


def test_an_open_set_counts_differently():
    """The precondition: in the star 1 - {0, 2, 3}, the set {0, 1} is
    not closed (edges 1 - 2 and 1 - 3 leave it).  The edge pass counts
    the one edge inside; the degree sum also counts the stored halves
    of the two that leave."""
    graph = Graph.from_edges(4, np.array([1, 1, 1]), np.array([0, 2, 3]), shuffle=False)
    words = lane_words(np.array([True, True, False, False]))
    assert count_lane_edges(graph.csr, words, 1) == [1]
    assert count_closed_lane_edges(graph.csr, words, 1) == [2]

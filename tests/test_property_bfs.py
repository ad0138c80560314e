"""Property-based tests for BFS correctness on arbitrary graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bfs_serial, run_bfs, validate_bfs
from repro.core.runner import ALGORITHMS
from repro.graphs import Graph, erdos_renyi_edges
from repro.graphs.rmat import rmat_graph
from repro.query import run_query

from tests.conftest import CODEC_FORMS, query_sources, thread_cases, thread_params

networkx = pytest.importorskip("networkx")

#: Every registered algorithm, serial included, as ``(algorithm, threads)`` cases:
#: the equivalence harness must cover new variants the moment they land.
ALL_CASES = thread_cases(ALGORITHMS)


# -- kind-aware oracle checks -------------------------------------------------
#
# The batched query's result is not a single-source (levels, parents)
# pair; each kind gets its own oracle comparison and the sweeps below
# dispatch through ORACLE_CHECKS, so a new family plugs into the
# equivalence harness by adding one entry.

def _check_bfs(graph, source, algorithm, nprocs, **kwargs):
    ref = run_bfs(graph, source, "serial")
    res = run_bfs(graph, source, algorithm, nprocs=nprocs, validate=True, **kwargs)
    assert np.array_equal(res.levels, ref.levels)
    assert np.array_equal(res.parents, ref.parents)


def _check_msbfs(graph, source, algorithm, nprocs, **kwargs):
    """Every lane of the batched run equals its own serial traversal."""
    sources = query_sources(graph, source, 4)
    res = run_query(
        graph, sources=sources, algorithm=algorithm, nprocs=nprocs,
        validate=True, **kwargs,
    )
    for b, s in enumerate(sources):
        ref = run_bfs(graph, s, "serial")
        assert np.array_equal(res.levels[:, b], ref.levels), f"lane {b}"
        assert np.array_equal(res.parents[:, b], ref.parents), f"lane {b}"


ORACLE_CHECKS = {
    "bfs": _check_bfs,
    "msbfs": _check_msbfs,
}


def check_against_oracle(graph, source, algorithm, nprocs, **kwargs):
    ORACLE_CHECKS[ALGORITHMS[algorithm].kind](
        graph, source, algorithm, nprocs, **kwargs
    )


def test_every_kind_has_an_oracle_check():
    """A registry entry with a new kind must extend ORACLE_CHECKS."""
    assert {spec.kind for spec in ALGORITHMS.values()} <= set(ORACLE_CHECKS)


@st.composite
def small_graphs(draw):
    """Random graph + source: up to 40 vertices, arbitrary edges."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    source = draw(st.integers(0, n - 1))
    shuffle = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    graph = Graph.from_edges(n, src, dst, shuffle=shuffle, seed=seed)
    return graph, source, edges


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_serial_levels_match_networkx(case):
    """BFS levels are exactly NetworkX shortest-path lengths."""
    graph, source, edges = case
    nx_graph = networkx.Graph()
    nx_graph.add_nodes_from(range(graph.n))
    nx_graph.add_edges_from((u, v) for u, v in edges if u != v)
    expected = networkx.single_source_shortest_path_length(nx_graph, source)

    res = run_bfs(graph, source, "serial")
    for v in range(graph.n):
        if v in expected:
            assert res.levels[v] == expected[v], f"vertex {v}"
        else:
            assert res.levels[v] == -1, f"vertex {v}"


@settings(max_examples=60, deadline=None)
@given(
    small_graphs(),
    st.sampled_from(ALL_CASES),
    st.sampled_from([3, 4]),
)
def test_distributed_equals_serial(case, algorithm_threads, nprocs):
    """EVERY registered algorithm matches its kind's serial oracle,
    on arbitrary random graphs and rank counts that do not divide n."""
    graph, source, _ = case
    algorithm, threads = algorithm_threads
    check_against_oracle(graph, source, algorithm, nprocs, threads=threads)


def _er_graph(n, avg_degree, seed):
    src, dst = erdos_renyi_edges(n, avg_degree, seed=seed)
    return Graph.from_edges(n, src, dst, shuffle=False)


def _disconnected_graph():
    # Two non-trivial components plus isolated vertices; n = 53 is prime
    # so no rank count divides it.
    rng = np.random.default_rng(11)
    src_a = rng.integers(0, 20, 80)
    dst_a = rng.integers(0, 20, 80)
    src_b = rng.integers(25, 50, 80)
    dst_b = rng.integers(25, 50, 80)
    return Graph.from_edges(
        53,
        np.concatenate([src_a, src_b]),
        np.concatenate([dst_a, dst_b]),
        shuffle=False,
    )


ORACLE_CASES = {
    "er-sparse": (_er_graph(61, 2.0, seed=3), 5),
    "er-dense": (_er_graph(48, 12.0, seed=4), 0),
    "rmat": (rmat_graph(8, 8, seed=2), 17),
    "disconnected": (_disconnected_graph(), 1),
    "isolated-source": (_disconnected_graph(), 52),
}


@pytest.mark.parametrize("algorithm,threads", thread_params(ALL_CASES))
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_equivalence_deterministic(algorithm, threads, case):
    """Deterministic spot checks behind the hypothesis sweep: ER and
    R-MAT instances, disconnected graphs, an isolated source, and a rank
    count that does not divide n — all algorithms against their kind's
    oracle."""
    graph, source = ORACLE_CASES[case]
    for nprocs in (1, 3):
        check_against_oracle(graph, source, algorithm, nprocs, threads=threads)


#: Families that route their exchanges through ``repro.comm``; the wire
#: format must never change what the traversal computes.  Derived from
#: the registry's declared capabilities (threads do not touch the wire
#: path, so one thread stands for all).
WIRE_ALGORITHMS = sorted(
    name for name, spec in ALGORITHMS.items() if "wire" in spec.capabilities
)


@pytest.mark.parametrize("codec_name", sorted(CODEC_FORMS))
@pytest.mark.parametrize("algorithm", WIRE_ALGORITHMS)
@pytest.mark.parametrize("case", ["rmat", "disconnected"])
def test_codecs_preserve_oracle_equivalence(codec_name, algorithm, case):
    """Every codec name, and ``auto``'s main inner form alone (for BFS
    kinds with the sieve on, the most invasive configuration), leaves the
    result bit-identical to the kind's oracle, for every algorithm family
    that ships through the comm channel.  The query kinds refuse the
    sieve structurally, which is asserted here instead."""
    graph, source = ORACLE_CASES[case]
    kind = ALGORITHMS[algorithm].kind
    codec = CODEC_FORMS[codec_name]()
    if kind == "bfs":
        check_against_oracle(
            graph, source, algorithm, 3, codec=codec, sieve=True
        )
        return
    with pytest.raises(ValueError, match="sieve"):
        check_against_oracle(
            graph, source, algorithm, 3, codec=codec, sieve=True
        )
    check_against_oracle(graph, source, algorithm, 3, codec=codec)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_output_passes_graph500_validation(case):
    graph, source, _ = case
    src_internal = int(np.asarray(graph.to_internal(source)))
    levels, parents = bfs_serial(graph.csr, src_internal)
    validate_bfs(graph.csr, src_internal, levels, parents)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_tree_edges_span_one_level(case):
    """Invariant: every BFS tree edge advances the level by exactly one,
    and every graph edge spans at most one level."""
    graph, source, _ = case
    res = run_bfs(graph, source, "serial")
    levels, parents = res.levels, res.parents
    for v in range(graph.n):
        if levels[v] > 0:
            assert levels[parents[v]] == levels[v] - 1
    csr = graph.csr
    rows = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    lv_int, _ = bfs_serial(csr, int(np.asarray(graph.to_internal(source))))
    both = (lv_int[rows] >= 0) & (lv_int[csr.indices] >= 0)
    assert np.all(np.abs(lv_int[rows[both]] - lv_int[csr.indices[both]]) <= 1)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=2**16),
)
def test_reachable_set_independent_of_partitioning(n, seed):
    """The reachable set from a fixed source never depends on rank count."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3 * n))
    graph = Graph.from_edges(
        n,
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
        shuffle=False,
    )
    source = int(rng.integers(0, n))
    baseline = run_bfs(graph, source, "1d", nprocs=1).levels >= 0
    for nprocs in (2, 4, 9):
        reached = run_bfs(graph, source, "2d" if nprocs == 9 else "1d", nprocs=nprocs).levels >= 0
        assert np.array_equal(reached, baseline)

"""Tests for the graph-generation substrate."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    build_csr,
    erdos_renyi_edges,
    rmat_edges,
    rmat_graph,
    uniform_degree_edges,
    webcrawl_graph,
)
from repro.graphs.csr import CSR
from repro.graphs.permutation import (
    apply_permutation,
    invert_permutation,
    random_permutation,
)
from repro.graphs.webcrawl import webcrawl_edges


class TestRmat:
    def test_edge_count_and_range(self):
        src, dst = rmat_edges(10, 16, seed=0)
        assert src.size == dst.size == 16 * 1024
        assert src.min() >= 0 and src.max() < 1024
        assert dst.min() >= 0 and dst.max() < 1024

    def test_deterministic_by_seed(self):
        a = rmat_edges(8, 8, seed=5)
        b = rmat_edges(8, 8, seed=5)
        c = rmat_edges(8, 8, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_skewed_degree_distribution(self):
        g = rmat_graph(12, 16, seed=1)
        deg = g.degrees()
        # R-MAT with Graph 500 parameters concentrates edges heavily:
        # the max degree dwarfs the mean (the load-balance challenge the
        # paper tackles with random relabeling).
        assert deg.max() > 20 * deg.mean()

    def test_scale_zero(self):
        src, dst = rmat_edges(0, 4, seed=0)
        assert np.all(src == 0) and np.all(dst == 0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rmat_edges(4, 4, params=(0.9, 0.2, 0.0, 0.0))
        with pytest.raises(ValueError, match="scale"):
            rmat_edges(-1, 4)

    def test_noise_changes_output_but_not_shape(self):
        base = rmat_edges(8, 8, seed=3, noise=0.0)
        noisy = rmat_edges(8, 8, seed=3, noise=0.1)
        assert noisy[0].size == base[0].size
        assert not np.array_equal(base[0], noisy[0])

    def test_rmat_graph_keeps_input_edge_count(self):
        g = rmat_graph(9, 16, seed=0)
        assert g.m_input == 16 * 512
        # Symmetrized storage is bounded by twice the input.
        assert g.nnz <= 2 * g.m_input


class TestRandomGraphs:
    def test_erdos_renyi_edge_count(self):
        src, dst = erdos_renyi_edges(1000, 8.0, seed=0)
        assert src.size == 4000

    def test_uniform_degree_is_regular_in_sources(self):
        src, dst = uniform_degree_edges(100, 5, seed=0)
        assert np.all(np.bincount(src, minlength=100) == 5)

    def test_uniform_degree_concentrated(self):
        g = Graph.from_edges(500, *uniform_degree_edges(500, 8, seed=1), shuffle=False)
        deg = g.degrees()
        assert deg.max() < 3 * deg.mean()  # no skew, unlike R-MAT

    def test_zero_degree(self):
        src, dst = uniform_degree_edges(10, 0, seed=0)
        assert src.size == dst.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_edges(0, 4)
        with pytest.raises(ValueError):
            uniform_degree_edges(5, -1)


class TestWebcrawl:
    def test_high_diameter(self):
        from repro.core import bfs_serial

        g = webcrawl_graph(8000, n_hosts=40, host_reach=1, seed=0, shuffle=False)
        levels, _ = bfs_serial(g.csr, 0)
        assert levels.max() >= 35  # ~ one level per host in the chain
        assert (levels >= 0).all()  # backbone guarantees connectivity

    def test_shuffle_preserves_diameter(self):
        from repro.core import bfs_serial

        plain = webcrawl_graph(4000, n_hosts=20, seed=0, shuffle=False)
        shuffled = webcrawl_graph(4000, n_hosts=20, seed=0, shuffle=True)
        lv_plain, _ = bfs_serial(plain.csr, 0)
        src = int(shuffled.to_internal(0))
        lv_shuf, _ = bfs_serial(shuffled.csr, src)
        assert lv_plain.max() == lv_shuf.max()

    def test_intra_host_skew(self):
        g = webcrawl_graph(5000, n_hosts=10, seed=1, shuffle=False)
        deg = g.degrees()
        assert deg.max() > 5 * deg.mean()

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n >= n_hosts"):
            webcrawl_edges(5, n_hosts=10)
        with pytest.raises(ValueError, match="zipf"):
            webcrawl_edges(100, n_hosts=4, zipf_exponent=1.5)


#: The two public ways to build a CSR from raw edges.
BUILDS = [
    pytest.param(build_csr, id="build_csr"),
    pytest.param(lambda n, src, dst: Graph.from_edges(n, src, dst).csr, id="from_edges"),
]


class TestCsr:
    def test_symmetrize_and_dedup(self):
        csr = build_csr(4, np.array([0, 0, 1]), np.array([1, 1, 0]))
        # Edge 0-1 collapses to one undirected edge stored twice.
        assert csr.nnz == 2
        assert csr.has_edge(0, 1) and csr.has_edge(1, 0)

    def test_self_loops_dropped(self):
        csr = build_csr(3, np.array([0, 1]), np.array([0, 2]))
        assert not csr.has_edge(0, 0)
        assert csr.has_edge(1, 2)

    def test_directed_mode(self):
        csr = build_csr(3, np.array([0]), np.array([1]), symmetrize=False)
        assert csr.has_edge(0, 1) and not csr.has_edge(1, 0)

    def test_adjacencies_sorted(self):
        rng = np.random.default_rng(0)
        csr = build_csr(50, rng.integers(0, 50, 500), rng.integers(0, 50, 500))
        for v in range(50):
            adj = csr.neighbors(v)
            assert np.all(np.diff(adj) > 0)  # sorted and deduplicated

    def test_is_canonical(self):
        rng = np.random.default_rng(3)
        src, dst = rng.integers(0, 20, 200), rng.integers(0, 20, 200)
        assert build_csr(20, src, dst).is_canonical()
        # Parallel edges, an unsorted adjacency, and the degenerate shapes.
        assert not build_csr(20, src, dst, dedup=False).is_canonical()
        indptr = np.array([0, 2, 2, 3])
        assert CSR(3, indptr, np.array([1, 2, 0])).is_canonical()
        assert not CSR(3, indptr, np.array([2, 1, 0])).is_canonical()
        assert not CSR(3, indptr, np.array([1, 1, 0])).is_canonical()
        assert CSR(2, np.zeros(3, dtype=np.int64), np.empty(0, np.int64)).is_canonical()

    def test_gather_matches_neighbors(self):
        rng = np.random.default_rng(1)
        csr = build_csr(30, rng.integers(0, 30, 200), rng.integers(0, 30, 200))
        frontier = np.array([3, 7, 15], dtype=np.int64)
        targets, sources = csr.gather(frontier)
        expected_t = np.concatenate([csr.neighbors(v) for v in frontier])
        expected_s = np.concatenate(
            [np.full(csr.neighbors(v).size, v) for v in frontier]
        )
        assert np.array_equal(targets, expected_t)
        assert np.array_equal(sources, expected_s)

    def test_gather_empty_frontier(self):
        csr = build_csr(5, np.array([0]), np.array([1]))
        t, s = csr.gather(np.empty(0, dtype=np.int64))
        assert t.size == s.size == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_csr(3, np.array([0]), np.array([5]))

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("src, dst", [([0.5, 1], [1, 2]), ([0, 1], np.array([1.0, 2.0]))])
    def test_non_integer_endpoints_rejected(self, build, src, dst):
        # A cast would truncate 0.5 to 0 and build the edge 0-1.
        with pytest.raises(ValueError, match="must be integers"):
            build(4, src, dst)

    @pytest.mark.parametrize("build", BUILDS)
    def test_empty_list_endpoints_build_an_empty_graph(self, build):
        csr = build(4, [], [])  # ``[]`` is float64 to numpy
        assert csr.nnz == 0 and np.array_equal(csr.indptr, np.zeros(5))

    def test_build_under_a_trace_hook(self):
        # A hook reading ``frame.f_locals`` (debuggers, hypothesis'
        # explain pass) holds a reference to every local of the build.
        rng = np.random.default_rng(3)
        src, dst = rng.integers(0, 40, 300), rng.integers(0, 40, 300)
        expected = Graph.from_edges(40, src, dst, seed=1)

        def hook(frame, event, arg):
            frame.f_locals
            return hook

        previous = sys.gettrace()
        sys.settrace(hook)
        try:
            traced = Graph.from_edges(40, src, dst, seed=1)
        finally:
            sys.settrace(previous)
        assert np.array_equal(traced.csr.indptr, expected.csr.indptr)
        assert np.array_equal(traced.csr.indices, expected.csr.indices)

    def test_directed_build_dedups_and_sorts(self):
        csr = build_csr(
            3, np.array([0, 0, 1, 0]), np.array([2, 2, 0, 1]), symmetrize=False
        )
        assert csr.nnz == 3
        assert np.array_equal(csr.neighbors(0), [1, 2])
        assert csr.has_edge(1, 0) and not csr.has_edge(2, 0)

    def test_from_edges_stores_both_directions(self):
        rng = np.random.default_rng(0)
        src, dst = rng.integers(0, 40, 60), rng.integers(0, 40, 60)
        g = Graph.from_edges(40, src, dst, shuffle=False)
        assert g.m_input == 60 and not g.directed
        for u in range(40):
            for v in g.csr.neighbors(u):
                assert g.csr.has_edge(int(v), u)

    def test_degrees_sum_to_nnz(self):
        rng = np.random.default_rng(2)
        csr = build_csr(20, rng.integers(0, 20, 100), rng.integers(0, 20, 100))
        assert csr.degrees().sum() == csr.nnz


class TestPermutation:
    def test_inversion(self):
        perm = random_permutation(100, seed=0)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(100))
        assert np.array_equal(inv[perm], np.arange(100))

    def test_apply(self):
        perm = np.array([2, 0, 1], dtype=np.int64)
        src, dst = apply_permutation(perm, np.array([0, 1]), np.array([1, 2]))
        assert np.array_equal(src, [2, 0])
        assert np.array_equal(dst, [0, 1])

    def test_graph_label_round_trip(self):
        g = rmat_graph(8, 8, seed=0, shuffle=True)
        orig = np.arange(g.n)
        assert np.array_equal(g.to_original(g.to_internal(orig)), orig)

    def test_original_labels_restore_input_edges(self):
        shuffled = rmat_graph(8, 4, seed=3, shuffle=True)
        plain = rmat_graph(8, 4, seed=3, shuffle=False)
        targets, sources = shuffled.csr.gather(np.arange(shuffled.n))
        u = shuffled.to_original(sources)
        v = shuffled.to_original(targets)
        relabeled = build_csr(shuffled.n, u, v, symmetrize=False)
        assert np.array_equal(relabeled.indptr, plain.csr.indptr)
        assert np.array_equal(relabeled.indices, plain.csr.indices)

    def test_relabel_preserves_structure(self):
        g_plain = rmat_graph(8, 8, seed=0, shuffle=False)
        g_shuf = rmat_graph(8, 8, seed=0, shuffle=True)
        # Same multiset of degrees even though labels moved.
        assert np.array_equal(
            np.sort(g_plain.degrees()), np.sort(g_shuf.degrees())
        )


class TestGraphContainer:
    def test_relabel_vertex_array_round_trip(self):
        from repro.core import bfs_serial

        g = rmat_graph(9, 8, seed=3, shuffle=True)
        src_orig = int(g.random_nonisolated_vertices(1, seed=1)[0])
        levels_int, parents_int = bfs_serial(g.csr, int(g.to_internal(src_orig)))
        levels = g.relabel_level_array(levels_int)
        parents = g.relabel_vertex_array(parents_int)
        assert levels[src_orig] == 0
        assert parents[src_orig] == src_orig
        # Unreachable sentinels survive the relabeling.
        assert np.array_equal(levels < 0, parents < 0)

    @pytest.mark.parametrize("shape", [(50,), (50, 3)])
    def test_relabel_vertex_array_passes_sentinels_through(self, shape):
        """1-D and lane-column input: ids translate, rows move to the
        original indexing, and every negative sentinel (not only -1)
        comes back unchanged — checked element by element."""
        rng = np.random.default_rng(4)
        g = Graph.from_edges(50, rng.integers(0, 50, 200), rng.integers(0, 50, 200), seed=9)
        internal = rng.integers(-3, 50, shape)
        inverse = invert_permutation(g.perm)
        out = g.relabel_vertex_array(internal)
        assert out.shape == shape and out.dtype == np.int64
        for v in range(50):
            for got, value in zip(np.atleast_1d(out[v]), np.atleast_1d(internal[g.perm[v]])):
                assert got == (value if value < 0 else inverse[value])
        assert g._inverse is g._inverse  # computed once per graph
        assert np.array_equal(g.to_original(g.perm), np.arange(50))

    def test_wraps_a_csr_without_relabeling(self):
        csr = build_csr(4, np.array([0, 1]), np.array([1, 2]))
        g = Graph(csr=csr, m_input=2, name="wrapped")
        assert g.perm is None and g.n == 4 and g.nnz == 4
        ids = np.array([3, -1, 0])
        assert g.to_internal(ids) is ids and g.to_original(ids) is ids
        assert g.relabel_vertex_array(ids) is ids
        assert g.original_rows(1, 3) == slice(1, 3)

    def test_npz_round_trip(self, tmp_path):
        # Persisting a graph is ``np.savez`` of its CSR arrays and perm.
        g = rmat_graph(8, 8, seed=9)
        path = tmp_path / "g.npz"
        np.savez(path, indptr=g.csr.indptr, indices=g.csr.indices, perm=g.perm)
        with np.load(path) as d:
            csr = CSR(n=d["indptr"].size - 1, indptr=d["indptr"], indices=d["indices"])
            loaded = Graph(csr=csr, m_input=g.m_input, perm=d["perm"], name=g.name)
        assert loaded.n == g.n and loaded.nnz == g.nnz
        assert np.array_equal(loaded.csr.indices, g.csr.indices)
        orig = np.arange(g.n)
        assert np.array_equal(loaded.to_internal(orig), g.to_internal(orig))
        assert np.array_equal(loaded.to_original(orig), g.to_original(orig))

    def test_validated_search_over_a_cycle_and_an_isolated_vertex(self):
        from repro.core import run_bfs

        g = Graph.from_edges(5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]), shuffle=False)
        res = run_bfs(g, 0, "1d", nprocs=2, validate=True)
        assert np.array_equal(res.levels, [0, 1, 2, 1, -1])

    def test_random_sources_have_degree(self):
        g = rmat_graph(10, 4, seed=0)
        sources = g.random_nonisolated_vertices(8, seed=0)
        deg = g.degrees()
        internal = np.asarray(g.to_internal(sources))
        assert np.all(deg[internal] > 0)
        assert np.unique(sources).size == sources.size

    def test_no_sources_on_empty_graph(self):
        g = Graph.from_edges(4, np.empty(0, np.int64), np.empty(0, np.int64))
        with pytest.raises(ValueError, match="no edges"):
            g.random_nonisolated_vertices(1)

"""Serial BFS tests against hand-computed and oracle answers."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bfs_serial, run_bfs
from repro.core.runner import ALGORITHMS, RunConfig, prepare
from repro.core.serial import bfs_queue
from repro.core.validate import ValidationError, count_traversed_edges, validate_bfs
from repro.graphs import Graph
from repro.graphs.csr import build_csr

from tests.conftest import make_disconnected_graph, make_path_graph, make_star_graph


class TestSerialBfs:
    def test_path_graph_levels(self):
        g = make_path_graph(10)
        levels, parents = bfs_serial(g.csr, 0)
        assert np.array_equal(levels, np.arange(10))
        assert np.array_equal(parents, [0] + list(range(9)))

    def test_path_graph_from_middle(self):
        g = make_path_graph(7)
        levels, _ = bfs_serial(g.csr, 3)
        assert np.array_equal(levels, [3, 2, 1, 0, 1, 2, 3])

    def test_star_graph(self):
        g = make_star_graph(50)
        levels, parents = bfs_serial(g.csr, 0)
        assert levels[0] == 0
        assert np.all(levels[1:] == 1)
        assert np.all(parents[1:] == 0)

    def test_star_from_leaf(self):
        g = make_star_graph(10)
        levels, _ = bfs_serial(g.csr, 5)
        assert levels[5] == 0 and levels[0] == 1
        assert np.all(np.delete(levels, [0, 5]) == 2)

    def test_disconnected(self):
        g = make_disconnected_graph()
        levels, parents = bfs_serial(g.csr, 0)
        assert np.array_equal(levels[:3] >= 0, [True, True, True])
        assert levels[3] == -1 and levels[4] == -1 and levels[5] == -1
        assert parents[3] == -1

    def test_isolated_source(self):
        g = make_disconnected_graph()
        levels, parents = bfs_serial(g.csr, 5)
        assert levels[5] == 0 and parents[5] == 5
        assert np.all(levels[:5] == -1)

    def test_source_out_of_range(self):
        g = make_path_graph(5)
        with pytest.raises(ValueError, match="source"):
            bfs_serial(g.csr, 5)

    def test_matches_queue_oracle(self, rmat_small):
        for seed in range(4):
            src = int(
                rmat_small.to_internal(
                    rmat_small.random_nonisolated_vertices(1, seed=seed)[0]
                )
            )
            lv, pv = bfs_serial(rmat_small.csr, src)
            lq, _ = bfs_queue(rmat_small.csr, src)
            assert np.array_equal(lv, lq)

    def test_high_diameter(self, crawl_graph):
        src = int(crawl_graph.to_internal(0))
        levels, parents = bfs_serial(crawl_graph.csr, src)
        assert levels.max() >= 25
        validate_bfs(crawl_graph.csr, src, levels, parents)


class TestValidation:
    def test_accepts_correct_output(self, rmat_small):
        src = int(rmat_small.to_internal(rmat_small.random_nonisolated_vertices(1, 0)[0]))
        levels, parents = bfs_serial(rmat_small.csr, src)
        validate_bfs(rmat_small.csr, src, levels, parents, reference_levels=levels)

    def test_rejects_wrong_source_level(self):
        g = make_path_graph(4)
        levels, parents = bfs_serial(g.csr, 0)
        levels = levels.copy()
        levels[0] = 1
        with pytest.raises(ValidationError, match="source level"):
            validate_bfs(g.csr, 0, levels, parents)

    def test_rejects_level_skip(self):
        g = make_path_graph(4)
        levels, parents = bfs_serial(g.csr, 0)
        levels = levels.copy()
        levels[3] = 5
        with pytest.raises(ValidationError):
            validate_bfs(g.csr, 0, levels, parents)

    def test_rejects_fake_tree_edge(self):
        g = make_path_graph(5)
        levels, parents = bfs_serial(g.csr, 0)
        parents = parents.copy()
        parents[4] = 0  # 0-4 is not an edge... and levels disagree too
        with pytest.raises(ValidationError):
            validate_bfs(g.csr, 0, levels, parents)

    def test_rejects_nonedge_parent_same_level_gap(self):
        # Construct: square 0-1-2-3-0 plus chord-free diagonal claim.
        import numpy as np

        from repro.graphs import Graph

        g = Graph.from_edges(
            4, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]), shuffle=False
        )
        levels, parents = bfs_serial(g.csr, 0)
        parents = parents.copy()
        # Vertex 2 is at level 2; claim its parent is vertex 1's neighbor 0
        # (level 0): wrong level spacing.
        parents[2] = 0
        with pytest.raises(ValidationError):
            validate_bfs(g.csr, 0, levels, parents)

    def test_rejects_reachability_mismatch(self):
        g = make_path_graph(4)
        levels, parents = bfs_serial(g.csr, 0)
        parents = parents.copy()
        parents[2] = -1
        with pytest.raises(ValidationError, match="disagree"):
            validate_bfs(g.csr, 0, levels, parents)

    def test_rejects_unreachable_neighbor_undirected(self):
        g = make_path_graph(4)
        levels, parents = bfs_serial(g.csr, 0)
        levels, parents = levels.copy(), parents.copy()
        levels[3] = -1
        parents[3] = -1
        with pytest.raises(ValidationError):
            validate_bfs(g.csr, 0, levels, parents)

    def test_reference_mismatch(self):
        g = make_star_graph(5)
        levels, parents = bfs_serial(g.csr, 0)
        wrong = levels.copy()
        wrong[2] = 0  # also breaks other rules, but reference fires too
        with pytest.raises(ValidationError):
            validate_bfs(g.csr, 0, levels, parents, reference_levels=wrong)


def _directed_graphs():
    rng = np.random.default_rng(11)
    return {
        "3-cycle": Graph.from_edges(
            3, np.array([0, 1, 2]), np.array([1, 2, 0]), symmetrize=False, shuffle=False
        ),
        "random-200": Graph.from_edges(
            200, rng.integers(0, 200, 900), rng.integers(0, 200, 900),
            symmetrize=False, seed=5,
        ),
    }


#: Every single-source registry entry (``msbfs-1d`` answers batches).
BFS_ALGORITHMS = sorted(name for name, spec in ALGORITHMS.items() if spec.kind == "bfs")


class TestDirectedValidation:
    """Rule 4 on a directed graph bounds ``level[v]`` by ``level[u] + 1``
    only: a back edge may climb any number of levels."""

    @pytest.mark.parametrize("graph", sorted(_directed_graphs()))
    @pytest.mark.parametrize("algorithm", BFS_ALGORITHMS)
    def test_every_algorithm_validates_on_a_digraph(self, graph, algorithm):
        g = _directed_graphs()[graph]
        source = 0 if g.n == 3 else int(g.random_nonisolated_vertices(1, seed=3)[0])
        ref = run_bfs(g, source, "serial")
        res = run_bfs(g, source, algorithm, nprocs=4, validate=True)
        assert np.array_equal(res.levels, ref.levels)
        assert np.array_equal(res.parents, ref.parents)

    def test_rejects_level_too_deep(self):
        # 0 -> 1 -> 2 and 0 -> 2: the tree 0-1-2 is made of edges, but
        # edge (0, 2) puts vertex 2 at level 1 at most.
        csr = build_csr(3, np.array([0, 1, 0]), np.array([1, 2, 2]), symmetrize=False)
        with pytest.raises(ValidationError, match=r"edge \(0, 2\) spans levels 0 -> 2"):
            validate_bfs(csr, 0, np.array([0, 1, 2]), np.array([0, 0, 1]), undirected=False)

    def test_rejects_unreached_out_neighbour(self):
        csr = build_csr(3, np.array([0, 1]), np.array([1, 2]), symmetrize=False)
        with pytest.raises(ValidationError, match=r"edge \(1, 2\) leads from reachable"):
            validate_bfs(
                csr, 0, np.array([0, 1, -1]), np.array([0, 0, -1]), undirected=False
            )

    def test_accepts_unreached_in_neighbour(self):
        # 2 -> 0 comes from a vertex the search never reaches.
        csr = build_csr(3, np.array([0, 2]), np.array([1, 0]), symmetrize=False)
        validate_bfs(csr, 0, np.array([0, 1, -1]), np.array([0, 0, -1]), undirected=False)

    def test_rejects_level_zero_vertex_with_unreached_parent(self):
        # 0 -> 1 and 2 -> 3: vertex 3 claims level 0 under the unreached 2,
        # which no edge rule sees without a reference.
        csr = build_csr(4, np.array([0, 2]), np.array([1, 3]), symmetrize=False)
        with pytest.raises(ValidationError, match="vertex 3 at level 0 has parent 2 at level -1"):
            validate_bfs(
                csr, 0, np.array([0, 1, -1, 0]), np.array([0, 0, -1, 2]), undirected=False
            )


def _is_bfs_output(csr, source, levels, parents):
    """Written out vertex by vertex: ``bfs_serial``'s levels, and each
    reached non-source vertex's parent an in-neighbour one level up."""
    if not np.array_equal(levels, bfs_serial(csr, source)[0]):
        return False
    for v in range(csr.n):
        p = int(parents[v])
        if v == source or levels[v] < 0:
            ok = p == (source if v == source else -1)
        else:
            ok = 0 <= p < csr.n and levels[p] == levels[v] - 1 and csr.has_edge(p, v)
        if not ok:
            return False
    return True


def _drop_edge(csr, k, undirected):
    """``csr`` without stored adjacency ``k`` (and its reverse when
    ``undirected``)."""
    rows = np.repeat(np.arange(csr.n), csr.degrees())
    u, v = rows[k], csr.indices[k]
    keep = ~((rows == u) & (csr.indices == v))
    if undirected:
        keep &= ~((rows == v) & (csr.indices == u))
    return build_csr(csr.n, rows[keep], csr.indices[keep], symmetrize=False)


class TestValidationImpliesExactLevels:
    """Rules 1-4 with no reference: an output passes iff it is a BFS
    output, under every single corruption of a correct one."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 10),
        edges=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
        directed=st.booleans(),
        data=st.data(),
    )
    def test_passes_iff_a_bfs_output(self, n, edges, directed, data):
        src, dst = (np.array([e[i] % n for e in edges], dtype=np.int64) for i in (0, 1))
        csr = build_csr(n, src, dst, symmetrize=not directed)
        source = data.draw(st.integers(0, n - 1))
        levels, parents = (a.copy() for a in bfs_serial(csr, source))
        kind = data.draw(st.sampled_from(["none", "parent", "level", "edge", "arbitrary"]))
        value = st.integers(-2, n)
        if kind in ("parent", "level"):
            target = parents if kind == "parent" else levels
            target[data.draw(st.integers(0, n - 1))] = data.draw(value)
        elif kind == "edge" and csr.nnz:
            csr = _drop_edge(csr, data.draw(st.integers(0, csr.nnz - 1)), not directed)
        elif kind == "arbitrary":
            levels = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
            parents = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        try:
            validate_bfs(csr, source, levels, parents, undirected=not directed)
        except ValidationError:
            passed = False
        else:
            passed = True
            assert np.array_equal(levels, bfs_serial(csr, source)[0])
        assert passed == _is_bfs_output(csr, source, levels, parents)


class TestValidatedSearchRunsNoOracle:
    """``validate=True`` checks a search by rules 1-4 alone: only the
    ``serial`` entry runs ``bfs_serial``, once, as its own search."""

    @pytest.mark.parametrize("algorithm", BFS_ALGORITHMS)
    def test_bfs_serial_calls(self, algorithm, rmat_small, monkeypatch):
        source = 7
        reference = run_bfs(rmat_small, source, "serial")
        session = prepare(rmat_small, RunConfig(algorithm=algorithm, nprocs=4, validate=True))
        calls = []

        def counted(*args):
            calls.append(args)
            return bfs_serial(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "bfs_serial", None) is bfs_serial:
                monkeypatch.setattr(module, "bfs_serial", counted)
        result = session.bfs(source)
        assert len(calls) == (algorithm == "serial")
        assert np.array_equal(result.levels, reference.levels)


class TestTraversedEdges:
    def test_full_component(self):
        g = make_path_graph(5)
        levels, _ = bfs_serial(g.csr, 0)
        assert count_traversed_edges(g.csr, levels) == 4

    def test_partial_component(self):
        g = make_disconnected_graph()
        levels, _ = bfs_serial(g.csr, 0)
        # Triangle has 3 undirected edges; the 3-4 edge is outside.
        assert count_traversed_edges(g.csr, levels) == 3

    def test_m_input_scaling(self):
        g = make_path_graph(3)
        levels, _ = bfs_serial(g.csr, 0)
        # Pretend the input listed each edge twice (duplicates).
        assert count_traversed_edges(g.csr, levels, m_input=4) == 4

    def test_isolated_source_zero_edges(self):
        g = make_disconnected_graph()
        levels, _ = bfs_serial(g.csr, 5)
        assert count_traversed_edges(g.csr, levels) == 0

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_matches_source_id_formula(self, symmetrize):
        """The bool row mask counts what the int64 per-edge source-id
        formula counts, on a directed graph and on reached sets that are
        not closed under adjacency (arbitrary, not BFS levels)."""
        rng = np.random.default_rng(7)
        n = 200
        csr = build_csr(n, rng.integers(0, n, 900), rng.integers(0, n, 900), symmetrize)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            levels = np.where(rng.random(n) < density, 1, -1)
            reached = levels >= 0
            edge_src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
            within = int((reached[edge_src] & reached[csr.indices]).sum())
            assert count_traversed_edges(csr, levels) == within // 2
            assert count_traversed_edges(csr, levels, m_input=1234) == round(
                1234 * (within // 2) / (csr.nnz // 2)
            )

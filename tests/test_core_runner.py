"""Tests for the high-level run_bfs driver."""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import ALGORITHMS, run_bfs
from repro.query import run_query

from tests.conftest import make_path_graph, prepare_any


class TestRunBfs:
    def test_all_algorithms_agree(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 0)[0])
        ref = run_bfs(rmat_small, src, "serial")
        for algo, spec in ALGORITHMS.items():
            if spec.kind != "bfs":
                # Batched query families go through repro.query.run_query
                # (covered by the property/oracle sweeps); run_bfs must
                # refuse them with a pointer rather than misinterpret.
                with pytest.raises(ValueError, match="run_query"):
                    run_bfs(rmat_small, src, algo, nprocs=9)
                continue
            res = run_bfs(rmat_small, src, algo, nprocs=9, validate=True)
            assert np.array_equal(res.levels, ref.levels), algo
            assert np.array_equal(res.parents, ref.parents), algo
            assert res.m_traversed == ref.m_traversed, algo

    def test_results_in_original_labels(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 1)[0])
        res = run_bfs(rmat_small, src, "1d", nprocs=4)
        assert res.levels[src] == 0
        assert res.parents[src] == src
        # A neighbor (original labels) of the source sits at level <= 1.
        internal_src = int(np.asarray(rmat_small.to_internal(src)))
        nbr_internal = int(rmat_small.csr.neighbors(internal_src)[0])
        nbr = int(np.asarray(rmat_small.to_original(nbr_internal)))
        assert res.levels[nbr] == 1

    def test_2d_uses_closest_square(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 2)[0])
        res = run_bfs(rmat_small, src, "2d", nprocs=10)
        assert res.nranks == 9  # paper: closest square grid

    def test_unknown_algorithm(self, rmat_small):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_bfs(rmat_small, 0, "3d")

    def test_bad_source(self, rmat_small):
        with pytest.raises(ValueError, match="source"):
            run_bfs(rmat_small, rmat_small.n, "serial")

    @pytest.mark.parametrize("algorithm", ["serial", "1d", "2d", "pbgl"])
    def test_non_integer_source_is_refused(self, algorithm):
        """``1.9`` used to search from vertex 1 and report source 1.9,
        and ``True`` to pass for vertex 1."""
        path = make_path_graph(3)
        for source in (1.9, np.float64(1.0), True, np.True_):
            with pytest.raises(ValueError, match="vertex ids must be integers"):
                run_bfs(path, source, algorithm, nprocs=2)
        session = repro.prepare(path, repro.RunConfig(algorithm=algorithm, nprocs=2))
        with pytest.raises(ValueError, match=r"got 0\.5"):
            session.bfs(0.5)
        res = session.bfs(np.int16(2))
        assert res.levels.tolist() == [2, 1, 0]

    @pytest.mark.parametrize("machine", [None, "franklin", "hopper"])
    def test_threads_are_one_unless_asked(self, rmat_small, machine):
        """No machine picks a thread count: the paper's per-machine counts
        live in ``repro.bench.harness.paper_threads`` only."""
        for threads in (1, 6):
            res = run_bfs(rmat_small, 0, "2d", nprocs=4, machine=machine, threads=threads)
            assert (res.threads, res.modeled_cores) == (threads, threads * res.nranks)

    def test_untimed_run_has_no_teps(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 4)[0])
        res = run_bfs(rmat_small, src, "1d", nprocs=2)
        with pytest.raises(ValueError, match="untimed"):
            res.gteps()

    def test_timed_run_reports_breakdown(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 5)[0])
        res = run_bfs(rmat_small, src, "2d", nprocs=9, machine="hopper")
        assert res.time_total > 0
        assert 0 < res.time_comm <= res.time_total
        assert res.time_comp > 0
        assert res.gteps() > 0
        assert res.mteps() == pytest.approx(res.gteps() * 1e3)

    def test_machine_accepts_config_object(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 6)[0])
        res = run_bfs(rmat_small, src, "1d", nprocs=4, machine=repro.FRANKLIN)
        assert res.time_total > 0

    def test_unknown_machine_rejected(self, rmat_small):
        with pytest.raises(ValueError, match="unknown machine"):
            run_bfs(rmat_small, 0, "1d", machine="bluegene")

    def test_vector_dist_ablation(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 7)[0])
        ref = run_bfs(rmat_small, src, "serial")
        res = run_bfs(rmat_small, src, "2d", nprocs=9, vector_dist="1d")
        assert np.array_equal(res.levels, ref.levels)

    def test_serial_on_directed_graph(self):
        src_arr = np.array([0, 1, 2], dtype=np.int64)
        dst_arr = np.array([1, 2, 3], dtype=np.int64)
        g = repro.Graph.from_edges(
            4, src_arr, dst_arr, symmetrize=False, shuffle=False
        )
        res = run_bfs(g, 0, "serial")
        assert np.array_equal(res.levels, [0, 1, 2, 3])
        # From the middle, earlier vertices are unreachable (directed).
        res = run_bfs(g, 2, "serial")
        assert np.array_equal(res.levels, [-1, -1, 0, 1])

    def test_distributed_on_directed_graph(self):
        rng = np.random.default_rng(0)
        g = repro.Graph.from_edges(
            64,
            rng.integers(0, 64, 300),
            rng.integers(0, 64, 300),
            symmetrize=False,
            shuffle=True,
            seed=1,
        )
        src = int(g.random_nonisolated_vertices(1, 2)[0])
        ref = run_bfs(g, src, "serial")
        for algo in ("1d", "2d"):
            res = run_bfs(g, src, algo, nprocs=4)
            assert np.array_equal(res.levels, ref.levels), algo

    def test_modeled_cores_forces_heap(self, rmat_small):
        src = int(rmat_small.random_nonisolated_vertices(1, 8)[0])
        ref = run_bfs(rmat_small, src, "serial")
        res = run_bfs(
            rmat_small, src, "2d", nprocs=4, modeled_cores=40_000, kernel="auto"
        )
        assert np.array_equal(res.levels, ref.levels)


#: Values that are not vertex ids.  Each used to be truncated, coerced or
#: passed through to a later, unrelated error; now every entry point
#: refuses it up front with a message that repeats it.
NON_INTEGER_IDS = [
    pytest.param(1.9, id="float"),
    pytest.param(0.5, id="float-below-one"),
    pytest.param(2.0, id="float-integral"),
    pytest.param(np.float64(1.0), id="np-float64"),
    pytest.param(np.float32(2.0), id="np-float32"),
    pytest.param(np.float16(0.0), id="np-float16"),
    pytest.param(True, id="true"),
    pytest.param(False, id="false"),
    pytest.param(np.True_, id="np-true"),
    pytest.param(np.False_, id="np-false"),
    pytest.param("1", id="str"),
    pytest.param(None, id="none"),
    pytest.param(1 + 0j, id="complex"),
    pytest.param(Fraction(1), id="fraction"),
    pytest.param(Decimal(1), id="decimal"),
]

INTEGER_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                 np.uint64]


class TestVertexIdTypes:
    @pytest.mark.parametrize("value", NON_INTEGER_IDS)
    def test_refused_and_named(self, value):
        path = make_path_graph(3)
        named = re.escape(f"vertex ids must be integers, got {value!r}")
        with pytest.raises(ValueError, match=named):
            run_bfs(path, value, "1d", nprocs=2)
        with pytest.raises(ValueError, match=named):
            run_query(path, sources=[0, value], nprocs=2)
        with pytest.raises(ValueError, match=named):
            run_query(path, config=repro.RunConfig(algorithm="msbfs-1d", sources=(value, 1)))

    @pytest.mark.parametrize("int_type", INTEGER_TYPES, ids=lambda t: t.__name__)
    def test_integer_types_are_accepted(self, int_type):
        """Any Python or numpy integer runs, and the result reports the
        source as a plain ``int`` whatever width it came in."""
        path = make_path_graph(3)
        res = run_bfs(path, int_type(2), "1d", nprocs=2)
        assert type(res.source) is int and res.source == 2
        assert res.levels.tolist() == [2, 1, 0]
        batch = run_query(path, sources=[int_type(2), int_type(0)], nprocs=2)
        assert batch.sources.tolist() == [2, 0]
        assert batch.lane(1)[0].tolist() == [0, 1, 2]
        assert type(batch.source) is int and batch.source == 2

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_entry_checks_the_source(self, algorithm):
        """The check sits on the shared session path, so no registry
        entry can search from a truncated float."""
        path = make_path_graph(3)
        session = prepare_any(path, algorithm, nprocs=2)
        if ALGORITHMS[algorithm].kind == "bfs":
            with pytest.raises(ValueError, match=r"got 1\.5"):
                session.bfs(1.5)
            assert session.bfs(np.int64(2)).levels.tolist() == [2, 1, 0]
        else:
            with pytest.raises(ValueError, match=r"got 1\.5"):
                session.query([0, 1.5])
            assert session.query([np.int64(2)]).lane(0)[0].tolist() == [2, 1, 0]


_HYBRIDS = ["1d-hybrid", "1d-dirop-hybrid", "2d-hybrid", "2d-dirop-hybrid"]


@pytest.mark.parametrize(
    "entry", ["run-config", "run-bfs", "run-query", "cli-query", "cli-graph500"]
)
@pytest.mark.parametrize("name", ["cc", "sssp-delta", "landmark"] + _HYBRIDS)
def test_deleted_registry_names_are_unknown(name, entry, capsys):
    """The semiring query zoo and the ``*-hybrid`` names (now the family
    with ``threads=``) are gone: each fails where a caller meets it, with
    the names that remain."""
    path = make_path_graph(3)
    if entry == "cli-query":
        assert main(["query", "--scale", "6", "--algorithm", name]) == 2
        assert f"{name!r} is not a batched query algorithm; known: ['msbfs-1d']" in (
            capsys.readouterr().err
        )
        return
    if entry == "cli-graph500":
        assert main(["graph500", "--scale", "6", "--nbfs", "1", "--algorithm", name]) == 2
        assert f"graph500: unknown algorithm '{name}'; known: {sorted(ALGORITHMS)}" in (
            capsys.readouterr().err
        )
        return
    with pytest.raises(ValueError, match=f"unknown algorithm '{name}'") as err:
        if entry == "run-config":
            repro.RunConfig(algorithm=name)
        elif entry == "run-bfs":
            run_bfs(path, 0, name, nprocs=2)
        else:
            run_query(path, sources=[0], algorithm=name, nprocs=2)
    assert str(sorted(ALGORITHMS)) in str(err.value)


@pytest.mark.parametrize("field", ["sssp_delta", "weight_max", "weight_seed", "landmarks"])
def test_deleted_query_fields_are_refused(field):
    """The zoo's ``RunConfig`` fields left with it: passing one is an
    error, not a silently ignored keyword."""
    path = make_path_graph(3)
    with pytest.raises(TypeError, match=field):
        repro.RunConfig(algorithm="msbfs-1d", **{field: 1})
    with pytest.raises(TypeError, match=field):
        run_query(path, sources=[0], nprocs=2, **{field: 1})
    with pytest.raises(TypeError, match=field):
        run_bfs(path, 0, "1d", nprocs=2, **{field: 1})

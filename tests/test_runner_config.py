"""RunConfig / run_bfs compatibility-shim contract tests.

Three guarantees:

* **Mapping** — every legacy ``run_bfs`` keyword lands on the
  :class:`repro.core.runner.RunConfig` field of the same name, locked by
  monkeypatching :func:`repro.core.runner.run` and comparing the config
  the shim builds (frozen-dataclass equality) for the keyword combos the
  experiment harness and CLI actually use.
* **Error messages** — every validation failure raises the SAME
  ``ValueError`` text as before the refactor, locked with
  ``pytest.raises(match=...)`` so downstream ``except`` handlers and CLI
  output stay stable.
* **Equivalence** — one real traversal through each API produces
  identical parents, levels and modeled stats.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

import repro.core.runner as runner_mod
from repro.comm import DeltaVarintCodec
from repro.core import RunConfig, run, run_bfs
from repro.obs import Tracer

from tests.conftest import make_path_graph


@pytest.fixture
def captured(monkeypatch):
    """Monkeypatch the typed driver; record the config the shim builds."""
    calls: list[tuple] = []

    def fake_run(graph, source, config):
        calls.append((graph, source, config))
        return None

    monkeypatch.setattr(runner_mod, "run", fake_run)
    return calls


class TestShimMapping:
    """Legacy keyword combos map onto the equivalent RunConfig."""

    def test_defaults(self, captured):
        graph = object()
        run_bfs(graph, 3)
        assert captured == [(graph, 3, RunConfig())]

    def test_experiment_harness_combo(self, captured):
        # The strong-scaling sweeps: flat 1d with the ablation switches.
        run_bfs(
            object(), 0, "1d", nprocs=16, machine="franklin",
            dedup_sends=False, codec="auto", sieve=True,
        )
        assert captured[0][2] == RunConfig(
            algorithm="1d", nprocs=16, machine="franklin",
            dedup_sends=False, codec="auto", sieve=True,
        )

    def test_threads(self, captured):
        run_bfs(object(), 0, "1d", nprocs=np.int64(8), threads=np.int8(6), machine="hopper")
        assert captured[0][2] == RunConfig(
            algorithm="1d", nprocs=8, threads=6, machine="hopper"
        )
        assert type(captured[0][2].nprocs) is type(captured[0][2].threads) is int

    def test_2d_combo(self, captured):
        # The Figure 4/6 ablations: grid, kernel, vector distribution.
        run_bfs(
            object(), 0, "2d", nprocs=16, kernel="heap", vector_dist="1d",
            modeled_cores=64, grid_shape=(2, 8), validate=True,
        )
        assert captured[0][2] == RunConfig(
            algorithm="2d", nprocs=16, kernel="heap", vector_dist="1d",
            modeled_cores=64, grid_shape=(2, 8), validate=True,
        )

    def test_dirop_thresholds_and_trace(self, captured):
        run_bfs(
            object(), 0, "1d-dirop", dirop_alpha=12.0, dirop_beta=20.0,
            trace=True,
        )
        assert captured[0][2] == RunConfig(
            algorithm="1d-dirop", dirop_alpha=12.0, dirop_beta=20.0,
            trace=True,
        )

    def test_tracer_passthrough(self, captured):
        tracer = Tracer()
        run_bfs(object(), 0, "1d", tracer=tracer)
        assert captured[0][2].tracer is tracer

    def test_positional_algorithm_and_keyword_equivalent(self, captured):
        run_bfs(object(), 0, "2d", threads=6)
        run_bfs(object(), 0, algorithm="2d", threads=6)
        assert captured[0][2] == captured[1][2]


class TestValidationMessages:
    """The exact pre-refactor ValueError texts, locked verbatim."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_path_graph(32)

    def test_unknown_algorithm(self, graph):
        known = sorted(runner_mod.ALGORITHMS)
        msg = re.escape(f"unknown algorithm 'bogus'; known: {known}")
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, "bogus")
        with pytest.raises(ValueError, match=msg):
            RunConfig(algorithm="bogus")

    def test_unknown_codec(self, graph):
        """A codec name outside ``CODECS`` fails when the config is
        built, not inside a rank; an instance is taken as it is."""
        msg = re.escape("unknown codec 'lz4'; known: ['auto', 'raw']")
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 1, "1d", nprocs=2, codec="lz4")
        with pytest.raises(ValueError, match=msg):
            RunConfig(codec="lz4")
        assert RunConfig(codec=DeltaVarintCodec()).codec.name == "delta-varint"

    def test_source_out_of_range(self, graph):
        with pytest.raises(
            ValueError, match=re.escape("source 32 out of range [0, 32)")
        ):
            run_bfs(graph, 32)
        with pytest.raises(
            ValueError, match=re.escape("source -1 out of range [0, 32)")
        ):
            run_bfs(graph, -1)

    def test_unknown_machine(self, graph):
        with pytest.raises(ValueError, match=re.escape("unknown machine 'cray-3'")):
            run_bfs(graph, 0, "1d", machine="cray-3")

    @pytest.mark.parametrize("field", ["nprocs", "threads"])
    @pytest.mark.parametrize(
        "value,message",
        [(0, ">= 1, got 0"), (True, "an integer, got True"), (2.5, "an integer, got 2.5"),
         (4.0, "an integer, got 4.0"), (np.float64(4), "an integer, got"), ("4", "an integer")],
    )
    def test_bad_rank_and_thread_counts(self, graph, field, value, message):
        """Refused when the config is built: ``nprocs=True`` used to run as
        ``nranks=True``, ``threads=2.5`` to price 2.5 threads, and
        ``nprocs=4.0`` to fail inside a rank with a TypeError."""
        for build in (lambda: RunConfig(algorithm="2d", **{field: value}),
                      lambda: run_bfs(graph, 0, "1d", **{field: value})):
            with pytest.raises(ValueError, match=re.escape(f"{field} must be {message}")):
                build()

    @pytest.mark.parametrize("algorithm", ["serial", "pbgl", "graph500-ref", "msbfs-1d"])
    def test_threads_gated_by_capability(self, graph, algorithm):
        msg = f"{algorithm} does not model intra-node threads; threads > 1 applies to the 1d/2d"
        with pytest.raises(ValueError, match=re.escape(msg)):
            runner_mod.prepare(graph, RunConfig(algorithm=algorithm, threads=4))

    @pytest.mark.parametrize("algorithm", ["serial", "pbgl", "graph500-ref"])
    def test_wire_options_gated_by_capability(self, graph, algorithm):
        msg = re.escape(
            f"{algorithm} does not route its exchanges through repro.comm; "
            "codec/sieve apply to the 1d/2d families only"
        )
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, algorithm, codec=DeltaVarintCodec())
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, algorithm, sieve=True)

    def test_raw_codec_allowed_everywhere(self, graph):
        # codec="raw" is the no-op default; it must not trip the gate.
        result = run_bfs(graph, 0, "serial", codec="raw", sieve=False)
        assert result.nlevels == 31

    @pytest.mark.parametrize("algorithm", ["serial", "pbgl", "graph500-ref"])
    def test_tracer_gated_by_capability(self, graph, algorithm):
        msg = re.escape(
            f"{algorithm} is not instrumented for span tracing; "
            "tracer applies to the 1d/2d families only"
        )
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, algorithm, tracer=Tracer())

    def test_bad_grid(self, graph):
        with pytest.raises(ValueError, match=re.escape("grid must be positive, got 0x2")):
            run_bfs(graph, 0, "2d", grid_shape=(0, 2))


class TestRunEquivalence:
    """run_bfs(...) and run(graph, src, RunConfig(...)) are the same run."""

    def test_identical_results(self, rmat_small):
        source = int(rmat_small.random_nonisolated_vertices(1, seed=11)[0])
        kwargs = dict(
            algorithm="1d-dirop", nprocs=4, machine="hopper",
            codec=DeltaVarintCodec(), sieve=True, trace=True,
        )
        via_shim = run_bfs(rmat_small, source, **kwargs)
        via_config = run(rmat_small, source, RunConfig(**kwargs))
        np.testing.assert_array_equal(via_shim.parents, via_config.parents)
        np.testing.assert_array_equal(via_shim.levels, via_config.levels)
        assert via_shim.stats.makespan == via_config.stats.makespan
        assert via_shim.meta["level_profile"] == via_config.meta["level_profile"]

"""Runtime-equivalence sweep: full runs under every execution backend.

For every registered algorithm — each threaded entry at one and at more
threads per rank — one complete timed traversal runs under
each execution runtime — the default ``sequential``, then ``threads``
and ``processes`` — and the *entire* observable output is asserted
identical: levels, parents, level count, traversed-edge count, the
modeled time breakdown, and (for the instrumented families) the full
span stream.  This is the end-to-end half of the runtime bit-identity
contract (see :mod:`repro.runtime`): swapping the backend may change
wall-clock only, never results.

Below the algorithms, hypothesis drives the communicator itself with
random programs of collectives and splits: the
``sequential`` and ``threads`` schedules must agree on every return,
clock and counter, and a program with one collective left out must be
caught by ``sequential``'s structural deadlock detector, not a timer.

``RUNTIME_BACKEND_ALGORITHMS`` is an import-time snapshot of the
registry, wired into ``tests/test_registry_coverage.py`` as the
``runtime-backend`` harness — registering an algorithm that skips this
sweep fails the coverage meta-test by name.
"""

from __future__ import annotations

import glob
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.core.runner import ALGORITHMS, RunConfig
from repro.graphs.rmat import rmat_graph
from repro.model import NetworkCostModel
from repro.mpsim import SpmdFailure, run_spmd
from repro.obs import Tracer

from tests.conftest import launch_any, thread_cases, thread_params

#: Every registered algorithm as ``(algorithm, threads)`` cases; the registry
#: coverage meta-test compares this import-time list against the live registry.
RUNTIME_BACKEND_CASES = thread_cases(ALGORITHMS)

#: The instrumented families additionally lock the span stream.
TRACED_ALGORITHMS = sorted(
    name for name, spec in ALGORITHMS.items() if "tracer" in spec.capabilities
)

#: The backends a sweep compares against the default's run.
OTHER_RUNTIMES = tuple(b for b in runtime.BACKENDS if b != runtime.DEFAULT_RUNTIME)

#: Small-but-structured instance: R-MAT keeps hubs (dense middle levels,
#: bottom-up switches) while staying cheap enough to fork a worker set
#: per run at full registry width.
GRAPH = rmat_graph(8, 8, seed=2)
SOURCE = 17
NPROCS = 4


def _run(algorithm: str, runtime_name: str, **kwargs):
    return launch_any(
        GRAPH,
        SOURCE,
        algorithm,
        nprocs=NPROCS,
        machine="hopper",
        runtime=runtime_name,
        **kwargs,
    )


def _observe(result) -> dict:
    """Everything a runtime switch must leave bit-identical."""
    return {
        "levels": np.asarray(result.levels).tolist(),
        "parents": np.asarray(result.parents).tolist(),
        "nlevels": result.nlevels,
        "m_traversed": result.m_traversed,
        "time_total": result.time_total,
        "time_comm": result.time_comm,
        "time_comp": result.time_comp,
    }


@pytest.mark.parametrize("algorithm,threads", thread_params(RUNTIME_BACKEND_CASES))
def test_runtime_switch_preserves_full_run(algorithm, threads):
    """sequential / threads / processes agree on every observable."""
    baseline = _observe(_run(algorithm, runtime.DEFAULT_RUNTIME, threads=threads))
    for name in OTHER_RUNTIMES:
        assert _observe(_run(algorithm, name, threads=threads)) == baseline, name


@pytest.mark.parametrize("algorithm", TRACED_ALGORITHMS)
def test_runtime_switch_preserves_spans(algorithm):
    """The virtual-time span stream is backend-invariant, including for
    the processes backend where spans are shipped home as shards."""
    streams = {}
    for name in runtime.BACKENDS:
        tracer = Tracer()
        _run(algorithm, name, tracer=tracer)
        streams[name] = [
            (s.rank, s.phase, s.t_start, s.t_end, s.level, s.depth, s.parent)
            for s in tracer.all_spans()
        ]
    for name in OTHER_RUNTIMES:
        assert streams[name] == streams[runtime.DEFAULT_RUNTIME], name


class TestProcessesMechanics:
    """Direct checks of the process backend's distinctive claims."""

    def test_workers_run_concurrently_in_distinct_processes(self):
        """All ranks rendezvous at one collective while alive at once,
        each in its own forked interpreter."""

        def body(comm):
            pids = comm.allgatherv(np.array([os.getpid()], dtype=np.int64))
            return sorted(int(p) for p in pids)

        spmd = run_spmd(4, body, runtime="processes")
        pids = spmd.returns[0]
        assert spmd.returns == [pids] * 4
        assert len(set(pids)) == 4, "each rank must be its own process"
        assert os.getpid() not in pids, "ranks must not run in the parent"

    def test_shared_memory_transfers_round_trip_and_clean_up(self):
        """Buffers above the shm threshold cross correctly and every
        segment is unlinked by the end of the run."""
        from repro.runtime.processes import SHM_MIN_BYTES

        words = 2 * SHM_MIN_BYTES // 8

        def body(comm):
            data = np.full(words, comm.rank + 1, dtype=np.int64)
            gathered = comm.allgatherv(data)
            return int(gathered.sum())

        shm_visible = os.path.isdir("/dev/shm")
        before = set(glob.glob("/dev/shm/psm_*")) if shm_visible else set()
        spmd = run_spmd(4, body, runtime="processes")
        expected = sum(r + 1 for r in range(4)) * words
        assert list(spmd.returns) == [expected] * 4
        if shm_visible:
            assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_worker_failure_raises_picklable_spmd_failure(self):
        def body(comm):
            if comm.rank == 2:
                raise ValueError("boom on rank 2")
            comm.barrier()
            return comm.rank

        with pytest.raises(SpmdFailure, match="rank 2 failed") as info:
            run_spmd(4, body, runtime="processes")
        failure = info.value
        assert failure.rank == 2
        assert isinstance(failure.exc, ValueError)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.rank == 2 and str(clone) == str(failure)


class TestRuntimePolicy:
    """One default backend, selected only per run by ``runtime=``."""

    def test_default_is_sequential(self):
        assert runtime.DEFAULT_RUNTIME == "sequential"
        assert runtime.get_backend().name == "sequential"
        engines = run_spmd(2, lambda comm: type(comm.engine).__name__).returns
        assert engines == ["SequentialEngine"] * 2
        with pytest.raises(ValueError, match="unknown execution runtime"):
            runtime.get_backend("fibers")

    def test_cli_offers_the_backend_list(self):
        from repro.cli import build_parser

        (action,) = [a for a in build_parser()._actions if a.dest == "runtime"]
        assert action.default is None
        assert tuple(action.choices) == runtime.BACKENDS

    def test_run_config_validates_runtime(self):
        with pytest.raises(ValueError, match="unknown execution runtime"):
            RunConfig(runtime="fibers")
        with pytest.raises(ValueError, match="spmd_timeout"):
            RunConfig(spmd_timeout=0.0)


class TestTimeoutPolicy:
    """REPRO_SPMD_TIMEOUT and the spmd_timeout= override (satellite 1)."""

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(runtime.TIMEOUT_ENV_VAR, raising=False)
        assert runtime.default_timeout() == runtime.DEFAULT_TIMEOUT

    def test_env_overrides_engine_default(self, monkeypatch):
        from repro.runtime.threads import ThreadsEngine

        monkeypatch.setenv(runtime.TIMEOUT_ENV_VAR, "42.5")
        assert runtime.default_timeout() == 42.5
        assert ThreadsEngine(2).timeout == 42.5
        # An explicit timeout= still wins over the environment.
        assert ThreadsEngine(2, timeout=7.0).timeout == 7.0

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(runtime.TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ValueError, match="not a number"):
            runtime.default_timeout()
        monkeypatch.setenv(runtime.TIMEOUT_ENV_VAR, "-3")
        with pytest.raises(ValueError, match="must be > 0"):
            runtime.default_timeout()

    def test_spmd_timeout_reaches_the_engine(self):
        """The RunConfig field arrives as the engine timeout: a run that
        deadlocks under a tiny budget aborts (instead of waiting out the
        600 s default), proving the value was applied."""

        def stuck(comm):
            if comm.rank == 0:
                comm.barrier()
            return True

        with pytest.raises(SpmdFailure, match="failed"):
            run_spmd(2, stuck, runtime="threads", timeout=0.4)


# -- the communicator under random programs --------------------------------

#: World collectives a program step may issue (also run on sub-communicators).
COLLECTIVES = ("allreduce", "alltoallv", "allgatherv", "bcast")


@st.composite
def comm_programs(draw):
    """``(nranks, ops, seed)``: each op is ``("world", collective)`` or
    ``("split", collective, k)`` — split by ``rank % k``, then the
    collective on the sub-communicator.  ``k <= nranks // 2`` keeps
    every sub-communicator at two members or more, so leaving one of its
    collectives out always strands a peer."""
    nranks = draw(st.integers(2, 5))
    op = st.one_of(
        st.tuples(st.just("world"), st.sampled_from(COLLECTIVES)),
        st.tuples(
            st.just("split"),
            st.sampled_from(COLLECTIVES),
            st.integers(1, max(1, nranks // 2)),
        ),
    )
    ops = draw(st.lists(op, min_size=1, max_size=12))
    return nranks, ops, draw(st.integers(0, 2**16))


def _collective(comm, kind, rng):
    if kind == "allreduce":
        return comm.allreduce(int(rng.integers(-50, 50)))
    if kind == "alltoallv":
        return comm.alltoallv(
            [rng.integers(0, 100, size=int(rng.integers(0, 5))) for _ in range(comm.size)]
        )
    if kind == "allgatherv":
        return comm.allgatherv(rng.integers(0, 100, size=int(rng.integers(0, 6))), concat=False)
    return comm.bcast(int(rng.integers(0, 1000)) if comm.rank == 0 else None, root=0)


def _program(comm, ops, seed, skip=None):
    """Run ``ops`` on this rank.  ``skip = (rank, step)`` makes that rank
    leave out the collective of that step (a ``split`` itself still runs)."""
    outputs = []
    for step, (kind, *params) in enumerate(ops):
        rng = np.random.default_rng((seed, comm.rank, step))
        target = comm.split(color=comm.rank % params[1]) if kind == "split" else comm
        if skip == (comm.rank, step):
            continue
        out = _collective(target, params[0], rng)
        if isinstance(out, list):
            outputs.append([np.asarray(piece).tolist() for piece in out])
        else:
            outputs.append(np.asarray(out).tolist())
        # Skewed local work, so collectives book real waits on the clocks.
        comm.charge_compute(float(rng.random()) * 1e-5, steps=1.0)
    return outputs


def _observe_spmd(spmd) -> tuple:
    return (
        spmd.returns,
        [(c.snapshot(), dict(c.counters)) for c in spmd.stats.clocks],
        [
            (dict(s.words_sent), dict(s.words_recv), dict(s.calls), dict(s.mpi_time_by_kind))
            for s in spmd.stats.comm
        ],
    )


@settings(max_examples=40, deadline=None)
@given(comm_programs())
def test_random_programs_match_across_schedulers_and_deadlock_structurally(program):
    nranks, ops, seed = program

    def run(name, **kwargs):
        cost = NetworkCostModel("hopper", total_ranks=nranks)
        return run_spmd(nranks, _program, ops, seed, cost_model=cost, runtime=name, **kwargs)

    assert _observe_spmd(run("sequential")) == _observe_spmd(run("threads"))

    # Rank r leaves out the last collective: nothing follows it, so the
    # stranded peers can never be released and every live rank ends up
    # blocked.
    skip = (seed % nranks, len(ops) - 1)
    start = time.perf_counter()
    with pytest.raises(SpmdFailure) as info:
        run("sequential", skip=skip)
    assert time.perf_counter() - start < 1.0
    assert isinstance(info.value.exc, TimeoutError)
    assert str(info.value.exc).startswith("deadlock: every live rank is blocked")

"""Property battery: random fault schedules never corrupt the traversal.

For random (graph, seed) pairs and randomly drawn fault plans — one
crash, transient timeouts/corruptions, a straggler — every registered
distributed algorithm must come back with a tree that passes the Graph
500 validator and distances equal to the fault-free oracle.  Recovery is
exercised end to end: the crash kills an attempt mid-traversal and the
driver restarts from the last complete checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import run_bfs
from repro.core.runner import ALGORITHMS as REGISTRY
from repro.faults import RankCrashError, random_fault_plan

from tests.conftest import launch_any, thread_cases, thread_params

#: Every fault-capable algorithm as ``(algorithm, threads)`` cases, derived
#: from the registry so a new plugin is covered the moment it lands.
FAULT_CASES = thread_cases(n for n, spec in REGISTRY.items() if "faults" in spec.capabilities)
#: Each fault-capable family carries the exhaustive crash-at-every-level
#: sweep at one thread (threads share the family's checkpoint path).
SWEEP_ALGORITHMS = tuple(
    sorted(name for name, spec in REGISTRY.items() if "faults" in spec.capabilities)
)
NPROCS = 4
SOURCE = 5


@pytest.fixture(scope="module")
def oracles(rmat_small):
    """Fault-free reference runs, one per algorithm.  ``launch_any``
    dispatches by registry kind, so the batched query families (2-D lane
    results) ride the same battery as the single-source BFS entries."""
    return {
        (algorithm, threads): launch_any(
            rmat_small, SOURCE, algorithm, nprocs=NPROCS, threads=threads, machine="hopper"
        )
        for algorithm, threads in FAULT_CASES
    }


@pytest.mark.parametrize("algorithm,threads", thread_params(FAULT_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_random_fault_schedule_recovers(rmat_small, oracles, algorithm, threads, seed):
    oracle = oracles[algorithm, threads]
    plan = random_fault_plan(
        seed, nranks=NPROCS, max_level=max(2, oracle.nlevels - 1)
    )
    result = launch_any(
        rmat_small,
        SOURCE,
        algorithm,
        nprocs=NPROCS,
        threads=threads,
        machine="hopper",
        faults=plan,
        checkpoint_every=1,
        validate=True,  # Graph 500 rules on the recovered tree
    )
    assert np.array_equal(result.levels, oracle.levels)
    assert np.array_equal(result.parents, oracle.parents)
    meta = result.meta["faults"]
    assert meta["attempts"] == 1 + len(meta["restores"])


@pytest.mark.parametrize("algorithm", SWEEP_ALGORITHMS)
def test_crash_at_every_level_recovers(rmat_small, oracles, algorithm):
    """The acceptance sweep: a permanent loss at any level is survivable."""
    oracle = oracles[algorithm, 1]
    for level in range(1, oracle.nlevels + 1):
        result = launch_any(
            rmat_small,
            SOURCE,
            algorithm,
            nprocs=NPROCS,
            machine="hopper",
            faults=f"crash:rank={level % NPROCS},level={level}",
            checkpoint_every=2,
        )
        assert np.array_equal(result.parents, oracle.parents), (
            f"{algorithm}: crash at level {level} diverged"
        )
        (restore,) = result.meta["faults"]["restores"]
        assert restore["crash_level"] == level
        resume = restore["resume_level"]
        assert resume is None or resume < level


@pytest.mark.parametrize("algorithm", SWEEP_ALGORITHMS)
def test_crash_without_checkpoint_aborts_cleanly(rmat_small, algorithm):
    """No checkpointing means a crash is an outage: typed abort, no hang."""
    with pytest.raises(RankCrashError, match="injected crash"):
        launch_any(
            rmat_small,
            SOURCE,
            algorithm,
            nprocs=NPROCS,
            machine="hopper",
            faults="crash:rank=2,level=2",
        )


def test_transients_only_plans_match_oracle_exactly(rmat_small, oracles):
    """Timeout/corrupt/delay schedules are absorbed without a restart."""
    for seed in range(4):
        plan = random_fault_plan(
            seed, nranks=NPROCS, max_level=4, n_transients=3, crash=False
        )
        result = run_bfs(
            rmat_small,
            SOURCE,
            "1d",
            nprocs=NPROCS,
            machine="hopper",
            faults=plan,
            validate=True,
        )
        assert np.array_equal(result.parents, oracles["1d", 1].parents)
        assert result.meta["faults"]["attempts"] == 1

"""Simulated MPI runtime: SPMD execution with virtual time.

This package is the distributed-memory *substrate* of the reproduction.
The paper's algorithms were written against MPI on Cray XT4/XE6 systems;
here they run unmodified (same collectives, same buffers, same bucketing)
against a pluggable SPMD engine (:mod:`repro.runtime`):

* every simulated rank runs the real algorithm (hosted by the
  deterministic ``sequential`` scheduler by default; the ``threads`` and
  forked ``processes`` backends are interchangeable with it),
* collectives (``Alltoallv``, ``Allgatherv``, ``Allreduce``, ...) move real
  NumPy buffers between ranks, so communication **volumes are exact**,
* a per-rank :class:`~repro.mpsim.clock.RankClock` tracks *virtual* time:
  local computation is charged through the paper's alpha-beta memory model
  and collective completion is computed by a pluggable
  :class:`~repro.runtime.CollectiveCostModel`, so waiting/idling is
  attributed to MPI time exactly the way the paper measures it (Fig. 4).

Entry point: :func:`repro.runtime.run_spmd`, re-exported here together
with the engine-side names the communicator's users import from this
package.
"""

from repro.mpsim.clock import RankClock
from repro.mpsim.communicator import Communicator
from repro.mpsim.grid import ProcessorGrid, closest_square
from repro.mpsim.stats import RankStats, SimStats
from repro.runtime import (
    CollectiveCostModel,
    SimAborted,
    SpmdFailure,
    SpmdResult,
    ZeroCostModel,
    run_spmd,
)

__all__ = [
    "RankClock",
    "Communicator",
    "CollectiveCostModel",
    "ZeroCostModel",
    "SimAborted",
    "SpmdFailure",
    "SpmdResult",
    "run_spmd",
    "ProcessorGrid",
    "closest_square",
    "RankStats",
    "SimStats",
]

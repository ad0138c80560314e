"""Parallel Boost Graph Library-style BFS baseline (Table 2's comparator).

PBGL "lifts" the sequential BOOST BFS to distributed memory behind generic
property maps and a process-group abstraction [20].  Relative to the
paper's tuned codes, the observable behaviours are:

* **per-edge messaging** through the generic interface — every traversed
  edge is serialized and dispatched individually (we charge a software
  per-message overhead on both sides, on top of the wire volume);
* **no send-side aggregation/deduplication**;
* **ghost/ownership resolution through associative property maps** —
  charged as several dependent irregular accesses per received message
  instead of one array probe;
* **distributed queue with per-vertex bookkeeping.**

The paper measures flat 2D at 10-16x PBGL's MTEPS on Carver at 128/256
cores (scale 22/24 R-MAT); the gap here arises from the same mechanisms.
Functionally the baseline is still a correct level-synchronous BFS — the
exchange is batched per level by the simulator, only its *cost* reflects
the per-edge software path.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.frontier import build_send_buffers, dedup_candidates
from repro.core.partition import Partition1D
from repro.graphs.csr import CSR
from repro.model.costmodel import Charger
from repro.mpsim.communicator import Communicator

#: Integer ops charged per message on the send side: serialization,
#: generic property-map dispatch, trigger lookup.  A few hundred ops per
#: edge is what profiling generic active-message layers shows; calibrated
#: so Table 2's PBGL column lands in the tens-of-MTEPS regime.
SEND_OVERHEAD_OPS = 300.0
#: Same for the receive side (deserialize + handler dispatch).
RECV_OVERHEAD_OPS = 300.0
#: Dependent irregular accesses per received message: property-map lookup,
#: ghost-cell check, queue push.
RECV_RANDOM_ACCESSES = 4.0


def bfs_pbgl_like(
    comm: Communicator,
    csr: CSR,
    source: int,
    machine=None,
) -> dict:
    """Rank body of the PBGL-style BFS (flat MPI only)."""
    part = Partition1D(csr.n, comm.size)
    lo, hi = part.range_of(comm.rank)
    nloc = hi - lo
    charger = Charger(comm, machine=machine, threads=1)

    levels = np.full(nloc, -1, dtype=np.int64)
    parents = np.full(nloc, -1, dtype=np.int64)
    if lo <= source < hi:
        levels[source - lo] = 0
        parents[source - lo] = source
        frontier = np.array([source], dtype=np.int64)
    else:
        frontier = np.empty(0, dtype=np.int64)

    level = 1
    while True:
        targets, sources = csr.gather(frontier)
        charger.random(frontier.size, ws_words=2 * max(nloc, 1))
        charger.stream(2.0 * targets.size, edges_scanned=float(targets.size))

        owners = part.owner_of(targets)
        send = build_send_buffers(targets, sources, owners, comm.size)
        # Per-edge software path on the send side.
        charger.intops(SEND_OVERHEAD_OPS * targets.size)
        charger.count(
            candidates=float(targets.size), unique_sends=float(targets.size)
        )

        recv, _counts = comm.alltoallv_concat(send)
        rv, rp = kernels.unpack_pairs(recv)
        # Per-message receive path: dispatch plus property-map probes.
        charger.intops(RECV_OVERHEAD_OPS * rv.size)
        charger.random(RECV_RANDOM_ACCESSES * rv.size, ws_words=max(nloc, 1))
        unvisited = levels[rv - lo] < 0
        rv, rp = dedup_candidates(rv[unvisited], rp[unvisited])
        levels[rv - lo] = level
        parents[rv - lo] = rp
        frontier = rv

        total_new = comm.allreduce(int(frontier.size))
        if total_new == 0:
            break
        level += 1

    return {"lo": lo, "hi": hi, "levels": levels, "parents": parents, "nlevels": level}

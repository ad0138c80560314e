"""Graph 500 reference-MPI-style 1D BFS (the "non-replicated reference
MPI code" of Section 6).

Same 1D level-synchronous structure as :class:`repro.core.bfs1d.TopDown1D`,
minus the tuning that makes the paper's code fast:

* **no send-side deduplication** — every traversed edge ships a
  (vertex, parent) pair, so all-to-all volume is ~``2m`` words instead of
  the deduplicated volume;
* **per-edge queue discipline** — the reference code pushes received
  vertices through a shared queue one at a time; we charge one irregular
  visited-bitmap access plus queue bookkeeping per received pair rather
  than one per deduplicated candidate;
* **a per-level visited-bitmap Allreduce** — the simple reference code
  synchronizes a full ``n/64``-word visited bitmap every level; that
  volume does not shrink with ``p``, so its cost *grows* as collective
  bandwidth degrades with scale;
* **no intra-node threading.**

On Franklin the paper measures its flat 1D code at 2.72x / 3.43x / 4.13x
the reference at 512 / 1024 / 2048 cores — a gap that *grows* with scale
because the bitmap synchronization and duplicate traffic meet the
shrinking all-to-all bandwidth.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.frontier import build_send_buffers, dedup_candidates
from repro.core.partition import Partition1D
from repro.graphs.csr import CSR
from repro.model.costmodel import Charger
from repro.mpsim.communicator import Communicator

#: Integer ops charged per received pair for the reference code's
#: scalar per-edge handling (branchy visited test, pointer chase, bounds
#: checks, enqueue).
QUEUE_OPS_PER_PAIR = 20.0


def bfs_graph500_ref(
    comm: Communicator,
    csr: CSR,
    source: int,
    machine=None,
) -> dict:
    """Rank body of the reference-style 1D BFS (flat MPI only)."""
    part = Partition1D(csr.n, comm.size)
    lo, hi = part.range_of(comm.rank)
    nloc = hi - lo
    charger = Charger(comm, machine=machine, threads=1)

    levels = np.full(nloc, -1, dtype=np.int64)
    parents = np.full(nloc, -1, dtype=np.int64)
    # Global visited bitmap, synchronized with a full Allreduce per level
    # (the reference code's scalability sin: n/64 words regardless of p).
    bitmap = np.zeros((csr.n + 63) // 64, dtype=np.uint64)
    if lo <= source < hi:
        levels[source - lo] = 0
        parents[source - lo] = source
        frontier = np.array([source], dtype=np.int64)
        bitmap[source // 64] |= np.uint64(1) << np.uint64(source % 64)
    else:
        frontier = np.empty(0, dtype=np.int64)

    level = 1
    while True:
        targets, sources = csr.gather(frontier)
        charger.random(frontier.size, ws_words=2 * max(nloc, 1))
        charger.stream(2.0 * targets.size, edges_scanned=float(targets.size))

        # No aggregation: every edge is shipped.
        owners = part.owner_of(targets)
        send = build_send_buffers(targets, sources, owners, comm.size)
        charger.intops(2.0 * targets.size)
        charger.stream(2.0 * targets.size)
        charger.count(
            candidates=float(targets.size), unique_sends=float(targets.size)
        )

        recv, _counts = comm.alltoallv_concat(send)
        rv, rp = kernels.unpack_pairs(recv)
        # Scalar queue discipline: one visited probe + bookkeeping per pair.
        charger.random(float(rv.size), ws_words=max(nloc, 1))
        charger.intops(QUEUE_OPS_PER_PAIR * rv.size)
        unvisited = levels[rv - lo] < 0
        rv, rp = dedup_candidates(rv[unvisited], rp[unvisited])
        levels[rv - lo] = level
        parents[rv - lo] = rp
        frontier = rv

        # Bitmap synchronization: OR-allreduce the full visited bitmap.
        np.bitwise_or.at(
            bitmap, rv // 64, np.uint64(1) << (rv % 64).astype(np.uint64)
        )
        bitmap = comm.allreduce(bitmap, op=np.bitwise_or)
        charger.stream(float(bitmap.size))

        total_new = comm.allreduce(int(frontier.size))
        if total_new == 0:
            break
        level += 1

    return {"lo": lo, "hi": hi, "levels": levels, "parents": parents, "nlevels": level}

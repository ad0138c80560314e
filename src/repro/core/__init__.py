"""The paper's core contribution: distributed-memory BFS algorithms.

* :func:`~repro.core.serial.bfs_serial` — Algorithm 1, the work-efficient
  level-synchronous baseline and correctness oracle;
* :class:`~repro.core.bfs1d.TopDown1D` — Algorithm 2: 1D vertex
  partitioning with owner-side visited checks and a per-level
  ``Alltoallv`` edge aggregation (flat MPI and hybrid via the thread
  model);
* :class:`~repro.core.bfs2d.SpMSV2D` — Algorithm 3: 2D sparse-matrix
  partitioning, expand (``Allgatherv`` over processor columns) / fold
  (``Alltoallv`` over processor rows) phases, DCSC blocks and the SPA/heap
  SpMSV polyalgorithm;
* :class:`~repro.core.bfs_dirop.DirOpt1D` — direction-optimizing 1D:
  ``TopDown1D`` plus a bottom-up sweep against an
  ``Allgatherv``-assembled frontier bitmap, preserving the (select, max)
  parents via early-exiting reverse edge scans;
* :class:`~repro.core.bfs2d_dirop.DirOpt2D` — direction-optimizing 2D
  (the follow-up paper, arXiv:1705.04590): ``SpMSV2D`` plus a bottom-up
  step with bitmap-compressed expand and completed exchanges along the
  processor grid, under the same alpha/beta switching policy
  (:class:`~repro.core.bfs_dirop.DirectionSwitch`);
* :class:`~repro.core.engine.TraversalEngine` — the shared
  level-synchronous skeleton: the four classes above are
  :class:`~repro.core.engine.AlgorithmStep` plugins running under it,
  one level interior per partition (:class:`~repro.core.engine.Step1D`
  is the owner-partitioned scaffold the 1D and :mod:`repro.query`
  plugins subclass), launched through the one rank body
  :func:`~repro.core.engine.traversal_body`;
* :func:`~repro.core.runner.prepare` — the driver over a typed
  :class:`~repro.core.runner.RunConfig`: partitions the graph once into
  a :class:`~repro.core.runner.Session` whose ``bfs(source)`` launches
  the SPMD simulation, reassembles and (optionally) validates the
  result, and reports TEPS plus modeled time breakdowns;
  :func:`~repro.core.runner.run` / :func:`~repro.core.runner.run_bfs`
  are the one-call wrappers.
"""

from repro.core.bfs1d import TopDown1D
from repro.core.bfs2d import SpMSV2D
from repro.core.bfs2d_dirop import DirOpt2D
from repro.core.bfs_dirop import DirOpt1D
from repro.core.engine import (
    AlgorithmStep,
    LevelOutcome,
    Step1D,
    TraversalEngine,
    traversal_body,
)
from repro.core.partition import Decomp2D, Partition1D
from repro.core.runner import (
    ALGORITHMS,
    AlgorithmSpec,
    BFSResult,
    RunConfig,
    Session,
    prepare,
    run,
    run_bfs,
)
from repro.core.serial import bfs_serial
from repro.core.validate import count_traversed_edges, validate_bfs

__all__ = [
    "TopDown1D",
    "DirOpt1D",
    "SpMSV2D",
    "DirOpt2D",
    "AlgorithmStep",
    "LevelOutcome",
    "Step1D",
    "TraversalEngine",
    "traversal_body",
    "Decomp2D",
    "Partition1D",
    "ALGORITHMS",
    "AlgorithmSpec",
    "BFSResult",
    "RunConfig",
    "Session",
    "prepare",
    "run",
    "run_bfs",
    "bfs_serial",
    "count_traversed_edges",
    "validate_bfs",
]

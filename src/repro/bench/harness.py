"""Shared benchmark machinery.

Every paper experiment combines the same ingredients:

* **source selection** following the Graph 500 methodology ("we only
  consider traversal times from vertices that appear in the large
  component, compute the average time using at least 16 randomly-chosen
  source vertices" — scaled down here);
* **functional simulation** of the real algorithms at laptop-scale rank
  counts (exact volumes, modeled virtual time), and
* **closed-form projection** to paper-scale core counts through the
  calibrated :class:`~repro.model.projection.RmatVolumeModel` +
  Section 5 analytic machine model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.runner import BFSResult, RunConfig, prepare
from repro.core.serial import bfs_serial
from repro.graphs.graph import Graph
from repro.model.analytic import AnalyticCosts, cost_1d, cost_2d, gteps
from repro.model.machine import MachineConfig, get_machine
from repro.model.projection import RmatVolumeModel

#: Sources averaged per benchmark configuration.  The paper uses >= 16;
#: functional simulation is deterministic modulo the source, so a handful
#: suffices for stable means at bench runtimes.
DEFAULT_SOURCES = 3


def pick_sources(graph: Graph, count: int = DEFAULT_SOURCES, seed: int = 1) -> list[int]:
    """Choose BFS sources inside the graph's largest component.

    Mirrors the Graph 500 pipeline: sample non-isolated vertices, then
    keep those whose traversal reaches the giant component (detected with
    one serial BFS).  Raises ``ValueError`` for ``count < 1``.
    """
    if count < 1:
        raise ValueError(f"source count must be at least 1, got {count}")
    candidates = graph.random_nonisolated_vertices(max(4 * count, 8), seed=seed)
    probe = int(candidates[0])
    levels, _ = bfs_serial(graph.csr, int(np.asarray(graph.to_internal(probe))))
    component = levels >= 0
    # If the probe landed outside the giant component, re-probe from the
    # highest-degree vertex (always inside it for our generators).
    if component.sum() < 0.05 * graph.n:
        hub = int(np.argmax(graph.degrees()))
        levels, _ = bfs_serial(graph.csr, hub)
        component = levels >= 0
    chosen: list[int] = []
    for source in candidates:
        internal = int(np.asarray(graph.to_internal(int(source))))
        if component[internal]:
            chosen.append(int(source))
        if len(chosen) == count:
            break
    if not chosen:
        raise ValueError(f"no sources found in the large component of {graph.name}")
    return chosen


@dataclass
class AveragedRun:
    """Mean metrics of several single-source traversals."""

    algorithm: str
    nranks: int
    threads: int
    time_total: float
    time_comm: float
    time_comp: float
    gteps: float
    mteps: float
    nlevels: float
    results: list[BFSResult]

    @property
    def comm_fraction(self) -> float:
        return self.time_comm / self.time_total if self.time_total else 0.0


def average_bfs(
    graph: Graph,
    algorithm: str,
    nprocs: int,
    machine: MachineConfig | str,
    sources: list[int] | None = None,
    tracer=None,
    **kwargs,
) -> AveragedRun:
    """Run one configuration over several sources and average the metrics.

    The graph is prepared once and searched per source.  ``tracer`` (an
    optional :class:`~repro.obs.Tracer`; likewise a ``metrics`` registry
    among ``kwargs``) observes the *first* source only: virtual time
    restarts at zero each traversal, so one tracer describes one run.
    """
    if sources is None:
        sources = pick_sources(graph)
    session = prepare(
        graph,
        RunConfig(
            algorithm=algorithm, nprocs=nprocs, machine=machine, tracer=tracer, **kwargs
        ),
    )
    results = [session.bfs(sources[0])]
    session = session.unobserved()
    results += [session.bfs(s) for s in sources[1:]]
    times = np.array([r.time_total for r in results])
    comms = np.array([r.time_comm for r in results])
    comps = np.array([r.time_comp for r in results])
    rates = np.array([r.gteps() for r in results])
    return AveragedRun(
        algorithm=algorithm,
        nranks=results[0].nranks,
        threads=results[0].threads,
        time_total=float(times.mean()),
        time_comm=float(comms.mean()),
        time_comp=float(comps.mean()),
        gteps=float(rates.mean()),
        mteps=float(rates.mean() * 1e3),
        nlevels=float(np.mean([r.nlevels for r in results])),
        results=results,
    )


#: Shared calibrated volume model used by all projections.
VOLUME_MODEL = RmatVolumeModel()

#: Paper threading defaults (Section 6).
PAPER_THREADS = {"franklin": 4, "hopper": 6, "carver": 4}


def paper_threads(machine: MachineConfig | str) -> int:
    resolved = get_machine(machine)
    assert resolved is not None
    for key, threads in PAPER_THREADS.items():
        if get_machine(key) is resolved:
            return threads
    return 4


def projected_costs(
    algorithm: str,
    scale: int,
    edgefactor: float,
    p_cores: int,
    machine: MachineConfig | str,
    kernel: str = "auto",
    threads: int = 1,
) -> AnalyticCosts:
    """Closed-form Section 5 cost of one paper-scale configuration.

    ``algorithm`` is ``"1d"`` or ``"2d"``, run with ``threads`` per rank
    (the paper's hybrids use :func:`paper_threads`).  ``kernel="auto"``
    applies the Figure 3 polyalgorithm crossover.
    """
    n = 1 << scale
    return _projected_costs(
        algorithm, n, int(edgefactor * n), p_cores, machine, kernel, threads
    )


def _projected_costs(
    algorithm: str,
    n: int,
    m: int,
    p_cores: int,
    machine: MachineConfig | str,
    kernel: str = "auto",
    threads: int = 1,
) -> AnalyticCosts:
    """:func:`projected_costs` of an ``n``-vertex, ``m``-edge instance
    (Figure 9 sizes by edges per core, so its ``n`` is no power of two)."""
    vol = VOLUME_MODEL.volumes(algorithm, n, m, p_cores, threads)
    if algorithm == "1d":
        return cost_1d(vol, p_cores, machine, threads=threads)
    if kernel == "auto":
        from repro.sparse.spmsv import choose_spmsv_kernel

        kernel = choose_spmsv_kernel(p_cores)
    return cost_2d(vol, p_cores, machine, threads=threads, spmsv_kernel=kernel)


def projected_gteps(
    algorithm: str,
    scale: int,
    edgefactor: float,
    p_cores: int,
    machine: MachineConfig | str,
    kernel: str = "auto",
    threads: int = 1,
) -> float:
    """Projected GTEPS of one paper-scale configuration (TEPS counts the
    directed input edge count ``m = edgefactor * n``, Section 6)."""
    costs = projected_costs(algorithm, scale, edgefactor, p_cores, machine, kernel, threads)
    return gteps((1 << scale) * edgefactor, costs.total)


def closest_square_cores(p: int) -> int:
    """The paper runs 2D codes on the closest square processor count."""
    return math.isqrt(p) ** 2

"""Graph 500 benchmark driver (the benchmark the paper helped define).

Implements the official two-kernel flow the paper's experiments follow:

* **Kernel 1** — construct the graph from the generated edge list
  (symmetrize, dedup, random vertex shuffle);
* **Kernel 2** — run BFS from ``nbfs`` random search keys sampled among
  non-isolated vertices, validating every traversal against the
  specification rules;
* **Reporting** — the benchmark's summary statistics: quartiles of the
  per-search time and TEPS, and the harmonic-mean TEPS that the Graph 500
  list ranks by.

BFS times come from the machine model (this is a simulation — see
DESIGN.md); kernel-1 construction time is real wall-clock of the Python
pipeline and is reported separately.

Example::

    from repro.graph500 import run_graph500

    result = run_graph500(scale=15, nprocs=16, algorithm="2d",
                          machine="hopper", nbfs=8, seed=1)
    print(result.report())
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.runner import BFSResult, RunConfig, prepare
from repro.graphs.graph import Graph
from repro.graphs.rmat import rmat_edges
from repro.model.machine import get_machine
from repro.obs.tracer import resolve_tracer

#: The official benchmark runs 64 search keys; simulations may downscale.
DEFAULT_NBFS = 64


def _quartiles(values: np.ndarray) -> dict[str, float]:
    q = np.percentile(values, [0, 25, 50, 75, 100])
    return {
        "min": float(q[0]),
        "firstquartile": float(q[1]),
        "median": float(q[2]),
        "thirdquartile": float(q[3]),
        "max": float(q[4]),
        "mean": float(values.mean()),
        "stddev": float(values.std(ddof=1)) if values.size > 1 else 0.0,
    }


@dataclass
class Graph500Result:
    """Summary of one Graph 500 run (official output fields)."""

    scale: int
    edgefactor: float
    nbfs: int
    algorithm: str
    machine: str
    nranks: int
    threads: int
    construction_seconds: float
    bfs_times: np.ndarray  # modeled seconds per search
    teps: np.ndarray  # per-search TEPS
    searches: list[BFSResult] = field(default_factory=list)

    @property
    def harmonic_mean_teps(self) -> float:
        """The statistic the Graph 500 list ranks by."""
        return float(self.teps.size / np.sum(1.0 / self.teps))

    @property
    def time_stats(self) -> dict[str, float]:
        return _quartiles(self.bfs_times)

    @property
    def teps_stats(self) -> dict[str, float]:
        return _quartiles(self.teps)

    def report(self) -> str:
        """Render the benchmark's canonical key-value output."""
        lines = [
            f"SCALE:                          {self.scale}",
            f"edgefactor:                     {self.edgefactor:g}",
            f"NBFS:                           {self.nbfs}",
            f"algorithm:                      {self.algorithm}",
            f"machine_model:                  {self.machine}",
            f"num_mpi_processes (simulated):  {self.nranks}",
            f"threads_per_process (modeled):  {self.threads}",
            f"construction_time:              {self.construction_seconds:.6g}",
        ]
        for name, stats in (("time", self.time_stats), ("TEPS", self.teps_stats)):
            for key in (
                "min",
                "firstquartile",
                "median",
                "thirdquartile",
                "max",
                "mean",
                "stddev",
            ):
                lines.append(f"{key}_{name}:".ljust(32) + f"{stats[key]:.6g}")
        lines.append(
            "harmonic_mean_TEPS:".ljust(32) + f"{self.harmonic_mean_teps:.6g}"
        )
        return "\n".join(lines)


def sample_search_keys(
    graph: Graph, nbfs: int, seed: int | None = 0
) -> np.ndarray:
    """Sample distinct search keys among non-isolated vertices (spec 2.4)."""
    return graph.random_nonisolated_vertices(nbfs, seed=seed)


def run_graph500(
    scale: int,
    edgefactor: float = 16,
    nprocs: int = 16,
    algorithm: str = "2d",
    machine: str = "hopper",
    nbfs: int = 8,
    seed: int | None = 0,
    validate: bool = True,
    tracer=None,
    metrics=None,
    **bfs_kwargs,
) -> Graph500Result:
    """Run the full Graph 500 flow at the given (down)scale.

    Parameters mirror the official driver: ``scale``/``edgefactor`` define
    the R-MAT instance, ``nbfs`` the number of search keys (official: 64).
    ``algorithm``/``nprocs``/``machine`` select the paper implementation
    and the modeled system.  Every traversal is validated against the
    specification rules unless ``validate=False``.  ``tracer`` is an
    optional :class:`~repro.obs.Tracer` recording phase spans for the
    *first* search only — virtual time restarts at zero each traversal,
    so one tracer describes one run — plus kernel 1's ``generate`` and
    ``construct`` host spans.  ``metrics`` is an optional
    :class:`~repro.obs.MetricsRegistry`, likewise metering the first
    search only.
    """
    if nbfs < 1:
        raise ValueError(f"nbfs must be >= 1, got {nbfs}")
    if get_machine(machine) is None:
        raise ValueError(
            "run_graph500 reports TEPS and therefore needs a machine model "
            "(e.g. machine='hopper'); untimed runs have no traversal time"
        )
    # A bad config fails here, before kernel 1 spends seconds on the graph.
    config = RunConfig(
        algorithm=algorithm,
        nprocs=nprocs,
        machine=machine,
        validate=validate,
        tracer=tracer,
        metrics=metrics,
        **bfs_kwargs,
    )
    config.resolve()
    # Kernel 1: generation is *not* timed (spec), construction is.
    host = resolve_tracer(tracer).host
    with host.span("generate"):
        src, dst = rmat_edges(scale, edgefactor, seed=seed)
    t0 = time.perf_counter()
    with host.span("construct"):
        graph = Graph.from_edges(
            1 << scale,
            src,
            dst,
            symmetrize=True,
            shuffle=True,
            seed=seed,
            name=f"graph500-s{scale}-ef{edgefactor:g}",
        )
    construction = time.perf_counter() - t0

    keys = sample_search_keys(graph, nbfs, seed=seed)
    # The benchmark's shape: distribute the graph once, search it nbfs times.
    session = prepare(graph, config)
    searches: list[BFSResult] = []
    times, rates = [], []
    for i, key in enumerate(keys):
        result = session.bfs(int(key))
        if i == 0:
            session = session.unobserved()
        searches.append(result)
        times.append(result.time_total)
        rates.append(result.m_traversed / result.time_total)

    resolved = get_machine(machine)
    return Graph500Result(
        scale=scale,
        edgefactor=edgefactor,
        nbfs=len(keys),
        algorithm=algorithm,
        machine=resolved.name if resolved is not None else "untimed",
        nranks=searches[0].nranks,
        threads=searches[0].threads,
        construction_seconds=construction,
        bfs_times=np.array(times),
        teps=np.array(rates),
        searches=searches,
    )

"""repro — reproduction of Buluc & Madduri, "Parallel Breadth-First Search
on Distributed Memory Systems" (SC 2011, arXiv:1104.4518).

Quickstart::

    import repro

    graph = repro.rmat_graph(scale=16, edgefactor=16, seed=1)
    source = graph.random_nonisolated_vertices(1, seed=2)[0]
    result = repro.run_bfs(
        graph, source, algorithm="2d", nprocs=16, machine="franklin"
    )
    print(result.nlevels, result.gteps())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

__version__ = "1.0.0"

from repro.core import (
    ALGORITHMS,
    AlgorithmSpec,
    BFSResult,
    RunConfig,
    Session,
    TraversalEngine,
    bfs_serial,
    count_traversed_edges,
    prepare,
    run,
    run_bfs,
    validate_bfs,
)
from repro.graph500 import Graph500Result, run_graph500
from repro.graphs import (
    Graph,
    erdos_renyi_edges,
    rmat_edges,
    rmat_graph,
    uniform_degree_edges,
    webcrawl_graph,
)
from repro.model import (
    CARVER,
    FRANKLIN,
    HOPPER,
    MachineConfig,
    RmatVolumeModel,
    cost_1d,
    cost_2d,
    gteps,
)
from repro.mpsim import ProcessorGrid, run_spmd
from repro.obs import (
    Tracer,
    critical_path,
    run_report,
    write_chrome_trace,
    write_run_report,
)

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "BFSResult",
    "RunConfig",
    "Session",
    "TraversalEngine",
    "bfs_serial",
    "count_traversed_edges",
    "prepare",
    "run",
    "run_bfs",
    "validate_bfs",
    "Graph",
    "erdos_renyi_edges",
    "rmat_edges",
    "rmat_graph",
    "uniform_degree_edges",
    "webcrawl_graph",
    "CARVER",
    "FRANKLIN",
    "HOPPER",
    "MachineConfig",
    "RmatVolumeModel",
    "cost_1d",
    "cost_2d",
    "gteps",
    "Graph500Result",
    "run_graph500",
    "ProcessorGrid",
    "run_spmd",
    "Tracer",
    "critical_path",
    "run_report",
    "write_chrome_trace",
    "write_run_report",
    "__version__",
]

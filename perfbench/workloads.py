"""Workload and metric definitions of perfbench.

Pure data: importable without ``repro`` or numpy, so the orchestrator
(``run.py``), the comparison tool (``compare.py``) and the tests share
one table.  ``BENCHMARK.json`` at the repository root restates the
names, units, directions and bounds below for the driver;
``test_perfbench.py`` fails when the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Every workload prices its searches on the same modeled machine.
MACHINE = "hopper"

#: Graph 500 edge factor of the R-MAT inputs.
EDGEFACTOR = 16

#: Library switches removed from the worker's environment, so that the
#: library *defaults* are what is measured.
SCRUBBED_ENV = ("REPRO_KERNELS", "REPRO_RUNTIME", "REPRO_SPMD_TIMEOUT")

#: Seconds one run measures unless ``--seconds`` says otherwise; equals
#: ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark input set and the configuration it is searched with.

    ``keys`` distinct searches (batches of ``batch`` sources) are drawn
    from the seed; the modeled metrics are computed over exactly these,
    so they repeat bit for bit.  The timed loop issues them in order,
    round after round, until both ``min_samples`` searches (at least two
    rounds) and ``--seconds`` seconds are done.
    """

    name: str
    why: str
    graph: str  # "rmat" or "crawl"
    scale: int  # n = 2**scale vertices
    algorithm: str
    nprocs: int
    codec: str = "raw"
    sieve: bool = False
    batch: int = 1  # sources per search: 1 -> run(), 64 -> run_query() lanes
    keys: int = 16
    min_samples: int = 16
    warmups: int = 2
    n_hosts: int = 0  # crawl only

    @property
    def family(self) -> str:
        """Which step plugin runs: ``2d``, ``msbfs`` or ``1d``."""
        if self.algorithm.startswith("2d"):
            return "2d"
        return "msbfs" if self.batch > 1 else "1d"

    def quick(self) -> "Workload":
        """The self-test size: scale 10, two searches."""
        return replace(
            self,
            scale=10,
            keys=2,
            min_samples=2,
            warmups=1,
            n_hosts=min(self.n_hosts, 12),
        )


# Key counts are what the driver's time cap leaves room for on a 2-CPU
# box (92 runs in 3420 s): see README.md, "Noise discipline".
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rmat16_2d",
            why="Headline 2D algorithm at Graph 500 scale 16 on a 4x4 grid: "
            "partitioning, DCSC/SpMSV and sub-communicator collectives dominate.",
            graph="rmat",
            scale=16,
            algorithm="2d",
            nprocs=16,
            keys=8,
            min_samples=16,
            warmups=2,
        ),
        Workload(
            name="rmat18_1d",
            why="Data-proportional regime, scale 18 on 16 ranks: bucketing, dedup, "
            "packing and large Alltoallv buffers dominate; partitioning is free.",
            graph="rmat",
            scale=18,
            algorithm="1d",
            nprocs=16,
            keys=6,
            min_samples=12,
            warmups=2,
        ),
        Workload(
            name="crawl_1d_auto",
            why="140 levels of tiny frontiers on 8 ranks with codec auto and sieve: "
            "per-level fixed cost and codec probing are nearly all of it.",
            graph="crawl",
            scale=16,
            n_hosts=138,
            algorithm="1d",
            nprocs=8,
            codec="auto",
            sieve=True,
            keys=3,
            min_samples=6,
            warmups=0,
        ),
        Workload(
            name="rmat16_msbfs64",
            why="The query layer: 64-lane multi-source BFS batches at scale 16, "
            "lane pruning, uint64-OR scatter and triple packing.",
            graph="rmat",
            scale=16,
            algorithm="msbfs-1d",
            nprocs=16,
            batch=64,
            keys=3,
            min_samples=6,
            warmups=0,
        ),
    )
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # share of the base median it may worsen by
    #: Modeled-clock metrics repeat bit for bit for one seed; compare.py
    #: holds two runs of one seed to rel. 1e-12 instead of ``bound``.
    exact: bool
    statistic: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, False,
        "host seconds of generate + Graph.from_edges + key sampling; "
        "3 to 9 set-ups on fresh objects per run (until 10 s are spent), median",
    ),
    EndToEnd(
        "search_wall_s", "s", "lower", 0.25, False,
        "host seconds of one run()/run_query() call; the fastest of all timed "
        "searches of the run, gc.collect() before each, outside the timed region",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.25, False,
        "ru_maxrss of the workload's subprocess, read after the last timed "
        "search and before the correctness checks",
    ),
    EndToEnd(
        "modeled_gteps", "GTEPS", "higher", 0.20, True,
        "harmonic mean over the distinct searches of m_traversed / time_total "
        "on the simulated clock (the Graph 500 statistic)",
    ),
    EndToEnd(
        "modeled_comm_s", "s", "lower", 0.25, True,
        "mean over the distinct searches of result.time_comm "
        "(the slowest rank's simulated MPI seconds)",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: Which workloads measure it: "all", or the one family/feature the
    #: layer serves.  The driver's ``--trace 1`` result carries the "all"
    #: rows only (it needs every listed metric on every workload); the
    #: printed table and results.json carry the rest, absent where the
    #: layer is not on the workload's path.
    scope: str = "all"
    #: A count or a simulated-clock number: repeats bit for bit for one
    #: seed.  Everything else is host time, or a ratio of host times.
    exact: bool = False


_BACKENDS = ("threads", "sequential", "processes")

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("graphs.generate_s", "s", "lower"),
    PerLayer("graphs.construct_s", "s", "lower"),
    PerLayer("graphs.edges", "count", "higher", exact=True),
    PerLayer("partition.build_2d_s", "s", "lower", "2d"),
    PerLayer("partition.share", "ratio", "lower", "2d"),
    PerLayer("partition.block_nnz_imbalance", "ratio", "lower", "2d", exact=True),
    PerLayer("runner.search_s", "s", "lower"),
    PerLayer("runner.search_tail_s", "s", "lower"),
    PerLayer("runner.traverse_s", "s", "lower"),
    PerLayer("runner.fixed_s", "s", "lower"),
    PerLayer("runner.level_s", "s", "lower"),
    PerLayer("runner.host_mteps", "MTEPS", "higher"),
    PerLayer("runner.slowdown_vs_serial", "ratio", "lower"),
    PerLayer("runner.trace_overhead_ratio", "ratio", "lower"),
    PerLayer("serial.search_s", "s", "lower"),
    PerLayer("validate.wall_s", "s", "lower"),
    PerLayer("kernels.replay_items", "count", "lower", exact=True),
    PerLayer("kernels.bucket_by_owner_s", "s", "lower"),
    PerLayer("kernels.dedup_max_s", "s", "lower"),
    PerLayer("kernels.pack_pairs_s", "s", "lower"),
    PerLayer("kernels.scatter_reduce_s", "s", "lower"),
    PerLayer("kernels.lane_prune_s", "s", "lower", "msbfs"),
    PerLayer("sparse.dcsc_from_coo_s", "s", "lower", "2d"),
    PerLayer("sparse.spmsv_spa_s", "s", "lower", "2d"),
    PerLayer("sparse.spmsv_heap_s", "s", "lower", "2d"),
    PerLayer("sparse.spmsv_candidates", "count", "lower", "2d", exact=True),
    PerLayer("comm.encode_wide_s", "s", "lower"),
    PerLayer("comm.decode_wide_s", "s", "lower"),
    PerLayer("comm.encode_narrow_s", "s", "lower"),
    PerLayer("comm.decode_narrow_s", "s", "lower"),
    PerLayer("comm.wire_words", "words", "lower", exact=True),
    PerLayer("comm.payload_words", "words", "lower", exact=True),
    PerLayer("comm.compression_ratio", "ratio", "higher", exact=True),
    PerLayer("comm.sieve_dropped", "count", "higher", "sieve", exact=True),
    *(PerLayer(f"runtime.spawn_s.{b}", "s", "lower") for b in _BACKENDS),
    *(PerLayer(f"runtime.collective_us.{b}", "us", "lower") for b in _BACKENDS),
    PerLayer("mpsim.alltoallv_large_s", "s", "lower"),
    PerLayer("mpsim.collectives_per_search", "count", "lower", exact=True),
    PerLayer("mpsim.levels", "count", "lower", exact=True),
    PerLayer("query.queries_per_s_host", "1/s", "higher", "msbfs"),
    PerLayer("query.modeled_queries_per_s", "1/s", "higher", "msbfs", exact=True),
    PerLayer("obs.attached_overhead_ratio", "ratio", "lower"),
    PerLayer("obs.spans_per_search", "count", "lower", exact=True),
    PerLayer("model.time_total_s", "s", "lower", exact=True),
    PerLayer("model.comm_fraction", "ratio", "lower", exact=True),
)


def applies(metric: PerLayer, spec: Workload) -> bool:
    """Whether ``metric``'s layer is on ``spec``'s path."""
    if metric.scope == "all":
        return True
    if metric.scope == "sieve":
        return spec.sieve
    return metric.scope == spec.family

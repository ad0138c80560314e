"""High-level BFS driver: prepare once, search many times.

The paper (and Graph 500) distributes the graph once and then times BFS
from many search keys; the driver is split along the same line.
:func:`prepare` does everything that does not depend on the source —
validates the :class:`RunConfig`, has the algorithm's
:class:`AlgorithmSpec` build the family's launch inputs (the 2D
blocks, for one), sizes the machine cost model — and returns a
:class:`Session`.  :meth:`Session.bfs` / :meth:`Session.query` launch the
SPMD simulation of the :class:`~repro.core.engine.TraversalEngine`,
stitch the per-rank outputs into full arrays in the caller's vertex
labels, validate, and wrap them in a :class:`BFSResult` (or
:class:`~repro.query.QueryResult`) with TEPS accounting and the modeled
time breakdown.  :func:`run`, :func:`run_bfs` and
:func:`repro.query.run_query` are the one-shot wrappers:
``prepare(graph, config).bfs(source)``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.baselines.graph500_ref import bfs_graph500_ref
from repro.baselines.pbgl_like import bfs_pbgl_like
from repro.comm import CODECS
from repro.core.bfs1d import TopDown1D
from repro.core.bfs2d import SpMSV2D, build_2d_blocks
from repro.core.bfs2d_dirop import DirOpt2D
from repro.core.bfs_dirop import DirOpt1D
from repro.core.engine import traversal_body
from repro.core.partition import Decomp2D
from repro.core.serial import bfs_serial
from repro.core.validate import count_closed_lane_edges, lane_words, validate_bfs
from repro.graphs.graph import Graph
from repro.model.costmodel import DIROP_ALPHA, DIROP_BETA, NetworkCostModel
from repro.model.machine import get_machine
from repro.mpsim.stats import SimStats
from repro.obs.analysis import wall_table
from repro.obs.tracer import resolve_tracer
from repro.query import driver as query_driver
from repro.query.msbfs import MSBFS1D
from repro.runtime import BACKENDS as RUNTIME_BACKENDS
from repro.runtime import run_spmd


@dataclass(frozen=True)
class Plan:
    """The source-independent inputs of a family's launches.

    Built once per :class:`Session` by the family's
    :attr:`AlgorithmSpec.prepare`; every search then only appends its
    seed (the internal source id, or a lane batch) to ``args``.
    """

    nranks: int
    #: Step-constructor (or baseline rank-body) positionals preceding the seed.
    args: tuple = ()
    #: Its keyword options.
    kwargs: dict = field(default_factory=dict)
    #: Rank body of a family without a step plugin (the baselines).
    body: Callable | None = None
    #: Options the family resolved, reported in every result's ``meta``.
    meta: dict = field(default_factory=dict)

    def extended(self, **kwargs) -> "Plan":
        return replace(self, kwargs={**self.kwargs, **kwargs})


def _plan_1d(graph: Graph, config: "RunConfig") -> Plan:
    options = dict(dedup_sends=config.dedup_sends, codec=config.codec, sieve=config.sieve)
    return Plan(config.nprocs, (graph.csr,), options)


def _plan_1d_dirop(graph: Graph, config: "RunConfig") -> Plan:
    return _plan_1d(graph, config).extended(
        alpha=config.dirop_alpha, beta=config.dirop_beta, symmetric=not graph.directed
    )


def _plan_2d(graph: Graph, config: "RunConfig") -> Plan:
    if config.grid_shape is not None:
        pr, pc = config.grid_shape
    else:
        pr = pc = math.isqrt(config.nprocs)
    if pr < 1 or pc < 1:
        raise ValueError(f"grid must be positive, got {pr}x{pc}")
    decomp = Decomp2D(graph.n, pr, pc, diagonal_vectors=(config.vector_dist == "1d"))
    blocks = build_2d_blocks(graph.csr, decomp, threads=config.threads)
    options = dict(
        kernel=config.kernel,
        modeled_cores=config.modeled_cores,
        codec=config.codec,
        sieve=config.sieve,
    )
    return Plan(pr * pc, (blocks, decomp), options)


def _plan_2d_dirop(graph: Graph, config: "RunConfig") -> Plan:
    return _plan_2d(graph, config).extended(
        alpha=config.dirop_alpha, beta=config.dirop_beta, degrees=graph.csr.degrees()
    )


def _plan_baseline(body: Callable, graph: Graph, config: "RunConfig") -> Plan:
    return Plan(config.nprocs, (graph.csr,), body=body)


def _plan_msbfs(graph: Graph, config: "RunConfig") -> Plan:
    options = dict(dedup_sends=config.dedup_sends, codec=config.codec)
    return Plan(config.nprocs, (graph.csr,), options)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative registry entry: how one algorithm name runs.

    ``step`` is the :class:`~repro.core.engine.AlgorithmStep` plugin
    class for engine-driven families (``None`` for the serial reference
    and the baselines, which bring their own rank bodies).
    ``capabilities`` names the cross-cutting concerns the family
    supports; :meth:`RunConfig.resolve` rejects options the registry
    does not declare:

    * ``"wire"`` — exchanges route through :mod:`repro.comm`
      (``codec``/``sieve`` apply);
    * ``"tracer"`` — instrumented with :mod:`repro.obs` phase spans;
    * ``"trace-profile"`` — per-level profile under
      ``result.meta["level_profile"]`` when ``trace=True``;
    * ``"threads"`` — models ``threads > 1`` intra-node threads per rank
      (the paper's hybrid: the cost model's thread divisor, the 1D thread
      merge, the 2D row-split blocks).

    ``kind`` names the result family: ``"bfs"`` entries answer
    :meth:`Session.bfs` (:func:`run` / :func:`run_bfs`); the one
    ``"msbfs"`` entry answers :meth:`Session.query`
    (:func:`repro.query.run_query`), whose source batch, oracle and lane
    columns live in :mod:`repro.query.driver`.

    ``prepare`` maps ``(graph, config)`` to the family's
    :class:`Plan` — everything its launches share across sources.
    ``None`` for the serial reference, which launches nothing.
    """

    step: type | None = None
    capabilities: frozenset = frozenset()
    kind: str = "bfs"
    prepare: Callable | None = None


#: Everything the engine provides to its step plugins.
ENGINE_CAPABILITIES = frozenset({"wire", "tracer", "trace-profile"})

#: The engine's capabilities plus intra-node threading.
THREADED_CAPABILITIES = ENGINE_CAPABILITIES | {"threads"}

#: Algorithm registry: name -> spec.  Adding an algorithm is one entry
#: here — step plugin class, capabilities, and the ``prepare`` mapping
#: ``RunConfig`` fields onto the step's constructor arguments
#: (docs/architecture.md has the how-to); the driver below contains no
#: per-name or per-family branches.
ALGORITHMS: dict[str, AlgorithmSpec] = {
    "serial": AlgorithmSpec(),
    "1d": AlgorithmSpec(TopDown1D, THREADED_CAPABILITIES, prepare=_plan_1d),
    "1d-dirop": AlgorithmSpec(DirOpt1D, THREADED_CAPABILITIES, prepare=_plan_1d_dirop),
    "2d": AlgorithmSpec(SpMSV2D, THREADED_CAPABILITIES, prepare=_plan_2d),
    "2d-dirop": AlgorithmSpec(DirOpt2D, THREADED_CAPABILITIES, prepare=_plan_2d_dirop),
    "pbgl": AlgorithmSpec(prepare=partial(_plan_baseline, bfs_pbgl_like)),
    "graph500-ref": AlgorithmSpec(prepare=partial(_plan_baseline, bfs_graph500_ref)),
    # The batched query (Session.query).
    "msbfs-1d": AlgorithmSpec(MSBFS1D, ENGINE_CAPABILITIES, "msbfs", _plan_msbfs),
}


@dataclass
class BFSResult:
    """Output of one BFS traversal plus its simulation record."""

    levels: np.ndarray
    parents: np.ndarray
    source: int
    algorithm: str
    nranks: int
    threads: int
    nlevels: int
    m_traversed: int
    stats: SimStats | None = None
    meta: dict = field(default_factory=dict)

    @property
    def modeled_cores(self) -> int:
        return self.nranks * self.threads

    @property
    def time_total(self) -> float:
        """Modeled traversal seconds (0 when untimed)."""
        return self.stats.makespan if self.stats is not None else 0.0

    @property
    def time_comm(self) -> float:
        """Modeled seconds the slowest rank spent in MPI (incl. waits)."""
        return self.stats.max_mpi_time if self.stats is not None else 0.0

    @property
    def time_comp(self) -> float:
        return self.stats.max_compute_time if self.stats is not None else 0.0

    def gteps(self) -> float:
        """Traversed-edges-per-second rate in billions."""
        if self.time_total <= 0:
            raise ValueError("untimed run: pass a machine to run_bfs for TEPS")
        return self.m_traversed / self.time_total / 1e9

    def mteps(self) -> float:
        return self.gteps() * 1e3


def require_vertex_id(value) -> None:
    """Refuse anything but a Python or numpy integer as a vertex id: a
    float would truncate and a bool pass for 0 or 1 without a word."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"vertex ids must be integers, got {value!r}")


def _require_count(name: str, value) -> int:
    """Refuse a bool, a non-integer or a value below 1 as a rank or
    thread count, by the rule of :func:`require_vertex_id`; return it as
    a Python ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """One run's full configuration, validated in one place.

    :func:`run_bfs` / :func:`repro.query.run_query` take these fields as
    keywords.  Construction checks the algorithm, runtime and codec
    names and the rank and thread counts; :meth:`resolve` checks every
    cross-field constraint (machine, capability gating) and returns the
    resolved machine.

    Parameters
    ----------
    algorithm:
        A key of :data:`ALGORITHMS`.
    nprocs:
        Simulated MPI rank count.  2D variants use the closest square
        grid not exceeding ``nprocs`` (the paper's convention).
    threads:
        Intra-node threads modeled per rank.  Above 1 it runs the paper's
        hybrid (Sections 4.1-4.2; it used 4 on Franklin, 6 on Hopper) and
        is accepted only by the entries with the ``"threads"``
        capability.
    machine:
        ``None`` (functional, untimed), a machine short name
        (``"franklin"``/``"hopper"``/``"carver"``), or a
        :class:`~repro.model.machine.MachineConfig`.
    kernel:
        SpMSV kernel for 2D: ``"auto"`` (polyalgorithm), ``"spa"``,
        ``"heap"``.
    dedup_sends:
        Send-side deduplication (ablation switch): the 1D families' dedup
        and, for ``msbfs-1d``, the lane-dominance prune together with its
        lane sieve (each rank races only the lanes it has not yet shipped
        to a target — exact, lanes stay bit-identical).
    codec:
        Wire format for the exchange buffers: a name in
        :data:`~repro.comm.CODECS` (``"raw"``, ``"auto"``) or a
        :class:`~repro.comm.Codec` instance such as
        :class:`~repro.comm.DeltaVarintCodec`; the alpha-beta model prices
        the *encoded* buffers, so compression is modeled speedup.
        Distributed 1d/2d families only.
    sieve:
        Sender-side filter dropping candidates whose target this rank
        already shipped (or observed discovered) at an earlier level —
        exact, parents stay bit-identical.  Distributed 1d/2d families
        only; ``msbfs-1d`` sieves per lane inside ``dedup_sends``.
    vector_dist:
        2D vector distribution: ``"2d"`` (default) or ``"1d"``
        (diagonal-only; the Figure 4 ablation).
    modeled_cores:
        Overrides the core count fed to the polyalgorithm predicate.
    grid_shape:
        Explicit ``(pr, pc)`` processor grid for the 2D variants,
        overriding the closest-square default — the paper's general
        rectangular formulation (square grids keep the cheaper pairwise
        vector transpose).
    dirop_alpha / dirop_beta:
        Direction-optimizing switching thresholds (the ``1d-dirop`` and
        ``2d-dirop`` families): switch to bottom-up when the frontier's incident
        edges exceed ``1/alpha`` of the unexplored edges, back to
        top-down when the frontier shrinks below ``n / beta``.  Default
        to :data:`~repro.model.costmodel.DIROP_ALPHA` /
        :data:`~repro.model.costmodel.DIROP_BETA`.
    validate:
        Check the output by the Graph 500 validation rules, which imply
        exact levels without a second search.
    trace:
        Record an aggregated per-level profile (frontier size, candidate
        count, words sent, vertices discovered, summed over ranks) in
        ``result.meta["level_profile"]``.  Supported by the 1d/2d
        families; serial runs and baselines leave the profile ``None``.
    runtime:
        Execution backend for the SPMD launch: ``"sequential"``
        (deterministic round-robin scheduler, the default), ``"threads"``
        (preemptive rank threads) or ``"processes"`` (forked workers,
        real parallelism).  ``None`` means
        :data:`repro.runtime.DEFAULT_RUNTIME`.  All modeled outputs are
        bit-identical across backends.
    spmd_timeout:
        Seconds a rank may wait at a rendezvous before the run aborts
        as deadlocked.  ``None`` defers to ``REPRO_SPMD_TIMEOUT`` or
        the 600 s default; the sequential runtime detects deadlocks
        structurally and ignores it.
    tracer / metrics:
        Optional :class:`~repro.obs.Tracer` recording nested per-rank,
        per-level phase spans in virtual time, and optional
        :class:`~repro.obs.MetricsRegistry` recording typed labeled
        counters/gauges/histograms from the engine and comm channel
        (1d/2d families only).  Both are passive — stats stay
        bit-identical — and are stored in ``result.meta["tracer"]`` /
        ``result.meta["metrics"]`` so :func:`repro.obs.run_report` and
        :func:`repro.obs.write_chrome_trace` can find them.
    sources:
        The batched query's source batch (``msbfs-1d`` only): up to 64
        integer vertex ids in the caller's labels.
    """

    algorithm: str = "1d"
    nprocs: int = 4
    threads: int = 1
    machine: object = None
    kernel: str = "auto"
    dedup_sends: bool = True
    codec: object = "raw"
    sieve: object = False
    vector_dist: str = "2d"
    modeled_cores: int | None = None
    grid_shape: tuple[int, int] | None = None
    dirop_alpha: float | None = None
    dirop_beta: float | None = None
    validate: bool = False
    trace: bool = False
    runtime: str | None = None
    spmd_timeout: float | None = None
    tracer: object = None
    metrics: object = None
    sources: tuple = ()

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
        for name in ("nprocs", "threads"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name)))
        if self.runtime is not None and self.runtime not in RUNTIME_BACKENDS:
            raise ValueError(
                f"unknown execution runtime {self.runtime!r}; "
                f"known: {sorted(RUNTIME_BACKENDS)}"
            )
        if isinstance(self.codec, str) and self.codec not in CODECS:
            raise ValueError(f"unknown codec {self.codec!r}; known: {sorted(CODECS)}")
        if self.spmd_timeout is not None and self.spmd_timeout <= 0:
            raise ValueError(
                f"spmd_timeout must be > 0, got {self.spmd_timeout}"
            )

    @property
    def spec(self) -> AlgorithmSpec:
        return ALGORITHMS[self.algorithm]

    def resolve(self):
        """Validate cross-field constraints; return the resolved machine."""
        spec = self.spec
        machine = get_machine(self.machine)
        if self.threads > 1 and "threads" not in spec.capabilities:
            raise ValueError(
                f"{self.algorithm} does not model intra-node threads; threads > 1 "
                "applies to the 1d/2d families only"
            )
        wire_default = (
            self.codec == "raw" or getattr(self.codec, "name", None) == "raw"
        ) and not self.sieve
        if "wire" not in spec.capabilities and not wire_default:
            raise ValueError(
                f"{self.algorithm} does not route its exchanges through repro.comm; "
                "codec/sieve apply to the 1d/2d families only"
            )
        if self.tracer is not None and "tracer" not in spec.capabilities:
            raise ValueError(
                f"{self.algorithm} is not instrumented for span tracing; "
                "tracer applies to the 1d/2d families only"
            )
        # Metrics ride the same instrumentation seams as the tracer.
        if self.metrics is not None and "tracer" not in spec.capabilities:
            raise ValueError(
                f"{self.algorithm} is not instrumented for metrics; "
                "metrics applies to the 1d/2d families only"
            )
        self._check_query_fields(spec)
        return machine

    def _check_query_fields(self, spec: AlgorithmSpec) -> None:
        """Gate the batched-query fields on the algorithm's kind."""
        if spec.kind == "bfs":
            if self.sources:
                raise ValueError(
                    "sources applies to the batched query only; "
                    f"{self.algorithm} is a single-source BFS"
                )
        elif self.sieve:
            raise ValueError(
                f"{self.algorithm} re-ships targets whose lane words grow, so "
                "the vertex-granular sender sieve would drop live updates; its "
                "lane-granular sieve is built into the lane prune (dedup_sends), "
                "and sieve applies to the single-source families only"
            )


@dataclass(frozen=True)
class Session:
    """A graph distributed once under one config, searchable many times.

    Built by :func:`prepare`.  :meth:`bfs` answers the single-source
    families and :meth:`query` the batched ones; both go through the one
    :meth:`launch` -> :meth:`stitch` -> validate -> result path, so a
    session searched from two sources equals two independent :func:`run`
    calls bit for bit.
    """

    graph: Graph
    config: RunConfig
    machine: object
    plan: Plan | None
    cost_model: NetworkCostModel | None

    @property
    def spec(self) -> AlgorithmSpec:
        return self.config.spec

    @property
    def nranks(self) -> int:
        return self.plan.nranks if self.plan is not None else 1

    @property
    def host(self):
        """The recorder of the driver's outer wall-clock spans."""
        return resolve_tracer(self.config.tracer).host

    def record_wall(self) -> None:
        """Book a traced search's :func:`~repro.obs.analysis.wall_table`
        as ``wall_seconds`` gauges when metrics are attached too."""
        config = self.config
        if config.tracer is not None and config.metrics is not None:
            config.metrics.record_wall(wall_table(config.tracer))

    def unobserved(self) -> "Session":
        """This session minus its tracer/metrics: virtual time restarts at
        zero each traversal, so observers describe one search — the
        multi-source loops attach them to the first only."""
        return replace(self, config=replace(self.config, tracer=None, metrics=None))

    def _require_kind(self, bfs: bool) -> None:
        if (self.spec.kind == "bfs") != bfs:
            redirect = (
                "a batched query family; use repro.query.run_query"
                if bfs
                else "a single-source BFS; use repro.core.run_bfs"
            )
            raise ValueError(f"{self.config.algorithm} is {redirect}")

    def bfs(self, source: int) -> BFSResult:
        """One BFS traversal from ``source`` (caller's vertex labels)."""
        self._require_kind(bfs=True)
        graph, config = self.graph, self.config
        require_vertex_id(source)
        if not 0 <= source < graph.n:
            raise ValueError(f"source {source} out of range [0, {graph.n})")
        src_internal = int(np.asarray(graph.to_internal(source)))
        if self.plan is None:  # the serial reference launches nothing
            levels_int, parents_int = bfs_serial(graph.csr, src_internal)
            spmd = None
            returns = [dict(lo=0, hi=graph.n, levels=levels_int, parents=parents_int,
                            nlevels=max(int(levels_int.max()), 0))]
        else:
            spmd = self.launch(src_internal)
            returns = spmd.returns
        check = None
        if config.validate:  # validate_bfs reads internal labels: keep a copy
            internal = np.empty((2, graph.n), dtype=np.int64)

            def check(lo, slice_levels, slice_parents):
                internal[:, lo:lo + len(slice_levels)] = slice_levels, slice_parents

        levels, parents, nlevels, reached = self.stitch(returns, check)
        if config.validate:
            with self.host.span("validate"):
                validate_bfs(
                    graph.csr, src_internal, *internal, undirected=not graph.directed
                )
        with self.host.span("teps"):
            m_traversed = count_closed_lane_edges(graph.csr, reached, 1, graph.m_input)[0]
        self.record_wall()
        return BFSResult(
            levels=levels,
            parents=parents,
            source=int(source),
            algorithm=config.algorithm,
            nranks=self.nranks,
            threads=config.threads,
            nlevels=nlevels,
            m_traversed=m_traversed,
            stats=spmd.stats if spmd is not None else None,
            meta=self.meta(
                self.level_profile(spmd),
                dirop_alpha=DIROP_ALPHA if config.dirop_alpha is None else config.dirop_alpha,
                dirop_beta=DIROP_BETA if config.dirop_beta is None else config.dirop_beta,
            ),
        )

    def query(self, sources=None) -> "query_driver.QueryResult":
        """One batched query; ``sources`` — up to 64 vertex ids in the
        caller's labels — replaces the config's batch when given."""
        self._require_kind(bfs=False)
        session = self
        if sources is not None:
            batch = tuple(sources) if np.ndim(sources) else (sources,)
            session = replace(self, config=replace(self.config, sources=batch))
        return query_driver.query(session)

    # -- the shared launch -> stitch -> report path --------------------------
    def launch(self, seed):
        """One SPMD run of the prepared family from ``seed`` (an internal
        source id or a lane batch); returns its
        :class:`~repro.runtime.SpmdResult`."""
        plan, config = self.plan, self.config
        args = plan.args + (seed,)
        if self.spec.step is None:  # the baselines bring their own rank body
            body, kwargs = plan.body, {"machine": self.machine}
        else:
            body = traversal_body
            args = (self.spec.step, args, plan.kwargs)
            kwargs = dict(
                machine=self.machine,
                threads=config.threads,
                trace=config.trace,
                tracer=config.tracer,
                metrics=config.metrics,
            )
        with self.host.span("launch"):
            return run_spmd(
                plan.nranks, body, *args, cost_model=self.cost_model,
                runtime=config.runtime, timeout=config.spmd_timeout, **kwargs,
            )

    def stitch(self, returns, check=None):
        """Write each rank's slice straight into fresh caller-label
        outputs, ``(n,)`` or ``(n, lanes)`` as the slices are: rows land
        at :meth:`Graph.original_rows`, parent ids pass through
        :meth:`Graph.original_ids`, and each slice leaves ``returns`` once
        consumed, so no full internal-label array is ever built.

        ``check(lo, slice_levels, slice_parents)`` sees each slice in
        internal labels first.  Returns ``(levels, parents, nlevels,
        words)``: ``words`` holds every vertex's reached-lane
        :func:`~repro.core.validate.lane_words` in internal labels, the
        input of :func:`~repro.core.validate.count_closed_lane_edges`.
        """
        graph = self.graph
        step = self.spec.step
        lo_key, hi_key = step.result_keys if step is not None else ("lo", "hi")
        words = None
        with self.host.span("stitch"):
            for rank_out in returns:
                lo, hi = rank_out[lo_key], rank_out[hi_key]
                slice_levels, slice_parents = rank_out.pop("levels"), rank_out.pop("parents")
                if check is not None:
                    check(lo, slice_levels, slice_parents)
                reached = lane_words(slice_levels >= 0)
                if words is None:
                    shape = (graph.n, *slice_levels.shape[1:])
                    levels, parents = np.empty(shape, np.int64), np.empty(shape, np.int64)
                    words = np.zeros(graph.n, dtype=reached.dtype)
                rows = graph.original_rows(lo, hi)
                levels[rows] = slice_levels
                parents[rows] = graph.original_ids(slice_parents)
                words[lo:hi] = reached
        return levels, parents, max(r["nlevels"] for r in returns), words

    def level_profile(self, spmd) -> list[dict] | None:
        """The merged per-level profile of a ``trace=True`` run."""
        if self.config.trace and "trace-profile" in self.spec.capabilities:
            return _merge_traces([r["trace"] for r in spmd.returns])
        return None

    def meta(self, level_profile, **extra) -> dict:
        """The ``result.meta`` every kind reports, plus its ``extra`` keys."""
        config = self.config
        return {
            "graph": self.graph.name,
            "machine": self.machine.name if self.machine is not None else None,
            "kernel": config.kernel,
            "dedup_sends": config.dedup_sends,
            "codec": getattr(config.codec, "name", config.codec),
            "sieve": bool(config.sieve),
            "vector_dist": config.vector_dist,
            "level_profile": level_profile,
            "tracer": config.tracer,
            "metrics": config.metrics,
            **(self.plan.meta if self.plan is not None else {}),
            **extra,
        }


def prepare(graph: Graph, config: RunConfig) -> Session:
    """Distribute ``graph`` for repeated searches under ``config``: resolve
    the config, build the family's :class:`Plan` (for 2D the ``Decomp2D``
    and its DCSC blocks, read off the CSR's column runs — about a third
    of a scale-16 search's wall clock) and size the machine cost model
    to the plan's rank count, once."""
    machine = config.resolve()
    spec = config.spec
    host = resolve_tracer(config.tracer).host
    with host.span("partition"):
        plan = spec.prepare(graph, config) if spec.prepare is not None else None
    with host.span("plan"):
        cost_model = (
            NetworkCostModel(machine, threads=config.threads, total_ranks=plan.nranks)
            if machine is not None and plan is not None
            else None
        )
    return Session(graph, config, machine, plan, cost_model)


def run(graph: Graph, source: int, config: RunConfig) -> BFSResult:
    """Run one BFS traversal of ``graph`` from ``source`` per ``config``."""
    return prepare(graph, config).bfs(source)


def run_bfs(graph: Graph, source: int, algorithm: str = "1d", **options) -> BFSResult:
    """Keyword form of :func:`run`: ``options`` are :class:`RunConfig` fields."""
    return run(graph, source, RunConfig(algorithm=algorithm, **options))


#: Per-level profile counters summed across ranks.
_TRACE_SUMS = ("frontier", "candidates", "words_sent", "wire_words", "sieve_dropped", "discovered")


def _merge_traces(rank_traces: list[list[dict]]) -> list[dict]:
    """Sum per-level counters across ranks (levels are lockstep).

    The direction-optimizing variant additionally records which
    ``direction`` a level ran in; the choice is collective, so the first
    rank's value stands for the level.
    """
    nlevels = max(len(t) for t in rank_traces)
    merged: list[dict] = []
    for i in range(nlevels):
        entry = {"level": i + 1, **dict.fromkeys(_TRACE_SUMS, 0)}
        for t in rank_traces:
            if i < len(t):
                for key in _TRACE_SUMS:
                    entry[key] += t[i].get(key, 0)
                # Collective per-level choices (traversal direction, lane
                # count): first rank's value stands.
                for key in ("direction", "lanes"):
                    if key in t[i] and key not in entry:
                        entry[key] = t[i][key]
        merged.append(entry)
    return merged

"""Batched-query kinds: what each does with a prepared session.

:func:`run_query` is to the query families what
:func:`repro.core.run_bfs` is to the BFS families — a one-shot wrapper
over ``prepare(graph, config).query(sources)``.  The driver itself
(launch, stitch, meta, level profile, crash restart) is
:class:`repro.core.runner.Session`'s, shared with the BFS families; this
module keeps only what is kind-specific — the oracle, the lane shape and
the extra ``meta`` — and wraps it in a :class:`QueryResult` whose shape
``run_report``/``perf-diff`` understand.

Kind dispatch (:data:`KINDS`, keyed by ``AlgorithmSpec.kind``):

* ``msbfs``    — one engine run, 2-D lane-column results;
* ``cc``       — one self-seeding engine run; labels canonicalized to the
  component's minimum original vertex id;
* ``sssp``     — one engine run per source, stacked into lane columns
  (modeled times accumulate across the batch);
* ``landmark`` — offline landmark selection + one internal ``msbfs-1d``
  session, returning a cached :class:`~repro.query.landmark.LandmarkIndex`.

``repro.core.runner`` imports this package for the registry's step
classes, so it is bound here as a module and only dereferenced at call
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import runner
from repro.core.validate import count_traversed_edges, count_traversed_edges_lanes
from repro.graphs.graph import Graph
from repro.query.landmark import DEFAULT_LANDMARKS, LandmarkIndex, select_landmarks
from repro.query.msbfs import WORD_LANES
from repro.query.serial import cc_serial, msbfs_serial, sssp_serial
from repro.sparse.semiring import INF


@dataclass
class QueryResult:
    """Output of one batched query plus its simulation record.

    ``levels``/``parents`` are ``(n, batch)`` lane columns for the
    batched kinds (``msbfs``/``sssp``/``landmark``) and 1-D arrays for
    ``cc`` (first-touch level and component label).  Attribute names
    deliberately mirror :class:`~repro.core.runner.BFSResult` so
    :func:`repro.obs.run_report` accepts either.
    """

    levels: np.ndarray
    parents: np.ndarray
    sources: np.ndarray
    algorithm: str
    kind: str
    nranks: int
    threads: int
    nlevels: int
    batch: int
    m_traversed: int
    time_total: float = 0.0
    time_comm: float = 0.0
    time_comp: float = 0.0
    stats: object = None
    meta: dict = field(default_factory=dict)

    @property
    def source(self) -> int:
        """Representative source (the first lane's), for report headers."""
        return int(self.sources[0]) if self.sources.size else -1

    @property
    def modeled_cores(self) -> int:
        return self.nranks * self.threads

    def lane(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """One lane's ``(levels, parents)`` as flat single-source arrays."""
        if self.levels.ndim != 2:
            raise ValueError(f"{self.kind} results carry no lanes")
        return self.levels[:, b], self.parents[:, b]

    def gteps(self) -> float:
        """Traversed-edges-per-second rate in billions, batch-aggregate."""
        if self.time_total <= 0:
            raise ValueError("untimed run: pass a machine to run_query for TEPS")
        return self.m_traversed / self.time_total / 1e9

    def queries_per_second(self) -> float:
        """Modeled query throughput: the batch amortizes one traversal."""
        if self.time_total <= 0:
            raise ValueError("untimed run: pass a machine to run_query")
        return self.batch / self.time_total


def run_query(graph: Graph, sources=None, config=None, **kwargs) -> QueryResult:
    """Run one batched query of ``graph`` per ``config``.

    Either pass a prebuilt :class:`~repro.core.runner.RunConfig` via
    ``config``, or its fields as keyword options exactly as
    :func:`~repro.core.run_bfs` takes them (``algorithm`` defaults to
    ``"msbfs-1d"``).  ``sources`` — up to 64 vertex ids in the caller's
    labels — may be given positionally for convenience; it replaces the
    config's batch.
    """
    if config is None:
        config = runner.RunConfig(**{"algorithm": "msbfs-1d", **kwargs})
    elif kwargs:
        raise TypeError("pass either config= or keyword options, not both")
    return runner.prepare(graph, config).query(sources)


def _require_sources(session) -> np.ndarray:
    graph, config = session.graph, session.config
    if not config.sources:
        raise ValueError(
            f"{config.algorithm} needs explicit sources; pass up to "
            f"{WORD_LANES} vertex ids"
        )
    sources = np.asarray(config.sources, dtype=np.int64)
    if not 1 <= sources.size <= WORD_LANES:
        raise ValueError(
            f"batch size must be in [1, {WORD_LANES}], got {sources.size}"
        )
    bad = (sources < 0) | (sources >= graph.n)
    if bad.any():
        raise ValueError(
            f"sources out of range [0, {graph.n}): {sources[bad].tolist()}"
        )
    return sources


def _result(
    session, levels_int, parents, nlevels, m_traversed, stats, fault_meta,
    level_profile, *, sources=(), batch=None, times=None, **extra_meta,
) -> QueryResult:
    """The one :class:`QueryResult` constructor.

    ``levels_int`` is relabeled here; ``parents`` arrives in the caller's
    labels (``cc`` canonicalizes its own).  ``batch`` defaults to the
    number of ``sources``; ``times`` overrides the modeled breakdown read
    off ``stats`` (``sssp`` sums one engine run per lane).
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size:
        extra_meta["sources"] = sources.tolist()
    if times is None:
        times = (stats.makespan, stats.max_mpi_time, stats.max_compute_time)
    return QueryResult(
        levels=session.graph.relabel_level_array(levels_int),
        parents=parents,
        sources=sources,
        algorithm=session.config.algorithm,
        kind=session.spec.kind,
        nranks=session.nranks,
        threads=session.threads,
        nlevels=nlevels,
        batch=int(sources.size if batch is None else batch),
        m_traversed=int(m_traversed),
        time_total=times[0],
        time_comm=times[1],
        time_comp=times[2],
        stats=stats,
        meta=session.meta(fault_meta, level_profile, **extra_meta),
    )


def _query_msbfs(session) -> QueryResult:
    graph = session.graph
    sources = _require_sources(session)
    srcs_internal = np.asarray(graph.to_internal(sources), dtype=np.int64)
    spmd, fault_meta = session.launch(srcs_internal)
    levels_int, parents_int, nlevels = session.stitch(spmd, sources.size)

    if session.config.validate:
        ref_levels, ref_parents = msbfs_serial(graph.csr, srcs_internal)
        if not (
            np.array_equal(levels_int, ref_levels)
            and np.array_equal(parents_int, ref_parents)
        ):
            raise AssertionError(
                "msbfs lanes diverge from the per-lane serial oracle"
            )

    m_traversed = sum(
        count_traversed_edges_lanes(graph.csr, levels_int, graph.m_input)
    )
    return _result(
        session, levels_int, graph.relabel_vertex_array(parents_int), nlevels,
        m_traversed, spmd.stats, fault_meta, session.level_profile(spmd),
        sources=sources,
    )


def _canonical_components(n: int, comp: np.ndarray) -> np.ndarray:
    """Remap each component's label to its minimum member vertex id."""
    smallest = np.full(n, n, dtype=np.int64)
    np.minimum.at(smallest, comp, np.arange(n, dtype=np.int64))
    return smallest[comp]


def _query_cc(session) -> QueryResult:
    graph = session.graph
    if graph.directed:
        raise ValueError("cc requires an undirected graph")
    spmd, fault_meta = session.launch()
    levels_int, comp_int, nlevels = session.stitch(spmd)

    if session.config.validate and not np.array_equal(comp_int, cc_serial(graph.csr)):
        raise AssertionError("components diverge from the serial sweep")

    comp = _canonical_components(
        graph.n, np.asarray(graph.relabel_vertex_array(comp_int))
    )
    return _result(
        session, levels_int, comp, nlevels,
        count_traversed_edges(graph.csr, levels_int, graph.m_input),
        spmd.stats, fault_meta, session.level_profile(spmd),
        batch=WORD_LANES, components=int(np.unique(comp).size),
    )


def _query_sssp(session) -> QueryResult:
    graph = session.graph
    sources = _require_sources(session)
    weights = session.plan.kwargs["weights"]

    n, k = graph.n, sources.size
    levels_int = np.empty((n, k), dtype=np.int64)
    parents_int = np.empty((n, k), dtype=np.int64)
    nlevels = 0
    times = np.zeros(3)
    m_traversed = 0
    stats = None
    fault_meta = None
    lane_profiles = []
    for b, s in enumerate(sources):
        src_internal = int(np.asarray(graph.to_internal(int(s))))
        spmd, fault_meta = session.launch(src_internal)
        dist, parents, levels_run = session.stitch(spmd)
        dist = np.where(dist >= INF, np.int64(-1), dist)
        if session.config.validate:
            ref_dist, ref_parents = sssp_serial(graph.csr, src_internal, weights)
            if not (
                np.array_equal(dist, ref_dist)
                and np.array_equal(parents, ref_parents)
            ):
                raise AssertionError(
                    f"sssp lane {b} diverges from the Dijkstra oracle"
                )
        levels_int[:, b] = dist
        parents_int[:, b] = parents
        nlevels = max(nlevels, levels_run)
        m_traversed += count_traversed_edges(graph.csr, dist, graph.m_input)
        stats = spmd.stats
        times += (stats.makespan, stats.max_mpi_time, stats.max_compute_time)
        profile = session.level_profile(spmd)
        if profile is not None:
            lane_profiles.append(profile)

    # One engine run per source: lane 0's profile stands as the
    # representative, the full set rides under "lane_profiles".
    extra = {"lane_profiles": lane_profiles} if lane_profiles else {}
    return _result(
        session, levels_int, graph.relabel_vertex_array(parents_int), nlevels,
        m_traversed, stats, fault_meta, lane_profiles[0] if lane_profiles else None,
        sources=sources, times=tuple(float(t) for t in times), **extra,
    )


def _query_landmark(session) -> QueryResult:
    graph, config = session.graph, session.config
    if graph.directed:
        raise ValueError("landmark requires an undirected graph")
    k = DEFAULT_LANDMARKS if config.landmarks is None else config.landmarks
    landmarks = select_landmarks(graph, min(k, max(graph.n, 1)))
    inner = replace(
        config,
        algorithm="msbfs-1d",
        sources=tuple(int(v) for v in landmarks),
        landmarks=None,
    )
    res = runner.prepare(graph, inner).query()
    index = LandmarkIndex(landmarks=landmarks, dist=res.levels)
    meta = dict(res.meta, landmarks=landmarks.tolist(), index=index)
    return replace(
        res, sources=landmarks, algorithm=config.algorithm, kind="landmark", meta=meta
    )


#: ``AlgorithmSpec.kind`` -> what :meth:`repro.core.runner.Session.query` runs.
KINDS = {
    "msbfs": _query_msbfs,
    "cc": _query_cc,
    "sssp": _query_sssp,
    "landmark": _query_landmark,
}

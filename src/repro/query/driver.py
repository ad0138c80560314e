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
from repro.core.validate import ValidationError, count_lane_edges
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
            f"{config.algorithm} needs explicit sources; pass up to {WORD_LANES} vertex ids"
        )
    sources = np.asarray(config.sources, dtype=np.int64)
    if not 1 <= sources.size <= WORD_LANES:
        raise ValueError(f"batch size must be in [1, {WORD_LANES}], got {sources.size}")
    bad = (sources < 0) | (sources >= graph.n)
    if bad.any():
        raise ValueError(f"sources out of range [0, {graph.n}): {sources[bad].tolist()}")
    return sources


def _result(
    session, levels, parents, nlevels, m_traversed, stats, fault_meta,
    level_profile, *, sources=(), batch=None, times=None, **extra_meta,
) -> QueryResult:
    """The one :class:`QueryResult` constructor.

    ``levels`` / ``parents`` arrive stitched into the caller's labels.
    ``batch`` defaults to the number of ``sources``; ``times`` overrides
    the modeled breakdown read off ``stats`` (``sssp`` sums one engine
    run per lane).
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size:
        extra_meta["sources"] = sources.tolist()
    if times is None:
        times = (stats.makespan, stats.max_mpi_time, stats.max_compute_time)
    return QueryResult(
        levels=levels,
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


def _oracle_check(session, what: str, oracle):
    """The :meth:`~repro.core.runner.Session.stitch` check of a
    ``validate=True`` query (``None`` otherwise): each internal slice
    must equal the rows of ``oracle()``'s ``(levels, parents)``, and the
    :class:`ValidationError` names the first diverging vertex (caller
    labels) and lane.  ``levels=None`` checks the parents only."""
    if not session.config.validate:
        return None
    graph = session.graph
    ref_levels, ref_parents = oracle()

    def check(lo, levels, parents):
        rows = slice(lo, lo + len(parents))
        want = (levels if ref_levels is None else ref_levels[rows], ref_parents[rows])
        bad = np.argwhere((levels != want[0]) | (parents != want[1]))
        if bad.size:
            at = tuple(bad[0])
            lane = f" lane {at[1]}" if len(at) > 1 else ""
            raise ValidationError(
                f"{what} at vertex {graph.to_original(lo + int(at[0]))}{lane}: "
                f"level {levels[at]}, parent {graph.original_ids(parents[at])}; "
                f"expected {want[0][at]}, {graph.original_ids(want[1][at])}"
            )

    return check


def _query_msbfs(session) -> QueryResult:
    graph = session.graph
    sources = _require_sources(session)
    srcs_internal = np.asarray(graph.to_internal(sources), dtype=np.int64)
    spmd, fault_meta = session.launch(srcs_internal)
    check = _oracle_check(
        session, "msbfs lanes diverge from the per-lane serial oracle",
        lambda: msbfs_serial(graph.csr, srcs_internal),
    )
    levels, parents, nlevels, reached = session.stitch(spmd.returns, check)
    m_traversed = sum(count_lane_edges(graph.csr, reached, sources.size, graph.m_input))
    return _result(
        session, levels, parents, nlevels, m_traversed, spmd.stats, fault_meta,
        session.level_profile(spmd), sources=sources,
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
    check = _oracle_check(
        session, "components diverge from the serial sweep", lambda: (None, cc_serial(graph.csr))
    )
    levels, comp, nlevels, reached = session.stitch(spmd.returns, check)
    comp = _canonical_components(graph.n, comp)
    return _result(
        session, levels, comp, nlevels,
        count_lane_edges(graph.csr, reached, 1, graph.m_input)[0],
        spmd.stats, fault_meta, session.level_profile(spmd),
        batch=WORD_LANES, components=int(np.unique(comp).size),
    )


def _query_sssp(session) -> QueryResult:
    graph = session.graph
    sources = _require_sources(session)
    weights = session.plan.kwargs["weights"]

    n, k = graph.n, sources.size
    levels = np.empty((n, k), dtype=np.int64)
    parents = np.empty((n, k), dtype=np.int64)
    nlevels = m_traversed = 0
    times = np.zeros(3)
    lane_profiles = []
    for b, s in enumerate(sources):
        src_internal = int(np.asarray(graph.to_internal(int(s))))
        spmd, fault_meta = session.launch(src_internal)
        for rank_out in spmd.returns:  # unreached distances read -1
            np.putmask(rank_out["levels"], rank_out["levels"] >= INF, -1)
        check = _oracle_check(
            session, f"sssp lane {b} diverges from the Dijkstra oracle",
            lambda: sssp_serial(graph.csr, src_internal, weights),
        )
        lane_levels, lane_parents, levels_run, reached = session.stitch(spmd.returns, check)
        levels[:, b], parents[:, b] = lane_levels, lane_parents
        nlevels = max(nlevels, levels_run)
        m_traversed += count_lane_edges(graph.csr, reached, 1, graph.m_input)[0]
        stats = spmd.stats
        times += (stats.makespan, stats.max_mpi_time, stats.max_compute_time)
        profile = session.level_profile(spmd)
        if profile is not None:
            lane_profiles.append(profile)

    # One engine run per source: lane 0's profile stands as the
    # representative, the full set rides under "lane_profiles".
    extra = {"lane_profiles": lane_profiles} if lane_profiles else {}
    return _result(
        session, levels, parents, nlevels,
        m_traversed, stats, fault_meta, lane_profiles[0] if lane_profiles else None,
        sources=sources, times=tuple(float(t) for t in times), **extra,
    )


def _query_landmark(session) -> QueryResult:
    graph, config = session.graph, session.config
    if graph.directed:
        raise ValueError("landmark requires an undirected graph")
    k = DEFAULT_LANDMARKS if config.landmarks is None else config.landmarks
    landmarks = select_landmarks(graph, min(k, max(graph.n, 1)))
    sources = tuple(int(v) for v in landmarks)
    inner = replace(config, algorithm="msbfs-1d", sources=sources, landmarks=None)
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

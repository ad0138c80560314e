"""The batched query: what ``msbfs-1d`` does with a prepared session.

:func:`run_query` is to the query family what
:func:`repro.core.run_bfs` is to the BFS families — a one-shot wrapper
over ``prepare(graph, config).query(sources)``.  The driver itself
(launch, stitch, meta, level profile) is
:class:`repro.core.runner.Session`'s, shared with the BFS families; this
module keeps only what is query-specific — the source batch, the
per-lane oracle and the lane columns — and wraps it in a
:class:`QueryResult` whose shape ``run_report`` understands.

``repro.core.runner`` imports this package for the registry's step
class, so it is bound here as a module and only dereferenced at call
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import runner
from repro.core.validate import ValidationError, count_closed_lane_edges
from repro.graphs.graph import Graph
from repro.query.msbfs import WORD_LANES
from repro.query.serial import msbfs_serial


@dataclass
class QueryResult:
    """Output of one batched query plus its simulation record.

    ``levels``/``parents`` are ``(n, batch)`` lane columns.  Attribute
    names deliberately mirror :class:`~repro.core.runner.BFSResult` so
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
    for s in config.sources:
        runner.require_vertex_id(s)
    sources = np.asarray(config.sources, dtype=np.int64)
    if not 1 <= sources.size <= WORD_LANES:
        raise ValueError(f"batch size must be in [1, {WORD_LANES}], got {sources.size}")
    bad = (sources < 0) | (sources >= graph.n)
    if bad.any():
        raise ValueError(f"sources out of range [0, {graph.n}): {sources[bad].tolist()}")
    return sources


def _oracle_check(session, oracle):
    """The :meth:`~repro.core.runner.Session.stitch` check of a
    ``validate=True`` query (``None`` otherwise): each internal slice
    must equal the rows of ``oracle()``'s ``(levels, parents)``, and the
    :class:`ValidationError` names the first diverging vertex (caller
    labels) and lane."""
    if not session.config.validate:
        return None
    graph = session.graph
    with session.host.span("oracle"):
        ref_levels, ref_parents = oracle()

    def check(lo, levels, parents):
        rows = slice(lo, lo + len(parents))
        want = (ref_levels[rows], ref_parents[rows])
        bad = np.argwhere((levels != want[0]) | (parents != want[1]))
        if bad.size:
            at = tuple(bad[0])
            raise ValidationError(
                "msbfs lanes diverge from the per-lane serial oracle "
                f"at vertex {graph.to_original(lo + int(at[0]))} lane {at[1]}: "
                f"level {levels[at]}, parent {graph.original_ids(parents[at])}; "
                f"expected {want[0][at]}, {graph.original_ids(want[1][at])}"
            )

    return check


def query(session) -> QueryResult:
    """One ``msbfs-1d`` traversal of the session's source batch."""
    graph = session.graph
    sources = _require_sources(session)
    srcs_internal = np.asarray(graph.to_internal(sources), dtype=np.int64)
    spmd = session.launch(srcs_internal)
    check = _oracle_check(session, lambda: msbfs_serial(graph.csr, srcs_internal))
    levels, parents, nlevels, reached = session.stitch(spmd.returns, check)
    with session.host.span("teps"):
        m_traversed = sum(
            count_closed_lane_edges(graph.csr, reached, sources.size, graph.m_input)
        )
    session.record_wall()
    stats = spmd.stats
    return QueryResult(
        levels=levels,
        parents=parents,
        sources=sources,
        algorithm=session.config.algorithm,
        kind=session.spec.kind,
        nranks=session.nranks,
        threads=session.config.threads,
        nlevels=nlevels,
        batch=int(sources.size),
        m_traversed=int(m_traversed),
        time_total=stats.makespan,
        time_comm=stats.max_mpi_time,
        time_comp=stats.max_compute_time,
        stats=stats,
        meta=session.meta(session.level_profile(spmd), sources=sources.tolist()),
    )

"""Span-based tracing of simulated BFS runs, stamped in virtual time.

A :class:`Tracer` collects nested :class:`Span` records — one stack per
simulated rank — whose start/end times are read off the rank's virtual
:class:`~repro.mpsim.clock.RankClock`.  Because spans never charge the
clock themselves, tracing is *passive*: a traced run produces bit-identical
``levels``/``parents``/stats to an untraced one (asserted by
``tests/test_obs_overhead.py``).

The BFS rank bodies open one depth-0 ``"level"`` span per BFS level and
depth-1 phase spans inside it (``td-scan``, ``td-pack``, ``td-exchange``,
``bu-expand``, ``spmsv``, ``sync``, ...); the comm channel and the SpMSV
kernel add depth-2 children (``sieve``, ``encode``, ``alltoallv``,
``decode``, ``allgatherv``, ``spmsv-kernel``).  Export the result with
:mod:`repro.obs.export` and analyze it with :mod:`repro.obs.analysis`.

Usage::

    from repro.obs import Tracer

    tracer = Tracer()
    result = repro.run_bfs(graph, src, "1d-dirop", nprocs=8,
                           machine="hopper", tracer=tracer)
    print(tracer.nranks, len(tracer.spans_for(0)))

When no tracer is installed the algorithms fall back to the module-level
:data:`NULL_TRACER`, whose span handles are shared no-op context managers
— zero allocations, zero state, zero overhead on the hot path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    """One traced phase on one rank's virtual clock.

    ``parent`` is the index of the enclosing span in the same rank's span
    list (``None`` at depth 0).  ``level`` is inherited from the enclosing
    span when not given explicitly, so channel-internal spans carry the
    BFS level of the exchange they serve.  ``instant`` marks zero-duration
    marker events (e.g. the SpMSV kernel choice).
    """

    rank: int
    phase: str
    t_start: float
    t_end: float
    level: int | None = None
    depth: int = 0
    parent: int | None = None
    instant: bool = False
    meta: dict = field(default_factory=dict)
    wall_start_ns: int = 0
    wall_end_ns: int = 0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class _SpanHandle:
    """Context manager recording one span on a :class:`RankTracer`."""

    __slots__ = ("_rt", "_phase", "_level", "_meta", "_index")

    def __init__(self, rt: "RankTracer", phase: str, level: int | None, meta: dict):
        self._rt = rt
        self._phase = phase
        self._level = level
        self._meta = meta

    def __enter__(self) -> Span:
        rt = self._rt
        stack = rt._stack
        level = self._level
        parent = stack[-1] if stack else None
        if level is None and parent is not None:
            level = rt.spans[parent].level
        span = Span(
            rank=rt.rank,
            phase=self._phase,
            t_start=rt._clock.time,
            t_end=rt._clock.time,
            level=level,
            depth=len(stack),
            parent=parent,
            meta=self._meta,
        )
        self._index = len(rt.spans)
        rt.spans.append(span)
        stack.append(self._index)
        span.wall_start_ns = perf_counter_ns()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_end_ns = perf_counter_ns()
        rt = self._rt
        span = rt.spans[self._index]
        span.t_end = rt._clock.time
        span.wall_end_ns = wall_end_ns
        rt._stack.pop()
        return False


class _NullHandle:
    """Shared no-op span handle: the zero-overhead disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class RankTracer:
    """Per-rank recording handle bound to one virtual clock.

    Obtained through :meth:`Tracer.for_rank`; each simulated rank writes
    only to its own span list, so no locking is needed on the hot path.
    """

    __slots__ = ("rank", "spans", "_clock", "_stack")

    def __init__(self, rank: int, clock):
        self.rank = rank
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []

    def span(self, phase: str, level: int | None = None, **meta) -> _SpanHandle:
        """Open a nested phase span (use as a context manager)."""
        return _SpanHandle(self, phase, level, meta)

    def instant(self, phase: str, level: int | None = None, **meta) -> Span:
        """Record a zero-duration marker at the current nesting depth."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if level is None and parent is not None:
            level = self.spans[parent].level
        span = Span(
            rank=self.rank,
            phase=phase,
            t_start=self._clock.time,
            t_end=self._clock.time,
            level=level,
            depth=len(stack),
            parent=parent,
            instant=True,
            meta=meta,
        )
        self.spans.append(span)
        return span


class NullRankTracer:
    """Disabled per-rank handle: every call is a shared no-op."""

    __slots__ = ()

    def span(self, phase: str, level: int | None = None, **meta) -> _NullHandle:
        return _NULL_HANDLE

    def instant(self, phase: str, level: int | None = None, **meta) -> None:
        return None


NULL_RANK_TRACER = NullRankTracer()

#: The ``rank`` of :attr:`Tracer.host`'s spans.
HOST_RANK = -1


class _HostClock:
    """The host recorder's clock: outer spans have no virtual time."""

    time = 0.0


class Tracer:
    """Run-wide span collector: one :class:`RankTracer` per simulated rank.

    Pass one instance to ``run_bfs(..., tracer=tracer)``; after the run,
    read spans back per rank.  A tracer records exactly one run — call
    :meth:`reset` (or build a fresh instance) before reusing it, since
    every simulated run restarts virtual time at zero.

    :attr:`host` records the driver's outer spans (``generate``,
    ``construct``, ``partition``, ``plan``, ``launch``, ``stitch``,
    ``oracle`` (queries), ``validate``, ``teps``) on the wall clock alone.  They
    stay out of :attr:`ranks`, so exports and the modeled analyses
    never see them; :func:`~repro.obs.analysis.wall_table` does.
    """

    def __init__(self):
        self._ranks: dict[int, RankTracer] = {}
        self._lock = threading.Lock()
        self.host = RankTracer(HOST_RANK, _HostClock())

    def for_rank(self, comm) -> RankTracer:
        """The recording handle of ``comm``'s global rank (thread-safe)."""
        rank = comm.global_rank
        with self._lock:
            rt = self._ranks.get(rank)
            if rt is None:
                rt = RankTracer(rank, comm.clock)
                self._ranks[rank] = rt
            elif rt._clock is not comm.clock:
                # The same tracer passed to a later SPMD run: that run
                # has fresh clocks, so rebind the rank's handle to them
                # (its spans must end at the new run's clock, not the
                # old one's), and drop any stack left open by an earlier
                # run that aborted mid-span.
                rt._clock = comm.clock
                rt._stack.clear()
            return rt

    @property
    def nranks(self) -> int:
        return len(self._ranks)

    @property
    def ranks(self) -> list[int]:
        return sorted(self._ranks)

    def spans_for(self, rank: int) -> list[Span]:
        rt = self._ranks.get(rank)
        return rt.spans if rt is not None else []

    def all_spans(self) -> list[Span]:
        """Every span of every rank, in rank order."""
        return [s for rank in self.ranks for s in self.spans_for(rank)]

    @property
    def makespan(self) -> float:
        """Latest span end across all ranks (0.0 when empty/untimed)."""
        return max((s.t_end for s in self.all_spans()), default=0.0)

    def reset(self) -> None:
        """Drop all recorded spans so the tracer can observe another run."""
        with self._lock:
            self._ranks.clear()
            self.host.spans.clear()
            self.host._stack.clear()


class NullTracer:
    """Drop-in disabled tracer (what ``tracer=None`` resolves to)."""

    host = NULL_RANK_TRACER

    def for_rank(self, comm) -> NullRankTracer:
        return NULL_RANK_TRACER


NULL_TRACER = NullTracer()


def resolve_tracer(tracer) -> Tracer | NullTracer:
    """Normalize a ``tracer`` argument: ``None`` means the null tracer."""
    return tracer if tracer is not None else NULL_TRACER

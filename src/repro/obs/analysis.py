"""Trace analysis: critical paths, load imbalance, comm/comp decomposition.

All three analyses consume a populated :class:`~repro.obs.tracer.Tracer`
and exploit the structure the BFS instrumentation guarantees:

* every rank opens exactly one depth-0 ``"level"`` span per BFS level,
  and the level's trailing ``sync`` collective aligns all ranks to the
  same completion time — so level boundaries are global;
* depth-1 phase spans tile each level span (whatever they miss is
  reported as the ``"untraced"`` residual), so per-level phase times sum
  *exactly* to the level duration;
* communication spans carry collective names (:data:`COMM_PHASES`), so
  comm vs computation time can be split at any nesting depth.

:func:`critical_path` therefore reconstructs the run end-to-end: init
time (everything before level 1) plus per-level critical-rank phase
decompositions that sum to the modeled makespan — the programmatic
equivalent of the paper's Figure 6/8 per-phase breakdowns.

:func:`wall_table` reads the second clock off the same spans: where the
host's seconds went, per phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.tracer import Span, Tracer

#: Span phases that represent time inside communication primitives.  The
#: channel/algorithm instrumentation names comm spans after the underlying
#: collective, so membership here is the comm/comp classifier.
COMM_PHASES = frozenset(
    {"alltoallv", "allgatherv", "allreduce", "transpose", "exchange", "bcast", "split"}
)

#: Phase name used for the part of a level span not covered by any
#: depth-1 child (loop bookkeeping, span-free charges).
UNTRACED = "untraced"

#: The :func:`wall_table` row for the ``launch`` span's wall that no
#: non-collective rank span covers.
RENDEZVOUS = "rendezvous"


@dataclass
class LevelCritical:
    """Critical-path record of one BFS level.

    ``rank`` is the straggler that bounded the level (latest arrival at
    the level's trailing sync — or, without a sync span, the latest end of
    its last non-sync phase).  ``phases`` maps that rank's depth-1 phase
    names to seconds and includes the :data:`UNTRACED` residual, so
    ``sum(phases.values()) == duration`` exactly.
    """

    level: int
    t_start: float
    t_end: float
    rank: int
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def bounding_phase(self) -> str:
        """The largest phase of the critical rank (straggler attribution)."""
        return max(self.phases, key=lambda k: self.phases[k]) if self.phases else UNTRACED


@dataclass
class CriticalPath:
    """Whole-run critical path: init + per-level critical decompositions."""

    init: float
    levels: list[LevelCritical]

    @property
    def total(self) -> float:
        """Modeled seconds accounted for (must match the run makespan)."""
        return self.init + sum(lc.duration for lc in self.levels)

    def phase_totals(self) -> dict[str, float]:
        """Critical-rank seconds per phase summed over levels (Fig 6/8)."""
        totals: dict[str, float] = {}
        if self.init:
            totals["init"] = self.init
        for lc in self.levels:
            for phase, seconds in lc.phases.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals


def _level_spans(tracer: Tracer) -> dict[int, dict[int, Span]]:
    """``{level: {rank: level-span}}`` for every rank's depth-0 spans."""
    table: dict[int, dict[int, Span]] = {}
    for rank in tracer.ranks:
        for span in tracer.spans_for(rank):
            if span.phase == "level" and span.depth == 0 and span.level is not None:
                table.setdefault(span.level, {})[rank] = span
    return table


def _children(tracer: Tracer, rank: int, parent_span: Span) -> list[Span]:
    spans = tracer.spans_for(rank)
    # Identity lookup: untimed runs make zero-duration spans compare equal.
    parent_idx = next(i for i, s in enumerate(spans) if s is parent_span)
    return [s for s in spans if s.parent == parent_idx and not s.instant]


def critical_path(tracer: Tracer) -> CriticalPath:
    """Extract the run's critical path from its level structure.

    For each level the critical (straggler) rank is the one arriving last
    at the level's ``sync`` phase; its depth-1 phase durations — plus the
    ``untraced`` residual — decompose the level.  Because the trailing
    collective aligns every rank's level end, summing level durations and
    the pre-level-1 init time reproduces the run's modeled makespan
    exactly (see :func:`check_critical_path`).
    """
    by_level = _level_spans(tracer)
    if not by_level:
        return CriticalPath(init=0.0, levels=[])
    levels = sorted(by_level)
    first = by_level[levels[0]]
    init = min(span.t_start for span in first.values())
    out: list[LevelCritical] = []
    for level in levels:
        ranks = by_level[level]
        t_start = min(s.t_start for s in ranks.values())
        t_end = max(s.t_end for s in ranks.values())
        # Straggler: latest arrival at the trailing sync (i.e. the rank
        # that kept everyone waiting).  Ranks missing a sync span fall
        # back to their level-span end.
        def arrival(item) -> tuple[float, float]:
            rank, span = item
            for child in _children(tracer, rank, span):
                if child.phase == "sync":
                    return (child.t_start, span.t_end)
            return (span.t_end, span.t_end)

        crit_rank, crit_span = max(ranks.items(), key=arrival)
        phases: dict[str, float] = {}
        covered = 0.0
        for child in _children(tracer, crit_rank, crit_span):
            phases[child.phase] = phases.get(child.phase, 0.0) + child.duration
            covered += child.duration
        residual = crit_span.duration - covered
        if phases:
            phases[UNTRACED] = residual
        else:
            phases[UNTRACED] = crit_span.duration
        out.append(
            LevelCritical(
                level=level,
                t_start=t_start,
                t_end=t_end,
                rank=crit_rank,
                phases=phases,
            )
        )
    return CriticalPath(init=init, levels=out)


def check_critical_path(
    tracer: Tracer, time_total: float, rel_tol: float = 1e-6
) -> CriticalPath:
    """Validate that the critical path accounts for the whole run.

    Returns the path; raises ``ValueError`` when its total disagrees with
    the run's modeled ``time_total`` beyond ``rel_tol`` (with an absolute
    floor for untimed runs, whose spans are all zero-duration).
    """
    path = critical_path(tracer)
    if not math.isclose(path.total, time_total, rel_tol=rel_tol, abs_tol=1e-15):
        raise ValueError(
            f"critical path sums to {path.total!r} but the run's modeled "
            f"total is {time_total!r} (rel_tol={rel_tol})"
        )
    return path


@dataclass
class PhaseImbalance:
    """Cross-rank spread of one phase at one level."""

    level: int
    phase: str
    max_seconds: float
    mean_seconds: float
    straggler: int  # rank with the max

    @property
    def imbalance(self) -> float:
        """max/mean — 1.0 is perfectly balanced (paper's Figure 4 metric)."""
        if self.mean_seconds <= 0:
            return 1.0
        return self.max_seconds / self.mean_seconds


def load_imbalance(tracer: Tracer) -> list[PhaseImbalance]:
    """Per-level, per-phase max/mean across ranks with straggler ranks.

    Only depth-1 phases (the per-level tiling) are compared; a rank that
    never entered a phase contributes 0 seconds, so structurally skewed
    schedules (e.g. the diagonal-only vector distribution) show up as
    large ``imbalance`` factors.
    """
    by_level = _level_spans(tracer)
    nranks = max(tracer.nranks, 1)
    out: list[PhaseImbalance] = []
    for level in sorted(by_level):
        per_phase: dict[str, dict[int, float]] = {}
        for rank, span in by_level[level].items():
            for child in _children(tracer, rank, span):
                bucket = per_phase.setdefault(child.phase, {})
                bucket[rank] = bucket.get(rank, 0.0) + child.duration
        for phase in sorted(per_phase):
            durations = per_phase[phase]
            straggler = max(durations, key=lambda r: (durations[r], r))
            out.append(
                PhaseImbalance(
                    level=level,
                    phase=phase,
                    max_seconds=max(durations.values()),
                    mean_seconds=sum(durations.values()) / nranks,
                    straggler=straggler,
                )
            )
    return out


def _comm_seconds(tracer: Tracer, rank: int, level_span: Span) -> float:
    """Seconds rank spent inside comm-named spans within one level span."""
    spans = tracer.spans_for(rank)
    lo, hi = level_span.t_start, level_span.t_end
    return sum(
        s.duration
        for s in spans
        if s.phase in COMM_PHASES
        and not s.instant
        and s.t_start >= lo - 1e-18
        and s.t_end <= hi + 1e-18
    )


def comm_comp_summary(tracer: Tracer) -> dict:
    """Per-level and total communication vs computation decomposition.

    Communication is time inside :data:`COMM_PHASES` spans (including
    synchronization waits, matching the paper's "time in MPI" metric);
    computation is the rest of the level.  ``max`` entries follow the
    slowest rank of each level, ``mean`` averages all ranks — together
    they reproduce the Figure 6/8 stacked decompositions programmatically.
    """
    by_level = _level_spans(tracer)
    nranks = max(tracer.nranks, 1)
    levels = []
    total_comm_max = total_comp_max = 0.0
    for level in sorted(by_level):
        ranks = by_level[level]
        comm = {rank: _comm_seconds(tracer, rank, span) for rank, span in ranks.items()}
        comp = {rank: span.duration - comm[rank] for rank, span in ranks.items()}
        comm_max = max(comm.values(), default=0.0)
        comp_max = max(comp.values(), default=0.0)
        levels.append(
            {
                "level": level,
                "comm_max": comm_max,
                "comp_max": comp_max,
                "comm_mean": sum(comm.values()) / nranks,
                "comp_mean": sum(comp.values()) / nranks,
            }
        )
        total_comm_max += comm_max
        total_comp_max += comp_max
    return {
        "levels": levels,
        "totals": {"comm_max": total_comm_max, "comp_max": total_comp_max},
    }


def _self_wall_ns(spans: list[Span]) -> list[int]:
    """Each span's wall nanoseconds minus its direct children's."""
    full = [s.wall_end_ns - s.wall_start_ns for s in spans]
    own = list(full)
    for span, ns in zip(spans, full):
        if span.parent is not None:
            own[span.parent] -= ns
    return own


def wall_table(tracer: Tracer) -> dict[str, float]:
    """Host seconds per phase, largest first: the wall-clock breakdown.

    A row is self time (a span's wall minus its children's), summed over
    ranks for rank spans.  Collective spans (:data:`COMM_PHASES`) get no
    row, because a rank's wall inside a collective includes its peers'
    compute.  Instead the host ``launch`` span's self time, less every
    rank row, is the :data:`RENDEZVOUS` row: the collectives, the
    runtime's scheduling and rank-body code outside any span.  The other
    host spans (:attr:`Tracer.host`) are rows of their own.  Under the
    ``sequential`` runtime the rows sum to the wall of the outermost
    host spans; under a concurrent one the rank rows overlap and the
    rendezvous row can go negative.
    """
    table: dict[str, int] = {}
    rank_ns = 0
    for rank in tracer.ranks:
        spans = tracer.spans_for(rank)
        for span, ns in zip(spans, _self_wall_ns(spans)):
            if span.phase not in COMM_PHASES and not span.instant:
                table[span.phase] = table.get(span.phase, 0) + ns
                rank_ns += ns
    host = tracer.host.spans
    for span, ns in zip(host, _self_wall_ns(host)):
        phase = RENDEZVOUS if span.phase == "launch" else span.phase
        table[phase] = table.get(phase, 0) + ns
    if RENDEZVOUS in table:
        table[RENDEZVOUS] -= rank_ns
    return {phase: ns * 1e-9 for phase, ns in sorted(table.items(), key=lambda kv: -kv[1])}

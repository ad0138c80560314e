"""Performance-regression gate over run reports.

:func:`compare_reports` diffs two :func:`~repro.obs.export.run_report`
dicts metric by metric; :func:`perf_diff` is the file-based entry point
behind ``repro-bench perf-diff a.json b.json --threshold 0.05``.

Gating metrics (``time.total`` and ``gteps``) fail the diff when the
candidate regresses beyond the threshold; everything else — comm/comp
split, per-phase critical-path times, wire volumes, fault/retry/restore
accounting — is reported for attribution but does not gate, so a net
win that shifts time between phases doesn't trip the gate.  Simulated
runs are deterministic, so a self-comparison is exactly zero-delta and
the gate can be tight.

Fault-injected runs pay modeled recovery overhead (retry backoff,
checkpoint traffic, replayed levels), so when the two reports have
*different* recovery profiles the time metrics compare apples to
oranges: the gate is downgraded to informational with a note, instead
of failing a correctly-recovered run against a fault-free baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

#: Default allowed relative slowdown before the gate fails.
DEFAULT_THRESHOLD = 0.05

#: Metrics whose regression fails the gate.  ``time.total`` regresses
#: upward, ``gteps`` and query throughput downward (flagged by
#: ``_LOWER_IS_WORSE``).  A metric absent from either report never
#: gates, so BFS reports are unaffected by the query gate.
GATED_METRICS = ("time.total", "gteps", "query.queries_per_second")

#: Informational metrics: shown in the diff, never gate.
INFO_METRICS = ("time.comm", "time.comp")

_LOWER_IS_WORSE = frozenset({"gteps", "query.queries_per_second"})


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline/candidate values and relative change.

    ``rel_change`` is signed so that positive always means *worse*
    (slower, or lower throughput); ``None`` when the baseline is zero or
    either side is missing.
    """

    name: str
    baseline: float | None
    candidate: float | None
    rel_change: float | None
    gated: bool

    @property
    def regressed_beyond(self) -> float | None:
        return self.rel_change


def _flatten_metrics(report: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    times = report.get("time") or {}
    for key in ("total", "comm", "comp"):
        value = times.get(key)
        if value is not None:
            out[f"time.{key}"] = float(value)
    if report.get("gteps") is not None:
        out["gteps"] = float(report["gteps"])
    for phase, seconds in (report.get("phases") or {}).items():
        out[f"phase.{phase}"] = float(seconds)
    comm = report.get("comm") or {}
    for key in ("total_wire_words", "total_payload_words"):
        if comm.get(key) is not None:
            out[f"comm.{key}"] = float(comm[key])
    faults = report.get("faults") or {}
    if faults:
        out["faults.attempts"] = float(faults.get("attempts") or 0)
        out["faults.restores"] = float(len(faults.get("restores") or ()))
        for key, value in (faults.get("counters") or {}).items():
            out[f"faults.{key}"] = float(value)
    query = report.get("query") or {}
    for key in ("queries_per_second", "batch"):
        if query.get(key) is not None:
            out[f"query.{key}"] = float(query[key])
    return out


def _recovery_profile(report: dict):
    """What the run survived: ``None`` for an effectively fault-free run.

    Two reports with equal profiles are comparable wall-clock to
    wall-clock; unequal profiles mean one run paid recovery overhead the
    other didn't, so the time gate would be spurious.
    """
    faults = report.get("faults") or {}
    counters = faults.get("counters") or {}
    profile = (
        int(faults.get("attempts") or 1),
        len(faults.get("restores") or ()),
        float(counters.get("fault_retries") or 0.0),
        float(counters.get("fault_delays") or 0.0),
    )
    return None if profile == (1, 0, 0.0, 0.0) else profile


@dataclass
class PerfDiff:
    """Result of comparing a candidate run report against a baseline."""

    baseline: str
    candidate: str
    threshold: float
    deltas: list[MetricDelta]
    #: Diagnostics about the comparison itself (e.g. the time gate being
    #: downgraded because the runs' recovery profiles differ).
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [
            d
            for d in self.deltas
            if d.gated and d.rel_change is not None and d.rel_change > self.threshold
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Human-readable diff table plus the verdict line."""
        lines = [
            f"perf-diff: {self.baseline} (baseline) vs {self.candidate} "
            f"(candidate), threshold {self.threshold:.1%}"
        ]
        header = f"{'metric':<28} {'baseline':>12} {'candidate':>12} {'change':>9}  gate"
        lines.append(header)
        lines.append("-" * len(header))
        for d in self.deltas:
            base = f"{d.baseline:.6g}" if d.baseline is not None else "-"
            cand = f"{d.candidate:.6g}" if d.candidate is not None else "-"
            if d.rel_change is None:
                change = "-"
            else:
                # Undo the worse-is-positive normalization for display.
                raw = -d.rel_change if d.name in _LOWER_IS_WORSE else d.rel_change
                change = f"{raw:+.2%}"
            flag = ""
            if d.gated:
                flag = (
                    "FAIL"
                    if d.rel_change is not None and d.rel_change > self.threshold
                    else "ok"
                )
            lines.append(f"{d.name:<28} {base:>12} {cand:>12} {change:>9}  {flag}")
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.ok:
            lines.append("PASS: no gated metric regressed beyond the threshold")
        else:
            worst = max(self.regressions, key=lambda d: d.rel_change)
            lines.append(
                f"FAIL: {len(self.regressions)} gated metric(s) regressed; "
                f"worst is {worst.name} at +{worst.rel_change:.2%} "
                f"(threshold {self.threshold:.1%})"
            )
        return "\n".join(lines)


def compare_reports(
    baseline: dict,
    candidate: dict,
    threshold: float = DEFAULT_THRESHOLD,
    baseline_name: str = "baseline",
    candidate_name: str = "candidate",
) -> PerfDiff:
    """Diff two run reports; gated metrics beyond ``threshold`` fail.

    ``threshold`` is the allowed relative slowdown (0.05 = 5%).  Metrics
    missing from either report, or with a zero baseline, are shown but
    never gate.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    a = _flatten_metrics(baseline)
    b = _flatten_metrics(candidate)
    notes: list[str] = []
    profile_a = _recovery_profile(baseline)
    profile_b = _recovery_profile(candidate)
    comparable = profile_a == profile_b
    if not comparable:
        notes.append(
            "recovery profiles differ (baseline "
            f"{profile_a or 'fault-free'}, candidate {profile_b or 'fault-free'}); "
            "time.total/gteps shown informationally, not gated"
        )
    deltas: list[MetricDelta] = []
    ordered = list(GATED_METRICS) + list(INFO_METRICS)
    ordered += sorted(k for k in (set(a) | set(b)) if k not in ordered)
    for name in ordered:
        va, vb = a.get(name), b.get(name)
        rel = None
        if va is not None and vb is not None and va != 0:
            rel = (vb - va) / abs(va)
            if name in _LOWER_IS_WORSE:
                rel = -rel
        gated = name in GATED_METRICS and rel is not None and comparable
        if va is None and vb is None:
            continue
        deltas.append(MetricDelta(name, va, vb, rel, gated))
    return PerfDiff(
        baseline=baseline_name,
        candidate=candidate_name,
        threshold=threshold,
        deltas=deltas,
        notes=notes,
    )


def resolve_baseline(path: str | Path) -> Path:
    """Resolve a baseline argument to one concrete report file.

    Accepts a report file, a directory holding committed ``BENCH_*.json``
    baselines, or a glob pattern; directories and globs pick the
    lexicographically **latest** match, so date- or sequence-stamped
    baseline names (``BENCH_2026-08-08.json``, ``BENCH_pr9.json``) roll
    forward automatically.  Filename order is used instead of mtime
    because git checkouts do not preserve modification times.
    """
    path = Path(path)
    if path.is_file():
        return path
    if path.is_dir():
        matches = sorted(path.glob("BENCH_*.json"))
        if not matches:
            raise FileNotFoundError(f"{path}: no BENCH_*.json baselines")
        return matches[-1]
    matches = sorted(path.parent.glob(path.name))
    if not matches:
        raise FileNotFoundError(f"{path}: no baseline file, directory or match")
    return matches[-1]


def perf_diff(
    baseline_path: str | Path,
    candidate_path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> PerfDiff:
    """Load two run-report files and compare them.

    ``baseline_path`` may also be a directory or glob of ``BENCH_*.json``
    baselines; the latest match (filename order) is used — see
    :func:`resolve_baseline`.
    """
    from repro.obs.export import load_run_report

    baseline_path = resolve_baseline(baseline_path)
    baseline = load_run_report(baseline_path)
    candidate = load_run_report(candidate_path)
    return compare_reports(
        baseline,
        candidate,
        threshold=threshold,
        baseline_name=str(baseline_path),
        candidate_name=str(candidate_path),
    )

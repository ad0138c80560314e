"""The performance gate over run reports: one analyzer, two spellings.

Every run report (:func:`~repro.obs.export.run_report`) is one point of
a per-metric series, ordered by filename (git checkouts do not preserve
mtimes, so date- or PR-stamped ``BENCH_*.json`` names are the ordering
contract).  Per metric the analyzer derives a sparkline trend; for the
gated metrics (``time.total``, ``gteps``, query throughput) a verdict
comparing the newest point against the *median* of the preceding ones,
so one noisy historical point cannot drag the reference the way a mean
would; and **changepoints** — consecutive-point jumps beyond the
threshold, which localize *when* a metric moved.  Everything else
(comm/comp split, per-phase times, wire volumes, fault accounting) is
shown for attribution but never gates.

``repro-bench trajectory benchmarks/ --candidate fresh.json`` gates a
fresh report against a committed series; ``repro-bench perf-diff
base.json cand.json`` is the two-point case — the median of one point
is that point.  Both exit 0 on pass, 1 on regression, 2 on unusable
input.  Simulated runs are deterministic, so the gate can be tight.

Fault-injected runs pay modeled recovery overhead (retry backoff,
checkpoint traffic, replayed levels): when the newest point's recovery
profile differs from any reference point's, the gated metrics are shown
informationally with a note instead of failing a correctly-recovered run
against fault-free history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.obs.export import load_run_report

#: Default allowed relative slowdown before the gate fails.
DEFAULT_THRESHOLD = 0.05

#: Metrics whose regression fails the gate.  ``time.total`` regresses
#: upward, ``gteps`` and query throughput downward (flagged by
#: ``_LOWER_IS_WORSE``).  A metric the newest point lacks never gates,
#: so BFS reports are unaffected by the query gate.
GATED_METRICS = ("time.total", "gteps", "query.queries_per_second")

_LOWER_IS_WORSE = frozenset({"gteps", "query.queries_per_second"})

#: Sparkline glyphs, lowest to highest.
_SPARKS = "▁▂▃▄▅▆▇█"


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

    Two reports with equal profiles are comparable time to time; unequal
    profiles mean one run paid recovery overhead the other didn't, so
    the time gate would be spurious.
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


def _sparkline(values: list[float]) -> str:
    """Render a series as one unicode sparkline character per point."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARKS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int((v - lo) / span * len(_SPARKS)))]
        for v in values
    )


def _worse(name: str, prev: float, curr: float) -> float | None:
    """Signed relative change, normalized so positive means *worse*."""
    if prev == 0:
        return None
    rel = (curr - prev) / abs(prev)
    return -rel if name in _LOWER_IS_WORSE else rel


@dataclass(frozen=True)
class MetricTrend:
    """One metric's history across the run-report series."""

    metric: str
    #: ``(point label, value)`` pairs in series order.
    points: list[tuple[str, float]]
    #: Whether this metric judged the newest point: a gated metric the
    #: newest point carries, with a reference, between runs of one
    #: recovery profile.
    gated: bool
    #: Median of all points before the latest (``None`` with <2 points).
    reference: float | None
    #: Latest-vs-reference change, positive = worse; ``None`` if not
    #: computable (short series, zero reference, or the newest point
    #: lacks the metric).
    rel_change: float | None
    #: ``(point label, worse-positive jump)`` for every consecutive-point
    #: move beyond the threshold, newest last.
    changepoints: list[tuple[str, float]]

    @property
    def latest(self) -> float:
        return self.points[-1][1]

    @property
    def sparkline(self) -> str:
        return _sparkline([v for _, v in self.points])


def _trend(
    name: str,
    points: list[tuple[str, float]],
    in_newest: bool,
    threshold: float,
    comparable: bool,
) -> MetricTrend:
    values = [v for _, v in points]
    reference = median(values[:-1]) if len(values) >= 2 else None
    rel = None
    if reference is not None and in_newest:
        rel = _worse(name, reference, values[-1])
    changepoints = []
    for (_, prev), (label, curr) in zip(points, points[1:]):
        jump = _worse(name, prev, curr)
        if jump is not None and abs(jump) > threshold:
            changepoints.append((label, jump))
    return MetricTrend(
        metric=name,
        points=points,
        gated=name in GATED_METRICS and rel is not None and comparable,
        reference=reference,
        rel_change=rel,
        changepoints=changepoints,
    )


@dataclass
class Trajectory:
    """The analyzed series: per-metric trends plus the gate verdict."""

    #: Point labels (report filename stems) in series order.
    names: list[str]
    trends: list[MetricTrend]
    threshold: float
    #: Diagnostics about the analysis itself (e.g. the gate being
    #: downgraded because the runs' recovery profiles differ).
    notes: list[str] = field(default_factory=list)

    def _failed(self, t: MetricTrend) -> bool:
        return t.gated and t.rel_change > self.threshold

    @property
    def regressions(self) -> list[MetricTrend]:
        return [t for t in self.trends if self._failed(t)]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def trend(self, metric: str) -> MetricTrend | None:
        return next((t for t in self.trends if t.metric == metric), None)

    def _verdict(self) -> str:
        if self.ok:
            return (
                "PASS: latest point is on the trajectory "
                f"(no gated metric beyond {self.threshold:.1%} of its median)"
            )
        worst = max(self.regressions, key=lambda t: t.rel_change)
        return (
            f"FAIL: {len(self.regressions)} gated metric(s) off the "
            f"trajectory; worst is {worst.metric} at +{worst.rel_change:.2%} "
            f"vs median (threshold {self.threshold:.1%})"
        )

    def _cells(self):
        """The one row model every renderer formats: per trend
        ``(metric, sparkline, median, latest, change, gate)``, with
        ``None`` for a missing number and gate ``"FAIL"``/``"ok"``/``"info"``."""
        for t in self.trends:
            change = None
            if t.rel_change is not None:
                # Undo the worse-is-positive normalization for display.
                raw = -t.rel_change if t.metric in _LOWER_IS_WORSE else t.rel_change
                change = f"{raw:+.2%}"
            ref = None if t.reference is None else f"{t.reference:.6g}"
            flag = ("FAIL" if self._failed(t) else "ok") if t.gated else "info"
            yield t.metric, t.sparkline, ref, f"{t.latest:.6g}", change, flag

    def _changepoint_lines(self, fmt: str) -> list[str]:
        return [
            fmt.format(
                metric=t.metric,
                direction="worsened" if jump > 0 else "improved",
                jump=abs(jump),
                label=label,
            )
            for t in self.trends
            for label, jump in t.changepoints
        ]

    def render(self) -> str:
        """Plain-text table plus changepoints, notes and the verdict line."""
        lines = [
            f"perf trajectory: {len(self.names)} points "
            f"({self.names[0]} .. {self.names[-1]}), "
            f"threshold {self.threshold:.1%}"
        ]
        header = (
            f"{'metric':<28} {'trend':<12} {'median':>12} {'latest':>12} "
            f"{'change':>9}  gate"
        )
        lines += [header, "-" * len(header)]
        for metric, spark, ref, latest, change, flag in self._cells():
            lines.append(
                f"{metric:<28} {spark:<12} {ref or '-':>12} {latest:>12} "
                f"{change or '-':>9}  {flag}"
            )
        lines += self._changepoint_lines(
            "changepoint: {metric} {direction} {jump:.2%} at {label}"
        )
        lines += [f"note: {note}" for note in self.notes]
        lines.append(self._verdict())
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavored markdown dashboard (CI job summary artifact)."""
        lines = [
            "# Performance trajectory",
            "",
            f"{len(self.names)} points: `{self.names[0]}` → `{self.names[-1]}`, "
            f"gate threshold {self.threshold:.1%}.",
            "",
            "| metric | trend | median | latest | change | gate |",
            "| --- | --- | ---: | ---: | ---: | --- |",
        ]
        for metric, spark, ref, latest, change, flag in self._cells():
            flag = "**FAIL**" if flag == "FAIL" else flag
            lines.append(
                f"| `{metric}` | `{spark}` | {ref or '—'} | {latest} | "
                f"{change or '—'} | {flag} |"
            )
        changepoints = self._changepoint_lines(
            "- `{metric}` {direction} {jump:.2%} at `{label}`"
        )
        if changepoints:
            lines += ["", "## Changepoints", "", *changepoints]
        if self.notes:
            lines += ["", *(f"- note: {note}" for note in self.notes)]
        lines += ["", f"**{self._verdict()}**", ""]
        return "\n".join(lines)

    def render_html(self) -> str:
        """Self-contained HTML dashboard (no external assets)."""
        rows = "".join(
            f"<tr class='{flag.lower()}'><td><code>{metric}</code></td>"
            f"<td class='spark'>{spark}</td><td>{ref or '&mdash;'}</td>"
            f"<td>{latest}</td><td>{change or '&mdash;'}</td><td>{flag}</td></tr>"
            for metric, spark, ref, latest, change, flag in self._cells()
        )
        verdict_cls = "ok" if self.ok else "fail"
        points = " &rarr; ".join(f"<code>{n}</code>" for n in self.names)
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>Performance trajectory</title><style>"
            "body{font-family:sans-serif;margin:2em}"
            "table{border-collapse:collapse}"
            "td,th{border:1px solid #ccc;padding:4px 10px;text-align:right}"
            "td:first-child,th:first-child{text-align:left}"
            ".spark{font-family:monospace;letter-spacing:1px}"
            "tr.fail td{background:#fdd}"
            ".verdict.ok{color:#070}.verdict.fail{color:#a00}"
            "</style></head><body>"
            "<h1>Performance trajectory</h1>"
            f"<p>{len(self.names)} points: {points}; "
            f"gate threshold {self.threshold:.1%}.</p>"
            "<table><tr><th>metric</th><th>trend</th><th>median</th>"
            "<th>latest</th><th>change</th><th>gate</th></tr>"
            + rows
            + "</table>"
            + "".join(f"<p>note: {note}</p>" for note in self.notes)
            + f"<p class='verdict {verdict_cls}'><b>{self._verdict()}</b></p>"
            "</body></html>\n"
        )


def resolve_series(paths) -> list[Path]:
    """Expand baseline arguments into the ordered report-file series.

    Each element may be a file, a directory (expands to its sorted
    ``BENCH_*.json``) or a glob pattern; the combined list keeps the
    given order, de-duplicated, so mixing a directory with an explicit
    candidate file works naturally.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    series: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            matches = [path]
        elif path.is_dir():
            matches = sorted(path.glob("BENCH_*.json"))
        else:
            matches = sorted(path.parent.glob(path.name))
        if not matches:
            raise FileNotFoundError(f"{raw}: no run reports (BENCH_*.json) found")
        for match in matches:
            if match not in series:
                series.append(match)
    return series


def analyze_reports(
    named_reports: list[tuple[str, dict]],
    threshold: float = DEFAULT_THRESHOLD,
) -> Trajectory:
    """Build the trajectory from ``(label, run-report dict)`` pairs,
    oldest first; the last pair is the point the gate judges."""
    if not named_reports:
        raise ValueError("empty report series")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    names = [name for name, _ in named_reports]
    notes = []
    *history, newest = [_recovery_profile(report) for _, report in named_reports]
    comparable = all(profile == newest for profile in history)
    if not comparable:
        seen = ", ".join(sorted({str(p or "fault-free") for p in history}))
        notes.append(
            f"recovery profiles differ (reference {seen}, latest "
            f"{newest or 'fault-free'}); gated metrics shown informationally, "
            "not gated"
        )
    flat = [(name, _flatten_metrics(report)) for name, report in named_reports]
    metrics = {key for _, values in flat for key in values}
    ordered = [m for m in GATED_METRICS if m in metrics]
    ordered += sorted(metrics - set(ordered))
    trends = []
    for name in ordered:
        points = [(label, values[name]) for label, values in flat if name in values]
        if len(points) < len(flat) and name in GATED_METRICS:
            notes.append(
                f"{name} is missing from {len(flat) - len(points)} point(s); "
                "its trend uses only the points that carry it"
            )
        in_newest = name in flat[-1][1]
        trends.append(_trend(name, points, in_newest, threshold, comparable))
    if len(named_reports) == 1:
        notes.append("single point: no reference to gate against")
    return Trajectory(names=names, trends=trends, threshold=threshold, notes=notes)


def _analyze_files(paths: list[Path], threshold: float) -> Trajectory:
    named = [(path.stem, load_run_report(path)) for path in paths]
    return analyze_reports(named, threshold=threshold)


def analyze_trajectory(
    paths,
    candidate: str | Path | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> Trajectory:
    """Load and analyze a series of run-report files.

    ``paths`` is a file/directory/glob (or a list of them) of committed
    baselines, ordered by filename; ``candidate`` — a fresh report — is
    appended as the newest point and is what the gate judges.
    """
    series = resolve_series(paths)
    if candidate is not None:
        candidate = Path(candidate)
        series = [p for p in series if p.resolve() != candidate.resolve()]
        series.append(candidate)
    return _analyze_files(series, threshold)


def perf_diff(
    baseline_path: str | Path,
    candidate_path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> Trajectory:
    """Gate one candidate report file against one baseline: the
    two-point trajectory.

    ``baseline_path`` may also be a directory or glob of ``BENCH_*.json``
    baselines; only the latest match (filename order) is used, so
    date- or sequence-stamped names roll forward automatically.  The
    candidate is always its own point, even when it is the baseline file.
    """
    baseline = resolve_series(baseline_path)[-1]
    return _analyze_files([baseline, Path(candidate_path)], threshold)

"""Typed, labeled runtime metrics for simulated BFS runs.

A :class:`MetricsRegistry` collects numeric metrics — monotonic
**counters**, last-value **gauges**, and bucketed **histograms** — from
the instrumented subsystems: the
:class:`~repro.core.engine.TraversalEngine` (levels, frontier sizes,
candidates, active query lanes), the
:class:`~repro.comm.channel.CommChannel` (payload/wire words, codec
encodes, sieve probes/drops) and the :mod:`repro.query` steps
(lane-prune hit rates).

The design mirrors :class:`~repro.obs.tracer.Tracer` exactly:

* one :class:`RankMetrics` recording handle per simulated rank, obtained
  through :meth:`MetricsRegistry.for_rank`, so the hot path never locks;
* metrics are **passive** — they never touch the virtual clocks, so a
  metered run is bit-identical (parents, clocks, spans, stats) to an
  unmetered one (``tests/test_obs_metrics.py`` asserts it per family);
* when no registry is installed the instrumented code paths go through
  the shared no-op :data:`NULL_RANK_METRICS` — zero state, zero charges.

Every sample may carry string **labels** (``kind="alltoallv"``,
``codec="raw"``, ``level=3``); a metric name is bound to exactly one
type on first use and re-use under a different type raises.  Read the
results back aggregated across ranks::

    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    result = repro.run_bfs(graph, src, "1d-dirop", nprocs=8,
                           machine="hopper", metrics=metrics)
    metrics.counter_value("comm_wire_words", kind="alltoallv")
    print(metrics.render_openmetrics())        # text exposition
    snapshot = metrics.snapshot()              # JSON-able dict

The counters reconcile *exactly* with the independently-derived
quantities of the run: ``comm_wire_words`` sums to
``result.stats.wire_words()``, ``engine_levels`` to the ranks' level
counts, and so on — the cross-check tests lock this in.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.obs.tracer import HOST_RANK

#: Metric type tags (the "typed" in typed metrics).
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram bucket upper bounds: one per decade across the
#: dynamic range of the quantities observed here (virtual seconds at the
#: small end, wire words at the large end).  A ``+Inf`` bucket is
#: implicit: every observation lands in some bucket.
DEFAULT_BUCKETS = tuple(10.0**e for e in range(-9, 10))

#: Schema tag stamped into :meth:`MetricsRegistry.snapshot`.
METRICS_SCHEMA = "repro.obs/metrics/v1"

#: Host wall-clock metrics: readable through the value accessors, but
#: kept out of :meth:`MetricsRegistry.snapshot` and the OpenMetrics text,
#: whose aggregates (and the reports embedding them) stay deterministic.
WALL_METRICS = frozenset({"wall_seconds"})


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set (values stringified)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Histogram:
    """One histogram series: cumulative bucket counts plus count/sum.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative storage; the exposition cumulates), with one
    overflow slot at the end for observations above every bound.
    """

    bounds: tuple = DEFAULT_BUCKETS
    bucket_counts: list = field(default_factory=list)
    count: int = 0
    sum: float = 0.0

    def __post_init__(self):
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }


class RankMetrics:
    """Per-rank recording handle (one per simulated rank, lock-free).

    Obtained through :meth:`MetricsRegistry.for_rank`; each simulated
    rank writes only to its own series maps, exactly like
    :class:`~repro.obs.tracer.RankTracer` and its span lists.
    """

    __slots__ = ("rank", "_registry", "counters", "gauges", "histograms")

    def __init__(self, rank: int, registry: "MetricsRegistry"):
        self.rank = rank
        self._registry = registry
        self.counters: dict[str, dict[tuple, float]] = {}
        self.gauges: dict[str, dict[tuple, float]] = {}
        self.histograms: dict[str, dict[tuple, Histogram]] = {}

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter series (must be non-negative)."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0: {value}")
        self._registry._bind(name, COUNTER)
        series = self.counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to its latest value."""
        self._registry._bind(name, GAUGE)
        self.gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram series."""
        self._registry._bind(name, HISTOGRAM)
        series = self.histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = Histogram(self._registry.buckets_for(name))
        hist.observe(value)


class NullRankMetrics:
    """Disabled per-rank handle: every call is a shared no-op."""

    __slots__ = ()

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels) -> None:
        return None

    def observe(self, name: str, value: float, **labels) -> None:
        return None


NULL_RANK_METRICS = NullRankMetrics()


class MetricsRegistry:
    """Run-wide metric collector: one :class:`RankMetrics` per rank.

    Pass one instance to ``run_bfs(..., metrics=registry)`` (or
    ``run_query``); after the run, read series back aggregated across
    ranks.  Like a tracer, a registry records exactly one run — call
    :meth:`reset` (or build a fresh one) before reusing it.
    """

    def __init__(self):
        self._ranks: dict[int, RankMetrics] = {}
        self._types: dict[str, str] = {}
        self._buckets: dict[str, tuple] = {}
        self._lock = threading.Lock()
        #: Series of the host, not of a simulated rank.
        self.host = RankMetrics(HOST_RANK, self)

    # -- recording side -----------------------------------------------------
    def for_rank(self, comm) -> RankMetrics:
        """The recording handle of ``comm``'s global rank (thread-safe).

        ``comm`` may be a communicator or a bare rank id — handy for
        tests and offline tooling that have no communicator in hand.
        """
        rank = comm if isinstance(comm, int) else comm.global_rank
        with self._lock:
            rm = self._ranks.get(rank)
            if rm is None:
                rm = RankMetrics(rank, self)
                self._ranks[rank] = rm
            return rm

    def declare_histogram(self, name: str, buckets) -> None:
        """Pre-bind a histogram's bucket bounds (before first observe)."""
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        with self._lock:
            self._bind(name, HISTOGRAM)
            existing = self._buckets.get(name)
            if existing is not None and existing != bounds:
                raise ValueError(
                    f"histogram {name!r} already declared with buckets {existing}"
                )
            self._buckets[name] = bounds

    def record_wall(self, table: dict[str, float]) -> None:
        """Set one host ``wall_seconds{layer=...}`` gauge per row of a
        :func:`~repro.obs.analysis.wall_table`."""
        for layer, seconds in table.items():
            self.host.set_gauge("wall_seconds", seconds, layer=layer)

    def buckets_for(self, name: str) -> tuple:
        return self._buckets.get(name, DEFAULT_BUCKETS)

    def _bind(self, name: str, mtype: str) -> None:
        """Bind ``name`` to one metric type; conflicting re-use raises."""
        bound = self._types.get(name)
        if bound is None:
            self._types[name] = mtype
        elif bound != mtype:
            raise TypeError(
                f"metric {name!r} is a {bound}, not a {mtype}; "
                "one name maps to one type"
            )

    # -- reading side -------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self._ranks)

    @property
    def ranks(self) -> list[int]:
        return sorted(self._ranks)

    def names(self) -> dict[str, str]:
        """``{metric name: type}`` for everything recorded so far."""
        return dict(sorted(self._types.items()))

    def _series(self, kind: str, name: str) -> dict[tuple, list]:
        """``{label key: [(rank, value)...]}`` across ranks for one metric."""
        out: dict[tuple, list] = {}
        for rm in [self._ranks[rank] for rank in self.ranks] + [self.host]:
            store = getattr(rm, kind).get(name, {})
            for key, value in store.items():
                out.setdefault(key, []).append((rm.rank, value))
        return out

    def counter_value(self, name: str, rank: int | None = None, **labels) -> float:
        """A counter summed across ranks and matching label sets.

        With labels given, only series carrying *all* of them (exact
        values) contribute; without labels, every series of the name
        contributes — so ``counter_value("comm_wire_words")`` is the
        run-wide total and ``counter_value("comm_wire_words",
        kind="alltoallv")`` one collective's share.  ``rank`` restricts
        the sum to one rank's contributions.
        """
        want = dict(_label_key(labels))
        total = 0.0
        for key, pairs in self._series("counters", name).items():
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                total += sum(v for r, v in pairs if rank is None or r == rank)
        return total

    def gauge_value(self, name: str, rank: int | None = None, **labels) -> float | None:
        """A gauge's value: max across ranks and matching label sets.

        Label matching is a subset test like :meth:`counter_value`; pass
        ``rank`` to read one rank's view only.
        """
        want = dict(_label_key(labels))
        values = []
        for key, pairs in self._series("gauges", name).items():
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                values.extend(v for r, v in pairs if rank is None or r == rank)
        return max(values) if values else None

    def histogram_value(self, name: str, **labels) -> Histogram | None:
        """A histogram merged across ranks for one exact label set."""
        key = _label_key(labels)
        merged: Histogram | None = None
        for _rank, hist in self._series("histograms", name).get(key, []):
            if merged is None:
                merged = Histogram(hist.bounds)
            merged.merge(hist)
        return merged

    def label_sets(self, name: str) -> list[dict]:
        """Every label combination recorded for one metric name."""
        mtype = self._types.get(name)
        if mtype is None:
            return []
        kind = {COUNTER: "counters", GAUGE: "gauges", HISTOGRAM: "histograms"}[mtype]
        return [dict(key) for key in sorted(self._series(kind, name))]

    def reset(self) -> None:
        """Drop all recorded series so the registry can meter another run."""
        with self._lock:
            self._ranks.clear()
            self._types.clear()
            self.host = RankMetrics(HOST_RANK, self)

    # -- exposition ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able aggregate of every metric (embedded in run reports).

        Counters are summed across ranks per label set; gauges keep the
        per-rank maximum (the straggler's view); histograms merge bucket
        counts.  Label sets render as sorted ``k=v`` strings so the
        snapshot is deterministic and diff-friendly.
        """
        metrics: dict[str, dict] = {}
        for name, mtype in sorted(self._types.items()):
            if name in WALL_METRICS:
                continue
            entry: dict = {"type": mtype, "series": {}}
            if mtype == COUNTER:
                for key, pairs in sorted(self._series("counters", name).items()):
                    entry["series"][_render_labels(key)] = sum(v for _, v in pairs)
            elif mtype == GAUGE:
                for key, pairs in sorted(self._series("gauges", name).items()):
                    entry["series"][_render_labels(key)] = max(v for _, v in pairs)
            else:
                for key, pairs in sorted(self._series("histograms", name).items()):
                    merged = Histogram(pairs[0][1].bounds)
                    for _rank, hist in pairs:
                        merged.merge(hist)
                    entry["series"][_render_labels(key)] = merged.as_dict()
            metrics[name] = entry
        return {"schema": METRICS_SCHEMA, "nranks": self.nranks, "metrics": metrics}

    def render_openmetrics(self) -> str:
        """OpenMetrics-style text exposition of the aggregated metrics.

        One ``# TYPE`` line per metric, then one sample per label set;
        histograms expose cumulative ``_bucket{le=...}`` samples plus
        ``_count``/``_sum``, following the Prometheus text format.  Rank
        aggregation matches :meth:`snapshot`.
        """
        lines: list[str] = []
        for name, mtype in sorted(self._types.items()):
            if name in WALL_METRICS:
                continue
            lines.append(f"# TYPE {name} {mtype}")
            if mtype == COUNTER:
                for key, pairs in sorted(self._series("counters", name).items()):
                    total = sum(v for _, v in pairs)
                    lines.append(f"{name}{_openmetrics_labels(key)} {total:g}")
            elif mtype == GAUGE:
                for key, pairs in sorted(self._series("gauges", name).items()):
                    value = max(v for _, v in pairs)
                    lines.append(f"{name}{_openmetrics_labels(key)} {value:g}")
            else:
                for key, pairs in sorted(self._series("histograms", name).items()):
                    merged = Histogram(pairs[0][1].bounds)
                    for _rank, hist in pairs:
                        merged.merge(hist)
                    cumulative = 0
                    for bound, count in zip(merged.bounds, merged.bucket_counts):
                        cumulative += count
                        labels = _openmetrics_labels(key + (("le", f"{bound:g}"),))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _openmetrics_labels(key + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {merged.count}")
                    suffix = _openmetrics_labels(key)
                    lines.append(f"{name}_count{suffix} {merged.count}")
                    lines.append(f"{name}_sum{suffix} {merged.sum:g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _render_labels(key: tuple) -> str:
    """Snapshot series key: ``"kind=alltoallv,level=3"`` ("" when bare)."""
    return ",".join(f"{k}={v}" for k, v in key)


def _openmetrics_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class NullMetrics:
    """Drop-in disabled registry (what ``metrics=None`` resolves to)."""

    def for_rank(self, comm) -> NullRankMetrics:
        return NULL_RANK_METRICS


NULL_METRICS = NullMetrics()


def resolve_metrics(metrics) -> MetricsRegistry | NullMetrics:
    """Normalize a ``metrics`` argument: ``None`` means the null registry."""
    return metrics if metrics is not None else NULL_METRICS

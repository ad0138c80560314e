"""Communication statistics for simulated SPMD runs.

Volumes are counted in *words* (array elements; the paper's model counts
64-bit memory words) and are exact: they are derived from the actual NumPy
buffers handed to the collectives, not from a model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.mpsim.clock import RankClock


@dataclass
class RankStats:
    """Per-rank communication record.

    ``words_sent``/``words_recv`` and ``calls`` are keyed by collective
    kind (``"alltoallv"``, ``"allgatherv"``, ``"allreduce"``, ...).
    """

    words_sent: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    words_recv: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    mpi_time_by_kind: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Logical (pre-codec) words per kind, reported by the comm channel.
    #: ``words_sent`` holds the *wire* (post-codec) size of the same
    #: exchanges, since the collectives see the encoded buffers.
    payload_words: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Post-codec words per kind for channel-routed exchanges only (a
    #: subset of ``words_sent``, which also counts control collectives).
    wire_words: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: ``{level: {kind: words}}`` breakdowns for channel-routed exchanges.
    level_payload: dict[int, dict[str, float]] = field(default_factory=dict)
    level_wire: dict[int, dict[str, float]] = field(default_factory=dict)
    #: Candidates dropped by the sender-side sieve before encoding.
    sieve_dropped: float = 0.0
    #: Words sent per destination *global* rank (populated only when the
    #: run was launched with ``record_peers=True``).
    peer_words: dict[int, float] = field(default_factory=lambda: defaultdict(float))

    def record(
        self,
        kind: str,
        sent_words: float,
        recv_words: float,
        mpi_seconds: float,
    ) -> None:
        self.words_sent[kind] += sent_words
        self.words_recv[kind] += recv_words
        self.calls[kind] += 1
        self.mpi_time_by_kind[kind] += mpi_seconds

    def record_channel(
        self,
        kind: str,
        payload_words: float,
        wire_words: float,
        level: int | None = None,
        dropped: float = 0.0,
    ) -> None:
        """Record one channel exchange's logical vs wire volume.

        Called by :class:`repro.comm.channel.CommChannel` alongside the
        collective itself (which books the wire words into
        ``words_sent``); keeps the self-exclusion convention of the
        underlying collective kind.
        """
        self.payload_words[kind] += payload_words
        self.wire_words[kind] += wire_words
        self.sieve_dropped += dropped
        if level is not None:
            level = int(level)
            by_kind = self.level_payload.setdefault(level, defaultdict(float))
            by_kind[kind] += payload_words
            by_kind = self.level_wire.setdefault(level, defaultdict(float))
            by_kind[kind] += wire_words

    @property
    def total_words_sent(self) -> float:
        return float(sum(self.words_sent.values()))

    @property
    def total_words_recv(self) -> float:
        return float(sum(self.words_recv.values()))


@dataclass
class SimStats:
    """Aggregated statistics of one SPMD run (all ranks)."""

    clocks: list[RankClock]
    comm: list[RankStats]

    @property
    def nranks(self) -> int:
        return len(self.clocks)

    @property
    def makespan(self) -> float:
        """Virtual wall-clock of the run: the slowest rank's finish time."""
        return max((c.time for c in self.clocks), default=0.0)

    @property
    def max_compute_time(self) -> float:
        return max((c.compute_time for c in self.clocks), default=0.0)

    @property
    def max_mpi_time(self) -> float:
        return max((c.mpi_time for c in self.clocks), default=0.0)

    @property
    def mean_mpi_time(self) -> float:
        if not self.clocks:
            return 0.0
        return sum(c.mpi_time for c in self.clocks) / len(self.clocks)

    def mpi_fraction(self, rank: int) -> float:
        """Fraction of a rank's virtual time spent in MPI (Fig. 4 metric)."""
        clock = self.clocks[rank]
        if clock.time <= 0:
            return 0.0
        return clock.mpi_time / clock.time

    def words_sent(self, kind: str | None = None) -> float:
        """Total words sent across all ranks (optionally one collective kind)."""
        if kind is None:
            return float(sum(r.total_words_sent for r in self.comm))
        return float(sum(r.words_sent.get(kind, 0.0) for r in self.comm))

    def words_recv(self, kind: str | None = None) -> float:
        if kind is None:
            return float(sum(r.total_words_recv for r in self.comm))
        return float(sum(r.words_recv.get(kind, 0.0) for r in self.comm))

    def payload_words(self, kind: str | None = None) -> float:
        """Logical (pre-codec) words of channel-routed exchanges."""
        if kind is None:
            return float(sum(sum(r.payload_words.values()) for r in self.comm))
        return float(sum(r.payload_words.get(kind, 0.0) for r in self.comm))

    def wire_words(self, kind: str | None = None) -> float:
        """Post-codec words of channel-routed exchanges (what beta_N prices)."""
        if kind is None:
            return float(sum(sum(r.wire_words.values()) for r in self.comm))
        return float(sum(r.wire_words.get(kind, 0.0) for r in self.comm))

    def compression_ratio(self, kind: str | None = None) -> float:
        """payload / wire over channel-routed exchanges (1.0 when untracked)."""
        wire = self.wire_words(kind)
        if wire <= 0:
            return 1.0
        return self.payload_words(kind) / wire

    @property
    def sieve_dropped(self) -> float:
        """Candidates dropped by the sender-side sieve, summed over ranks."""
        return float(sum(r.sieve_dropped for r in self.comm))

    def words_by_kind(self) -> dict[str, float]:
        """Total words sent per collective kind, across all ranks."""
        totals: dict[str, float] = {}
        for rank_stats in self.comm:
            for kind, words in rank_stats.words_sent.items():
                totals[kind] = totals.get(kind, 0.0) + words
        return dict(sorted(totals.items()))

    def payload_by_kind(self) -> dict[str, float]:
        """Logical words per kind for channel-routed exchanges."""
        totals: dict[str, float] = {}
        for rank_stats in self.comm:
            for kind, words in rank_stats.payload_words.items():
                totals[kind] = totals.get(kind, 0.0) + words
        return dict(sorted(totals.items()))

    def words_by_level(self) -> dict[int, dict[str, float]]:
        """``{level: {kind: wire words}}`` for channel-routed exchanges."""
        totals: dict[int, dict[str, float]] = {}
        for rank_stats in self.comm:
            for level, by_kind in rank_stats.level_wire.items():
                level_totals = totals.setdefault(level, {})
                for kind, words in by_kind.items():
                    level_totals[kind] = level_totals.get(kind, 0.0) + words
        return {level: totals[level] for level in sorted(totals)}

    def payload_by_level(self) -> dict[int, dict[str, float]]:
        """``{level: {kind: logical words}}`` for channel-routed exchanges."""
        totals: dict[int, dict[str, float]] = {}
        for rank_stats in self.comm:
            for level, by_kind in rank_stats.level_payload.items():
                level_totals = totals.setdefault(level, {})
                for kind, words in by_kind.items():
                    level_totals[kind] = level_totals.get(kind, 0.0) + words
        return {level: totals[level] for level in sorted(totals)}

    def calls(self, kind: str) -> int:
        """Maximum number of calls of ``kind`` made by any rank."""
        return max((r.calls.get(kind, 0) for r in self.comm), default=0)

    def mpi_time_by_kind(self, kind: str) -> float:
        """Max-over-ranks MPI seconds attributed to one collective kind."""
        return max((r.mpi_time_by_kind.get(kind, 0.0) for r in self.comm), default=0.0)

    def counter(self, name: str) -> float:
        """Sum of a named operation counter across ranks."""
        return float(sum(c.counters.get(name, 0.0) for c in self.clocks))

    def comm_matrix(self):
        """Rank-to-rank traffic matrix: ``M[i, j]`` = words ``i`` sent ``j``.

        Requires the run to have been launched with ``record_peers=True``
        (otherwise the matrix is all zeros).  Self-traffic is excluded by
        construction.
        """
        import numpy as np

        matrix = np.zeros((self.nranks, self.nranks))
        for src, rank_stats in enumerate(self.comm):
            for dst, words in rank_stats.peer_words.items():
                matrix[src, dst] = words
        return matrix

    def summary(self) -> dict:
        """Scalar run summary plus per-kind/per-level word breakdowns.

        ``total_words_sent`` counts what actually crossed the simulated
        wire (post-codec); ``total_payload_words`` is the logical volume
        of the channel-routed exchanges, so their ratio is the run's
        compression factor.
        """
        return {
            "nranks": self.nranks,
            "makespan": self.makespan,
            "max_compute_time": self.max_compute_time,
            "max_mpi_time": self.max_mpi_time,
            "mean_mpi_time": self.mean_mpi_time,
            "total_words_sent": self.words_sent(),
            "total_payload_words": self.payload_words(),
            "total_wire_words": self.wire_words(),
            "compression_ratio": self.compression_ratio(),
            "sieve_dropped_candidates": self.sieve_dropped,
            "words_by_kind": self.words_by_kind(),
            "payload_by_kind": self.payload_by_kind(),
            "words_by_level": self.words_by_level(),
        }

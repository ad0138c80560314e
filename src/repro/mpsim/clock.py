"""Per-rank virtual clocks.

Each simulated rank owns a :class:`RankClock`.  Local work advances the
clock through :meth:`RankClock.charge_compute`; collectives advance it to
the (virtual) completion time of the operation and split the elapsed span
into *transfer* (the modeled cost of moving bytes) and *wait* (idling for
slower ranks), mirroring how the paper attributes "time spent in MPI
calls" including synchronization waits (Section 6, Figure 4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class RankClock:
    """Virtual clock and operation counters for one simulated rank.

    Attributes
    ----------
    time:
        Current virtual time in seconds.
    compute_time:
        Cumulative seconds charged to local computation.
    mpi_transfer_time:
        Cumulative seconds charged to actually moving data in collectives.
    mpi_wait_time:
        Cumulative seconds spent waiting at collectives for other ranks.
    counters:
        Free-form operation counters (edges examined, words streamed, ...),
        recorded even when no cost model is installed.
    """

    time: float = 0.0
    compute_time: float = 0.0
    mpi_transfer_time: float = 0.0
    mpi_wait_time: float = 0.0
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def mpi_time(self) -> float:
        """Total seconds attributed to MPI (transfer + wait)."""
        return self.mpi_transfer_time + self.mpi_wait_time

    def charge_compute(self, seconds: float, **counters: float) -> None:
        """Advance the clock by ``seconds`` of local computation.

        Extra keyword arguments are accumulated into :attr:`counters`.
        """
        if seconds < 0:
            raise ValueError(f"negative compute charge: {seconds}")
        self.time += seconds
        self.compute_time += seconds
        for key, value in counters.items():
            self.counters[key] += value

    def count(self, **counters: float) -> None:
        """Accumulate operation counters without advancing the clock."""
        for key, value in counters.items():
            self.counters[key] += value

    def complete_collective(self, completion_time: float, transfer_cost: float) -> None:
        """Advance the clock to a collective's completion time.

        Parameters
        ----------
        completion_time:
            Virtual time at which the collective finishes for this rank.
        transfer_cost:
            The modeled data-movement cost; the remainder of the elapsed
            span is attributed to waiting.
        """
        elapsed = completion_time - self.time
        if elapsed < -1e-12:
            raise ValueError(
                f"collective completes before arrival: {completion_time} < {self.time}"
            )
        elapsed = max(elapsed, 0.0)
        transfer = min(transfer_cost, elapsed)
        self.mpi_transfer_time += transfer
        self.mpi_wait_time += elapsed - transfer
        self.time = completion_time

    def snapshot(self) -> dict[str, float]:
        """Return a plain-dict summary (useful for reports and tests)."""
        return {
            "time": self.time,
            "compute_time": self.compute_time,
            "mpi_transfer_time": self.mpi_transfer_time,
            "mpi_wait_time": self.mpi_wait_time,
            "mpi_time": self.mpi_time,
        }

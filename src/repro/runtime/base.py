"""Shared substrate pieces every execution backend is built from.

The classes here are backend-neutral: the failure/teardown exceptions,
the collective cost-model interface, the per-run result container, and
:class:`EngineBase` — the state every engine owns regardless of how it
schedules rank bodies (virtual clocks, wire statistics, the group
registry).  Backend modules (:mod:`repro.runtime.threads`,
:mod:`repro.runtime.sequential`, :mod:`repro.runtime.processes`)
subclass :class:`EngineBase` and add their scheduling and rendezvous
machinery.

The two thread-hosted backends also share :func:`one_malloc_arena`:
glibc gives every new thread its own malloc arena, so a rank thread's
freed level temporaries could never serve the next rank, and a 16-rank
run's resident set grew to sixteen private heaps.  Capping the process
at one arena before the first rank thread starts makes peak memory the
live set.  The cap is process-wide and permanent: it holds for every
thread the host process starts afterwards, not only for rank threads.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # repro.mpsim re-exports this package: bind its types late
    from repro.mpsim.stats import SimStats

#: Default seconds a rank may wait at a rendezvous before the run is
#: aborted.  Generous, because functional simulations with hundreds of
#: ranks can make slow progress under the GIL; a genuine deadlock still
#: surfaces.  Overridable per run (``timeout=``/``spmd_timeout=``) or
#: per environment (:data:`TIMEOUT_ENV_VAR`).
DEFAULT_TIMEOUT = 600.0

#: Environment variable overriding :data:`DEFAULT_TIMEOUT` for runs that
#: do not pass an explicit timeout — slow CI boxes raise it, deadlock
#: regression tests lower it.
TIMEOUT_ENV_VAR = "REPRO_SPMD_TIMEOUT"


def default_timeout() -> float:
    """The timeout applied when a run does not pass one explicitly."""
    raw = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{TIMEOUT_ENV_VAR}={raw!r} is not a number of seconds"
        ) from None
    if value <= 0:
        raise ValueError(f"{TIMEOUT_ENV_VAR} must be > 0, got {value}")
    return value


#: ``mallopt`` parameter number of glibc's arena cap (``<malloc.h>``).
M_ARENA_MAX = -8


def cap_malloc_arenas(libc) -> bool:
    """Ask ``libc`` for one malloc arena; ``True`` when it took the cap.

    A C library without ``mallopt`` (macOS, Windows) is left alone, and
    one that rejects the parameter (musl's stub) reports ``False``:
    either way nothing is raised.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    return bool(mallopt(M_ARENA_MAX, 1))


@functools.cache
def one_malloc_arena() -> bool:
    """Cap this process at one malloc arena, once, before rank threads start.

    Safe for the thread-hosted backends: under ``sequential`` one rank
    runs at a time, and under ``threads`` numpy allocates holding the
    GIL, so one arena costs no contention.  ``processes`` workers are
    separate processes and do not call it.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no process-wide symbol table (Windows)
        return False
    return cap_malloc_arenas(libc)


class SimAborted(RuntimeError):
    """Raised inside rank bodies when the simulation is torn down."""


class SpmdFailure(RuntimeError):
    """Raised by ``run_spmd`` when a rank body failed.

    Subclasses ``RuntimeError`` with the historical message format, but
    additionally carries the failing rank, the original exception, and
    the partial :class:`~repro.mpsim.stats.SimStats` at abort time, so
    a caller can report how far each rank's clock and wire ledger got
    before the run died.

    Pickles with all three attributes intact (the default exception
    reduction would replay ``__init__`` with the formatted *message*,
    not the original arguments) — process workers ship failures to the
    coordinator over a pipe, so this is load-bearing for the
    ``processes`` backend and a latent bug for any other consumer.
    """

    def __init__(self, rank: int, exc: BaseException, stats: SimStats):
        super().__init__(f"SPMD rank {rank} failed: {exc!r}")
        self.rank = rank
        self.exc = exc
        self.stats = stats

    def __reduce__(self):
        return (SpmdFailure, (self.rank, self.exc, self.stats))


class CollectiveCostModel:
    """Timing model consulted by the engine at every collective.

    Subclasses override :meth:`cost` (and optionally :meth:`p2p_cost`).
    The default implementation charges nothing, i.e. collectives act as
    pure synchronization points in virtual time.
    """

    def cost(self, kind: str, parties: int, max_send_words: float, max_recv_words: float) -> float:
        """Seconds from last arrival to completion of one collective call."""
        return 0.0

    def p2p_cost(self, words: float) -> float:
        """Seconds for one pairwise-exchange message."""
        return 0.0


class ZeroCostModel(CollectiveCostModel):
    """Explicit name for the do-not-time model."""


@dataclass
class SpmdResult:
    """Return value of ``run_spmd``."""

    returns: list[Any]
    stats: SimStats

    def __iter__(self):
        return iter(self.returns)

    def __getitem__(self, rank: int) -> Any:
        return self.returns[rank]


class GroupBase:
    """Membership bookkeeping shared by every backend's group state.

    A group is one communicator's worth of ranks (the world, or a
    ``split`` product).  ``members`` maps group rank -> global rank;
    backends extend this with their rendezvous state (a barrier, arrival
    counters, a wire id, ...).
    """

    __slots__ = ("members", "size")

    def __init__(self, members: Sequence[int]):
        self.members = list(members)
        self.size = len(self.members)


class EngineBase:
    """Backend-neutral engine state: clocks, stats, groups, teardown flags.

    Subclasses must provide the scheduling half of the
    ``ExecutionEngine`` contract — ``collective`` and ``abort`` — and
    may override :meth:`_make_group` to attach backend-specific
    rendezvous state.
    """

    def __init__(
        self,
        nranks: int,
        cost_model: CollectiveCostModel | None = None,
        timeout: float | None = None,
        record_peers: bool = False,
    ):
        from repro.mpsim.clock import RankClock
        from repro.mpsim.stats import RankStats

        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.cost_model = cost_model if cost_model is not None else ZeroCostModel()
        self.timeout = default_timeout() if timeout is None else timeout
        #: When set, per-destination traffic is recorded in RankStats
        #: (the rank-to-rank heat-map data of Figure 4-style analyses).
        self.record_peers = record_peers
        self.clocks = [RankClock() for _ in range(nranks)]
        self.stats = [RankStats() for _ in range(nranks)]
        self._groups: list[Any] = []
        self._errors: list[tuple[int, BaseException]] = []
        self.world = self.register_group(range(nranks))

    def _make_group(self, members: Sequence[int]):
        return GroupBase(members)

    def register_group(self, members: Sequence[int]):
        state = self._make_group(members)
        self._groups.append(state)
        return state

    def sim_stats(self) -> SimStats:
        from repro.mpsim.stats import SimStats

        return SimStats(clocks=self.clocks, comm=self.stats)

    def first_failure(self) -> tuple[int, BaseException] | None:
        """The first recorded ``(rank, exception)``, or ``None``."""
        return self._errors[0] if self._errors else None

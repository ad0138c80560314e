"""Pluggable SPMD execution runtimes.

The simulator's algorithms are written against one interface — a
:class:`~repro.mpsim.communicator.Communicator` backed by an *execution
engine* — and this package supplies interchangeable engines, each kept
for one reason:

* :mod:`repro.runtime.sequential` — the default: a deterministic
  single-runnable round-robin scheduler that steps ranks between
  rendezvous points.  No lock contention, no timeouts (a deadlock is
  *detected structurally* the moment no rank can run), reproducible
  down to the interleaving.
* :mod:`repro.runtime.threads` — the only backend whose rank bodies
  interleave preemptively; the timeout and concurrency tests select it
  explicitly.
* :mod:`repro.runtime.processes` — the only backend with real
  parallelism: one ``fork``-ed worker per rank, a pipe coordinator, and
  ``multiprocessing.shared_memory``-backed numpy transfers; per-worker
  clock/stats/obs shards are merged into one report on exit.

**The bit-identity contract.**  Completion times depend only on
deterministic virtual clocks and payload sizes, so every modeled output
— parents, levels, times, wire words, spans — is identical under every
backend; only wall-clock changes.  ``tests/test_property_runtimes.py``
locks this in for every registered algorithm, and the golden fixtures
pin the default backend bit for bit.

**Choosing a backend.**  :data:`DEFAULT_RUNTIME` hosts every run that
does not name one; ``runtime=`` selects per run through ``RunConfig`` ->
``run_bfs`` / ``run_query`` -> the CLI's ``--runtime``.  There is no
process-wide switch.

Adding a backend: subclass :class:`repro.runtime.base.EngineBase`,
implement the :class:`ExecutionEngine` scheduling half (``collective``,
``abort``) plus a module-level
``run_spmd``, list the module in :data:`BACKENDS`, and extend the
cross-backend property suite (its coverage meta-test fails on any
registry entry the sweep misses).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.runtime.base import (  # noqa: F401  (re-exports)
    DEFAULT_TIMEOUT,
    TIMEOUT_ENV_VAR,
    CollectiveCostModel,
    EngineBase,
    SimAborted,
    SpmdFailure,
    SpmdResult,
    ZeroCostModel,
    default_timeout,
)

if TYPE_CHECKING:
    from repro.mpsim.stats import SimStats

#: Recognized backend names; each is a module of this package.
BACKENDS = ("threads", "sequential", "processes")

#: The backend hosting every run that does not pass ``runtime=``.
DEFAULT_RUNTIME = "sequential"


@runtime_checkable
class ExecutionEngine(Protocol):
    """What a :class:`~repro.mpsim.communicator.Communicator` needs.

    One engine instance owns one run: per-rank clocks and wire stats,
    the communicator-group registry, and the scheduling machinery that
    rendezvouses ranks at collectives and tears everything down on
    failure.  :class:`repro.runtime.base.EngineBase` provides the state
    half; backends add the four scheduling methods.
    """

    nranks: int
    cost_model: CollectiveCostModel
    timeout: float
    record_peers: bool
    clocks: list
    stats: list

    def register_group(self, members: Sequence[int]) -> Any:
        """Create rendezvous state for a new communicator group."""
        ...

    def collective(
        self,
        state: Any,
        rank: int,
        item: Any,
        reduce: Callable[[list], Any],
    ) -> Any:
        """Rendezvous the group: deposit ``item`` for group rank ``rank``,
        evaluate ``reduce(slots)`` exactly once per address space when
        all members have deposited, and return its value to every
        member.  ``reduce`` is deterministic, so backends may run it on
        an elected rank (shared memory) or on every worker (processes).
        """
        ...

    def abort(self, rank: int, exc: BaseException) -> None:
        """Record a failure and release every blocked rank."""
        ...

    def sim_stats(self) -> SimStats:
        ...


@runtime_checkable
class ExecutionBackend(Protocol):
    """The per-backend module interface ``run_spmd`` dispatches to."""

    #: Backend name as selected by ``runtime=``.
    name: str

    def run_spmd(
        self,
        nranks: int,
        fn: Callable,
        *args: Any,
        cost_model: CollectiveCostModel | None = None,
        timeout: float | None = None,
        record_peers: bool = False,
        **kwargs: Any,
    ) -> SpmdResult:
        """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks."""
        ...


def get_backend(name: str | None = None) -> ExecutionBackend:
    """The backend module for ``name`` (default: :data:`DEFAULT_RUNTIME`)."""
    if name is None:
        name = DEFAULT_RUNTIME
    elif name not in BACKENDS:
        raise ValueError(
            f"unknown execution runtime {name!r}; known: {sorted(BACKENDS)}"
        )
    return importlib.import_module(f"repro.runtime.{name}")


def run_spmd(
    nranks: int,
    fn: Callable,
    *args: Any,
    cost_model: CollectiveCostModel | None = None,
    timeout: float | None = None,
    record_peers: bool = False,
    runtime: str | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Dispatches to ``runtime=`` (default :data:`DEFAULT_RUNTIME`): a
    deterministic round-robin scheduler (``sequential``), one rank per
    thread (``threads``), or one forked worker process per rank
    (``processes``).  All modeled outputs are bit-identical
    across backends; exceptions raised by any rank abort the whole run
    and re-raise as :class:`SpmdFailure` in the caller.

    ``timeout=None`` applies the default policy: ``REPRO_SPMD_TIMEOUT``
    when set, else :data:`DEFAULT_TIMEOUT`.

    Returns
    -------
    SpmdResult
        Per-rank return values plus the run's SimStats.
    """
    return get_backend(runtime).run_spmd(
        nranks,
        fn,
        *args,
        cost_model=cost_model,
        timeout=timeout,
        record_peers=record_peers,
        **kwargs,
    )

"""Thread-based execution backend: the only preemptive one.

One OS thread per simulated rank; collectives rendezvous on a
``threading.Barrier`` and a timeout converts a genuine deadlock into an
abort.  The collective protocol is a three-phase barrier dance:

1. *fill* — every member deposits its item in its slot;
2. *combine* — the rank elected by the barrier evaluates the caller's
   ``reduce`` over the full slot list;
3. *drain* — members read the shared result, and a final barrier
   guarantees the slots may be reused for the next call.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from typing import Any

from repro.runtime.base import (
    CollectiveCostModel,
    EngineBase,
    GroupBase,
    SimAborted,
    SpmdFailure,
    SpmdResult,
    one_malloc_arena,
)

#: Backend name; only ``runtime="threads"`` selects it (preemptive interleaving).
name = "threads"


class _GroupState(GroupBase):
    """Shared state of one communicator group (world or split)."""

    __slots__ = ("barrier", "slots", "result")

    def __init__(self, members: Sequence[int]):
        super().__init__(members)
        self.barrier = threading.Barrier(self.size)
        self.slots: list[Any] = [None] * self.size
        self.result: Any = None


class ThreadsEngine(EngineBase):
    """Owns clocks, stats, the group registry, and abort machinery."""

    def __init__(
        self,
        nranks: int,
        cost_model: CollectiveCostModel | None = None,
        timeout: float | None = None,
        record_peers: bool = False,
    ):
        self._lock = threading.Lock()
        self._aborted = threading.Event()
        super().__init__(
            nranks,
            cost_model=cost_model,
            timeout=timeout,
            record_peers=record_peers,
            )

    def _make_group(self, members: Sequence[int]) -> _GroupState:
        return _GroupState(members)

    def register_group(self, members: Sequence[int]) -> _GroupState:
        state = self._make_group(members)
        with self._lock:
            self._groups.append(state)
        return state

    def abort(self, rank: int, exc: BaseException) -> None:
        with self._lock:
            self._errors.append((rank, exc))
        self._aborted.set()
        with self._lock:
            groups = list(self._groups)
        for group in groups:
            group.barrier.abort()

    def barrier_wait(self, state: _GroupState) -> int:
        """Wait on a group barrier, translating breakage into SimAborted.

        A barrier broken *without* a recorded abort means a timeout — some
        rank never arrived (deadlock or divergent collective sequence);
        that is an error in its own right and must not pass silently.
        """
        if self._aborted.is_set():
            raise SimAborted("simulation aborted")
        try:
            return state.barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            if not self._aborted.is_set():
                self.abort(
                    -1,
                    TimeoutError(
                        f"collective timed out after {self.timeout}s — a rank "
                        "never arrived (deadlock or mismatched collectives)"
                    ),
                )
            raise SimAborted("simulation aborted (broken barrier)") from None

    def collective(
        self,
        state: _GroupState,
        rank: int,
        item: Any,
        reduce: Callable[[list], Any],
    ) -> Any:
        state.slots[rank] = item
        if self.barrier_wait(state) == 0:
            state.result = reduce(list(state.slots))
        self.barrier_wait(state)
        result = state.result
        self.barrier_wait(state)
        return result


def run_spmd(
    nranks: int,
    fn: Callable,
    *args: Any,
    cost_model: CollectiveCostModel | None = None,
    timeout: float | None = None,
    record_peers: bool = False,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` rank threads.

    Every rank executes in its own thread against a shared
    :class:`ThreadsEngine`.  Exceptions raised by any rank abort the
    whole run and are re-raised (the first one, with the rank noted) in
    the caller.
    """
    from repro.mpsim.communicator import Communicator

    one_malloc_arena()
    engine = ThreadsEngine(
        nranks,
        cost_model=cost_model,
        timeout=timeout,
        record_peers=record_peers,
    )
    returns: list[Any] = [None] * nranks
    threads: list[threading.Thread] = []

    def worker(rank: int) -> None:
        comm = Communicator(engine, engine.world, rank)
        try:
            returns[rank] = fn(comm, *args, **kwargs)
        except SimAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must tear down peers
            engine.abort(rank, exc)

    for rank in range(nranks):
        thread = threading.Thread(
            target=worker, args=(rank,), name=f"spmd-rank-{rank}", daemon=True
        )
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join()

    failure = engine.first_failure()
    if failure is not None:
        rank, exc = failure
        raise SpmdFailure(rank, exc, engine.sim_stats()) from exc
    return SpmdResult(returns=returns, stats=engine.sim_stats())

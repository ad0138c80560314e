"""Unified level-synchronous traversal engine.

The BFS formulations — Algorithm 2 on the 1D partition, Algorithm 3's
semiring SpMSV on the 2D one, and the direction-optimizing bottom-up
step added next to each — differ only in what happens *inside* a level.
Everything around the level is shared scaffolding, and this module owns
all of it:

* rank-local setup: the :class:`~repro.model.costmodel.Charger`, the
  rank's span tracer and metrics handle (algorithm plugins add their
  partitions and :class:`~repro.comm.CommChannel` wire layers on top in
  :meth:`AlgorithmStep.setup`; :class:`Step1D` does it once for every
  owner-partitioned plugin);
* the level loop and its per-level metrics;
* the per-level trace-profile records behind ``run_bfs(..., trace=True)``;
* the level-closing ``sync``/``allreduce`` spans around the termination
  test;
* result marshaling (vertex range, local levels/parents, level count,
  trace).

An algorithm is a plugin: a class implementing :class:`AlgorithmStep`
whose :meth:`~AlgorithmStep.step` runs one level and reports a
:class:`LevelOutcome`.  There is one interior per partition:
:class:`~repro.core.bfs1d.TopDown1D` (Algorithm 2) and the
:mod:`repro.query` plugins subclass :class:`Step1D`,
:class:`~repro.core.bfs2d.SpMSV2D` (Algorithm 3) owns the grid, and the
direction-optimizing variants extend those two with a bottom-up step.
The registry binding algorithm names to plugins and capabilities lives
in :mod:`repro.core.runner`.

:func:`traversal_body` is the one SPMD rank body: it constructs the
rank's step and engine and calls :meth:`TraversalEngine.run`; launch it
with ``run_spmd(nranks, traversal_body, StepClass, args, kwargs, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.comm import CommChannel, VertexRange, make_sieve
from repro.core.partition import Partition1D
from repro.model.costmodel import Charger
from repro.obs.metrics import resolve_metrics
from repro.obs.tracer import resolve_tracer


def partition_ranges(part: Partition1D, nranks: int) -> list[VertexRange]:
    """Owned vertex range of every rank, as the comm layer's contexts."""
    ranges = []
    for rank in range(nranks):
        lo, hi = part.range_of(rank)
        ranges.append(VertexRange(lo, hi - lo))
    return ranges


@dataclass
class LevelOutcome:
    """What one :meth:`AlgorithmStep.step` reports back to the engine.

    The four counters feed the per-level trace profile (``run_bfs(...,
    trace=True)``); ``extra`` carries algorithm-specific profile fields
    (the direction-optimizing plugin records which ``direction`` ran).
    The new frontier itself is not part of the outcome — the step
    updates its own ``frontier`` attribute, which the engine reads for
    the ``discovered`` count and the next level.
    """

    candidates: int = 0
    words_sent: int = 0
    wire_words: int = 0
    sieve_dropped: int = 0
    extra: dict = field(default_factory=dict)


@runtime_checkable
class AlgorithmStep(Protocol):
    """What an algorithm plugin must provide to run under the engine.

    A step owns the *inside* of a level: its partition, wire channels,
    local ``levels``/``parents`` arrays and the current ``frontier``.
    The engine owns everything *around* it — see the module docstring.
    Lifecycle per rank::

        step.setup(engine)                  # partition, channels, arrays
        step.initial_sync()
        repeat:  step.begin_level(L); step.step(L); step.termination_sync()
    """

    #: Result-dict keys naming the owned vertex range (``("lo", "hi")``
    #: for the 1D partition, ``("plo", "phi")`` for 2D vector pieces).
    result_keys: tuple[str, str]
    #: Extra keyword arguments for the rank's ``Charger``.
    charger_kwargs: dict

    levels: np.ndarray
    parents: np.ndarray
    frontier: np.ndarray

    def setup(self, engine: "TraversalEngine") -> None:
        """Build the rank's partition, channels and traversal arrays."""

    def vertex_range(self) -> tuple[int, int]:
        """The rank's owned vertex range ``(lo, hi)``."""
        ...

    def initial_sync(self) -> int | None:
        """Pre-loop collective state; the initial termination count.

        Return ``None`` when the algorithm has no pre-loop termination
        test (the 1D top-down algorithm always runs level 1); the engine
        then enters the loop unconditionally, exactly reproducing a
        ``while True`` body with a post-level check.  A pre-loop
        collective runs inside an ``allreduce`` span, so the comm spans
        cover the rank's whole MPI time.
        """
        ...

    def begin_level(self, level: int) -> dict:
        """Per-level pre-span work; returns the level span's attributes.

        Runs before the ``level`` span opens — the direction-optimizing
        plugin flips its traversal direction here, from collective state
        only (no communication).
        """
        ...

    def step(self, level: int) -> LevelOutcome:
        """Run one level's phases inside the open ``level`` span."""
        ...

    def termination_sync(self) -> int:
        """The level-closing Allreduce; returns the termination count."""
        ...


class Step1D:
    """The owner-partitioned (1D) step scaffold, written once.

    Every 1D plugin owns a contiguous block of vertices and ships
    candidates to their owners through one :class:`~repro.comm.CommChannel`
    over the world communicator.  :meth:`setup` builds that — partition,
    owned range, channel, ``-1``-filled ``levels``/``parents`` and an
    empty ``frontier`` — and the remaining hooks default to Algorithm 2's
    choices: level 1 always runs, the level span carries its number, and
    termination is an ``Allreduce`` of the new-frontier size.  A subclass
    seeds its sources after ``super().setup()`` and writes
    :meth:`~AlgorithmStep.step`.
    """

    result_keys = ("lo", "hi")
    charger_kwargs: dict = {}

    def __init__(self, csr, codec="raw", sieve=False):
        self.csr = csr
        self.codec = codec
        #: The ``sieve`` option until :meth:`setup`, which replaces it
        #: with the live :class:`~repro.comm.Sieve` (or ``None``).
        self.sieve = sieve

    def setup(self, engine: "TraversalEngine") -> None:
        comm = engine.comm
        self.comm = comm
        self.charger = engine.charger
        self.obs = engine.obs
        self.metrics = engine.metrics
        self.threads = engine.threads
        self.part = Partition1D(self.csr.n, comm.size)
        self.lo, self.hi = self.part.range_of(comm.rank)
        self.nloc = self.hi - self.lo
        self.sieve = make_sieve(self.sieve, self.csr.n)
        self.channel = CommChannel(
            comm,
            partition_ranges(self.part, comm.size),
            codec=self.codec,
            sieve=self.sieve,
            charger=engine.charger,
            tracer=engine.obs,
            metrics=engine.metrics,
        )
        self.levels = np.full(self.nloc, -1, dtype=np.int64)
        self.parents = np.full(self.nloc, -1, dtype=np.int64)
        self.frontier = np.empty(0, dtype=np.int64)

    def vertex_range(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def initial_sync(self) -> int | None:
        # No pre-loop termination test: level 1 always runs (some rank
        # owns a source, so the global frontier is never empty before it).
        return None

    def begin_level(self, level: int) -> dict:
        return {"level": level}

    def termination_sync(self) -> int:
        return self.comm.allreduce(int(self.frontier.size))


def traversal_body(
    comm,
    step_cls,
    step_args: tuple,
    step_kwargs: dict,
    machine=None,
    threads: int = 1,
    trace: bool = False,
    tracer=None,
    metrics=None,
) -> dict:
    """Generic SPMD rank body: build one step plugin and run the engine.

    ``run_bfs`` launches every engine-driven family through this single
    body — ``run_spmd(nranks, traversal_body, StepClass, args, kwargs,
    ...)`` — so registering a new algorithm needs no new rank-body
    function.  Each rank constructs its own step instance (steps hold
    per-rank arrays); ``step_args``/``step_kwargs`` are shared read-only
    inputs like the CSR or the 2D blocks.
    """
    step = step_cls(*step_args, **step_kwargs)
    return TraversalEngine(
        comm,
        step,
        machine=machine,
        threads=threads,
        trace=trace,
        tracer=tracer,
        metrics=metrics,
    ).run()


class TraversalEngine:
    """The level-synchronous skeleton shared by every BFS family.

    One engine instance is one rank's traversal: it is constructed
    inside the SPMD body with the rank's communicator and the run's
    cross-cutting options, builds the rank-local scaffold (charger,
    tracer and metrics handles), delegates the per-level work to the
    ``step`` plugin, and marshals the rank's result dict.

    Behavior contract: results, modeled times and spans are
    bit-identical to the pre-engine hand-rolled loops —
    ``tests/test_golden_parity.py`` locks this in against committed
    fixtures.
    """

    def __init__(
        self,
        comm,
        step: AlgorithmStep,
        machine=None,
        threads: int = 1,
        trace: bool = False,
        tracer=None,
        metrics=None,
    ):
        self.comm = comm
        self.step = step
        self.threads = threads
        self.trace = trace
        self.charger = Charger(
            comm, machine=machine, threads=threads, **step.charger_kwargs
        )
        self.obs = resolve_tracer(tracer).for_rank(comm)
        # Passive like the tracer: metrics read outcomes but never touch
        # the virtual clocks, so a metered run stays bit-identical.
        self.metrics = resolve_metrics(metrics).for_rank(comm)

    def run(self) -> dict:
        """Execute the traversal; returns the rank's result dict."""
        step, obs, charger, metrics = self.step, self.obs, self.charger, self.metrics
        step.setup(self)

        level = 1
        term = step.initial_sync()
        level_trace: list[dict] = []
        while term != 0:  # None (no pre-loop test) runs level 1
            frontier_in = int(step.frontier.size)
            level_attrs = step.begin_level(level)
            with obs.span("level", **level_attrs):
                outcome = step.step(level)

                metrics.inc("engine_levels")
                metrics.inc("engine_candidates", float(outcome.candidates))
                metrics.inc(
                    "engine_discovered", float(step.frontier.size), level=level
                )
                metrics.observe("engine_frontier_size", float(frontier_in))
                if "lanes" in level_attrs:
                    metrics.set_gauge(
                        "query_lanes_active", float(level_attrs["lanes"]), level=level
                    )
                if "direction" in level_attrs:
                    metrics.inc(
                        "engine_direction_levels", direction=level_attrs["direction"]
                    )

                if self.trace:
                    level_trace.append(
                        {
                            "level": level,
                            "frontier": frontier_in,
                            "candidates": outcome.candidates,
                            "words_sent": outcome.words_sent,
                            "wire_words": outcome.wire_words,
                            "sieve_dropped": outcome.sieve_dropped,
                            "discovered": int(step.frontier.size),
                            **outcome.extra,
                        }
                    )

                # Global termination test.
                with obs.span("sync"):
                    charger.level_overhead()
                    with obs.span("allreduce"):
                        term = step.termination_sync()
            level += 1

        lo_key, hi_key = step.result_keys
        lo, hi = step.vertex_range()
        result = {
            lo_key: lo,
            hi_key: hi,
            "levels": step.levels,
            "parents": step.parents,
            "nlevels": level - 1,
        }
        if self.trace:
            result["trace"] = level_trace
        return result

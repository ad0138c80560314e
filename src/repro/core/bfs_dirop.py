"""Direction-optimizing distributed BFS on the 1D partition.

The paper's cost model shows BFS time is dominated by the few
hub-dominated middle levels of an R-MAT traversal, where the frontier
touches almost every edge.  The direction-optimizing refinement (Beamer
et al.; applied to distributed memory in the follow-up work of Buluc,
Beamer and Madduri) replaces the top-down candidate exchange on those
levels with a *bottom-up* sweep:

* **expand** — owners pack their local frontier into a 64-bit bitmap and
  assemble the global frontier with one ``Allgatherv`` (``~n/64`` words
  on the wire, charged at ``beta_{N,ag}``), instead of shipping
  per-edge (vertex, parent) pairs through the ``Alltoallv``;
* **fold** — each owner scans its *unvisited* local vertices against the
  bitmap, walking every sorted adjacency list in reverse and stopping at
  the first frontier neighbour.  The reverse order makes the early exit
  land on the *maximum* frontier neighbour, which is exactly the
  (select, max) parent the top-down dedup would have chosen — so the
  variant stays bit-identical to every other algorithm in the repo.

Direction choice is collective and deterministic: each level, ranks
``Allreduce`` the global frontier size, the frontier's incident-edge
count, and the unexplored-edge count, then apply the shared
``alpha``/``beta`` density predicates from :mod:`repro.core.frontier`.
Directed graphs (no symmetry) disable the bottom-up sweep, since
scanning out-adjacencies cannot discover in-neighbours.

Only the level *interior* lives here: :class:`DirOpt1D` extends
:class:`~repro.core.bfs1d.TopDown1D` — top-down levels are the parent's
Algorithm 2 phases unchanged — with the bottom-up step, and
:class:`DirectionSwitch` is the switch policy it shares with
:class:`~repro.core.bfs2d_dirop.DirOpt2D`; the level loop itself is the
:class:`~repro.core.engine.TraversalEngine`'s.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.bfs1d import TopDown1D
from repro.core.engine import LevelOutcome, TraversalEngine
from repro.core.frontier import (
    bitmap_words,
    should_switch_bottom_up,
    should_switch_top_down,
)
from repro.graphs.csr import CSR
from repro.model.costmodel import DIROP_ALPHA, DIROP_BETA

TOP_DOWN = "top-down"
BOTTOM_UP = "bottom-up"


class DirectionSwitch:
    """The direction-switch policy, once, for both partitions.

    Mix in ahead of a top-down step class that provides ``comm``,
    ``source``, ``frontier``, ``vertex_range()``, the live ``sieve`` and
    a ``_bottomup_step``; call :meth:`init_direction` at the end of
    ``setup``.  The flip happens in :meth:`begin_level` from collective
    state only (every rank flips in lockstep without extra
    communication), and the termination ``Allreduce`` carries the three
    frontier-density statistics the predicates need.
    """

    #: Whether a bottom-up sweep may run at all.
    symmetric = True

    def __init__(
        self, *args, alpha: float | None = None, beta: float | None = None, **kwargs
    ):
        super().__init__(*args, **kwargs)
        self.alpha = DIROP_ALPHA if alpha is None else alpha
        self.beta = DIROP_BETA if beta is None else beta

    def init_direction(self, degrees: np.ndarray, nglobal: int) -> None:
        """``degrees`` of the owned vertices; each vertex has exactly one
        owner, so the stats ``Allreduce`` sums exactly."""
        self.owned_degrees = degrees
        self.nglobal = nglobal
        lo, hi = self.vertex_range()
        self.unexplored_edges = int(degrees.sum())
        if lo <= self.source < hi:
            self.unexplored_edges -= int(degrees[self.source - lo])
        self.direction = TOP_DOWN

    def _frontier_edges(self) -> int:
        front = self.frontier
        if not front.size:
            return 0
        return int(self.owned_degrees[front - self.vertex_range()[0]].sum())

    def _sync_stats(self) -> None:
        stats = np.array(
            [self.frontier.size, self._frontier_edges(), self.unexplored_edges],
            dtype=np.int64,
        )
        self.g_front, self.g_fedges, self.g_unexplored = (
            int(x) for x in self.comm.allreduce(stats)
        )

    def initial_sync(self) -> None:
        # The pre-loop stats Allreduce seeds the first switch decision;
        # level 1 itself always runs (the source frontier is nonempty
        # somewhere), so no termination count is returned.
        with self.obs.span("allreduce"):
            self._sync_stats()
        return None

    def begin_level(self, level: int) -> dict:
        if self.symmetric:
            if self.direction == TOP_DOWN and should_switch_bottom_up(
                self.g_fedges, self.g_unexplored, self.alpha
            ):
                self.direction = BOTTOM_UP
            elif self.direction == BOTTOM_UP and should_switch_top_down(
                self.g_front, self.nglobal, self.beta
            ):
                self.direction = TOP_DOWN
        return {"level": level, "direction": self.direction}

    def step(self, level: int) -> LevelOutcome:
        if self.direction == TOP_DOWN:
            outcome = super().step(level)
        else:
            outcome = self._bottomup_step(level)
        self.unexplored_edges -= self._frontier_edges()
        outcome.extra["direction"] = self.direction
        return outcome

    def termination_sync(self) -> int:
        self._sync_stats()
        return self.g_front


class DirOpt1D(DirectionSwitch, TopDown1D):
    """The direction-optimizing 1D level interior, as an engine plugin.

    Top-down levels are :class:`~repro.core.bfs1d.TopDown1D`'s phases
    verbatim (``dedup_sends`` applies to them only); bottom-up levels
    run the bitmap expand + reverse-scan fold.  ``codec``/``sieve`` cover
    both the top-down ``Alltoallv`` and the bottom-up bitmap
    ``Allgatherv`` (the expand also feeds the sieve: a gathered frontier
    is a set of discovered vertices no later exchange needs to re-ship).
    Directed inputs (``symmetric=False``) pin the traversal to top-down:
    scanning out-adjacencies cannot discover in-neighbours.
    """

    def __init__(
        self,
        csr: CSR,
        source: int,
        dedup_sends: bool = True,
        codec="raw",
        sieve=False,
        alpha: float | None = None,
        beta: float | None = None,
        symmetric: bool = True,
    ):
        super().__init__(
            csr,
            source,
            dedup_sends=dedup_sends,
            codec=codec,
            sieve=sieve,
            alpha=alpha,
            beta=beta,
        )
        self.symmetric = symmetric

    def setup(self, engine: TraversalEngine) -> None:
        super().setup(engine)
        indptr = self.csr.indptr
        self.init_direction(
            indptr[self.lo + 1 : self.hi + 1] - indptr[self.lo : self.hi],
            self.csr.n,
        )

    def _bottomup_step(self, level: int) -> LevelOutcome:
        csr, charger, obs = self.csr, self.charger, self.obs
        lo, nloc = self.lo, self.nloc
        # Expand: every owner contributes its local frontier bitmap; the
        # Allgatherv assembles the global one (~n/64 words received per rank
        # under the raw codec, priced post-codec by the collective cost model).
        with obs.span("bu-expand"):
            payload = float(bitmap_words(nloc))
            charger.stream(payload + float(self.frontier.size))
            bitmap, xinfo = self.channel.gather_mask(self.frontier, level=level)
            charger.stream(float(bitmap.size) / 64.0)

        # Fold: enumerate unvisited owned vertices and reverse-scan their
        # sorted adjacencies against the bitmap.  The last frontier hit of a
        # sorted list is the maximum frontier neighbour, so the early exit
        # reproduces the (select, max) parent of the top-down dedup.
        with obs.span("bu-scan"):
            unvisited = np.flatnonzero(self.levels < 0) + lo
            charger.stream(float(nloc))
            deg = csr.indptr[unvisited + 1] - csr.indptr[unvisited]
            active = unvisited[deg > 0]
            counts = deg[deg > 0]
            charger.random(float(active.size), ws_words=2 * max(nloc, 1))
            targets, _sources = csr.gather(active)
            if active.size:
                ends = np.cumsum(counts)
                starts = ends - counts
                last_hit = kernels.last_hit_scan(bitmap[targets], starts, counts)
                has_parent = last_hit >= 0
                new = active[has_parent]
                new_parents = targets[last_hit[has_parent]]
                # Reverse scan visits positions [last_hit, end) before exiting —
                # the whole list when no frontier neighbour exists.
                scanned = float(np.where(has_parent, ends - last_hit, counts).sum())
            else:
                new = np.empty(0, dtype=np.int64)
                new_parents = np.empty(0, dtype=np.int64)
                scanned = 0.0
            charger.random(scanned, ws_words=max(1.0, float(bitmap.size) / 64.0))
            charger.stream(2.0 * scanned, edges_scanned=scanned)
            charger.count(candidates=scanned)

        with obs.span("bu-update"):
            self.levels[new - lo] = level
            self.parents[new - lo] = new_parents
            self.frontier = new
            if self.threads > 1:
                charger.thread_merge(float(new.size))
            charger.stream(float(new.size))
        return LevelOutcome(
            candidates=int(scanned),
            words_sent=int(payload),
            wire_words=int(xinfo.wire_words),
        )

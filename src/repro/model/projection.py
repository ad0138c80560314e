"""Workload-volume models: from measured runs and closed forms.

The benches regenerate the paper's large-scale figures by combining

* :class:`RmatVolumeModel` — closed-form per-rank volumes for Graph 500
  R-MAT traversals as a function of ``(n, m, p, threads)``, with a small
  set of constants calibrated against functional simulations, and
* :func:`repro.model.analytic.cost_1d` / ``cost_2d`` — the Section 5
  machine-model arithmetic.

:func:`measure_level_profile` extracts the same per-rank volumes from a
functional simulation's :class:`~repro.mpsim.stats.SimStats`, which is how
the tests validate the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.model.analytic import WorkloadVolumes
from repro.mpsim.stats import SimStats


def measure_level_profile(stats: SimStats) -> dict[str, float]:
    """Per-rank average traffic measured by a functional simulation."""
    p = max(1, stats.nranks)
    return {
        "a2a_words_per_rank": stats.words_sent("alltoallv") / p,
        "ag_words_per_rank": stats.words_recv("allgatherv") / p,
        "transpose_words_per_rank": stats.words_sent("exchange") / p,
        "nlevels": float(stats.calls("alltoallv")),
        "edges_scanned_per_rank": stats.counter("edges_scanned") / p,
        "candidates_per_rank": stats.counter("candidates") / p,
        "unique_sends_per_rank": stats.counter("unique_sends") / p,
    }


def fit_dedup_curve(
    parties: np.ndarray, survival: np.ndarray
) -> tuple[float, float]:
    """Fit ``s(p) = s1 * p**gamma`` to measured duplicate-survival points.

    ``survival`` is the fraction of candidate sends that remain after
    send-side deduplication.  Returns ``(s1, gamma)``.
    """
    parties = np.asarray(parties, dtype=float)
    survival = np.asarray(survival, dtype=float)
    if parties.size < 2:
        raise ValueError("need at least two measurement points")
    if np.any(parties <= 0) or np.any(survival <= 0):
        raise ValueError("parties and survival must be positive")
    gamma, log_s1 = np.polyfit(np.log(parties), np.log(survival), 1)
    return float(math.exp(log_s1)), float(gamma)


@dataclass
class RmatVolumeModel:
    """Closed-form volumes for Graph 500 R-MAT BFS traversals.

    The deduplication-survival curve ``s(g) = 1 - exp(-s1 * g**gamma)`` is
    the workload's only non-trivial ingredient: a candidate edge to vertex
    ``v`` survives send-side dedup when no other edge to ``v`` was already
    queued by the same rank in the same level, so survival grows with the
    number of communicating parties ``g`` (p for 1D's all-to-all, only
    ``pc = sqrt(p/t)`` for the 2D fold — which is exactly why 2D moves
    less data; Section 5.2).

    Constants calibrated against functional simulations on R-MAT graphs
    (``tests/test_projection_calibration.py`` re-measures them):

    * dedup survival fitted on scale-15/ef-16 R-MAT at p = 2..64:
      ``s1 = 0.0592, gamma = 0.585`` (the saturating-exponent fit;
      re-derivable via :mod:`repro.model.calibration`);
    * reachable fraction ``1 - exp(-0.34 sqrt(ef))`` matches the measured
      0.49 / 0.74 / 0.92 at edge factors 4 / 16 / 64;
    * the level-count formula reproduces the measured 5-7 levels for
      Graph 500 R-MAT and grows as the graph sparsifies (Figure 10's
      regime ordering).
    """

    reach_frac: float | None = None  # None => derived from the edgefactor
    #: Fraction of input edges surviving into the traversed structure.
    #: 1.0 is correct at the paper's scales (duplicate R-MAT edges are
    #: vanishingly rare when m << n^2); *toy* instances collapse many
    #: duplicates (e.g. 45% at scale 12 / edgefactor 64), so small-scale
    #: volume validations must compare against measured stored/2m ratios.
    edge_frac: float = 1.0
    dedup_s1: float = 0.0592
    dedup_gamma: float = 0.585
    #: Density exponent: denser graphs deduplicate better ("in-node
    #: aggregation is less effective for sparser graphs", Section 5.2).
    #: Measured on R-MAT at edge factors 4..64, p = 8..64.
    dedup_density_delta: float = 0.25
    words_per_send: float = 2.0  # (vertex, parent) pairs

    def reach(self, edgefactor: float) -> float:
        """Fraction of vertices in the traversed (giant) component."""
        if self.reach_frac is not None:
            return self.reach_frac
        return 1.0 - math.exp(-0.34 * math.sqrt(edgefactor))

    def survival(self, parties: int, edgefactor: float = 16.0) -> float:
        """Fraction of candidates surviving send-side dedup among ``parties``.

        Saturating form ``1 - exp(-s1 * g^gamma * (16/ef)^delta)``: grows
        with the number of communicating parties (duplicates of a hub
        vertex land on more distinct ranks), shrinks with density (denser
        graphs pile more duplicates per rank-level), and never quite
        reaches 1 — even at high ``g`` the heaviest hubs keep absorbing
        duplicates within a rank-level.
        """
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        if edgefactor <= 0:
            raise ValueError(f"edgefactor must be > 0, got {edgefactor}")
        exponent = (
            self.dedup_s1
            * parties**self.dedup_gamma
            * (16.0 / edgefactor) ** self.dedup_density_delta
        )
        return float(1.0 - math.exp(-exponent))

    def nlevels(self, n: int, edgefactor: float) -> int:
        """Level count ``D`` of an R-MAT traversal (small diameter, growing
        as the graph sparsifies)."""
        if edgefactor <= 1:
            raise ValueError(f"edgefactor must be > 1, got {edgefactor}")
        return max(4, round(3 + 0.45 * math.log2(n) / math.log2(edgefactor)))

    # -- per-algorithm volumes -------------------------------------------
    def volumes_1d(
        self, n: int, m: int, p_cores: int, threads: int = 1
    ) -> WorkloadVolumes:
        """Per-rank volumes of the 1D algorithm at ``p_cores`` total cores."""
        ranks = max(1, p_cores // threads)
        edgefactor = m / n
        m_eff = self.edge_frac * m
        n_reach = self.reach(edgefactor) * n
        candidates = 2.0 * m_eff  # both directions of every traversed edge
        unique = candidates * self.survival(ranks, edgefactor)
        nlev = self.nlevels(n, edgefactor)
        return WorkloadVolumes(
            nlevels=nlev,
            edges_scanned=2.0 * m_eff / ranks,
            frontier_vertices=n_reach / ranks,
            random_checks=unique / ranks,
            random_ws_words=max(1.0, n / ranks),
            candidate_ops=candidates / ranks,
            # The paper's own accounting: "a cumulative data volume of
            # m(p-1)/p words sent on the network" — the 1/p share a rank
            # owes itself never hits the wire.
            a2a_words=self.words_per_send * unique / ranks * (ranks - 1) / max(1, ranks),
        )

    def volumes_2d(
        self, n: int, m: int, p_cores: int, threads: int = 1
    ) -> WorkloadVolumes:
        """Per-rank volumes of the 2D algorithm on the closest square grid."""
        ranks = max(1, p_cores // threads)
        side = max(1, math.isqrt(ranks))
        pr = pc = side
        ranks = side * side
        edgefactor = m / n
        m_eff = self.edge_frac * m
        n_reach = self.reach(edgefactor) * n
        candidates = 2.0 * m_eff
        fold_unique = candidates * self.survival(pc, edgefactor)
        nlev = self.nlevels(n, edgefactor)
        return WorkloadVolumes(
            nlevels=nlev,
            edges_scanned=2.0 * m_eff / ranks,
            frontier_vertices=n_reach / ranks,
            random_checks=fold_unique / ranks + n_reach / ranks,
            random_ws_words=max(1.0, n / pr),  # the SPA dense accumulator
            candidate_ops=candidates / ranks,
            a2a_words=self.words_per_send
            * fold_unique
            / ranks
            * (pc - 1)
            / max(1, pc),
            # Expand ships frontier *indices* only (the payload is implicit:
            # a frontier vertex proposes itself as parent), hence 1 word.
            ag_words=n_reach / pc,
            transpose_words=self.words_per_send * n_reach / ranks,
            heap_frontier_cols=max(2.0, n_reach / (nlev * pc)),
        )

    def volumes(
        self, algorithm: str, n: int, m: int, p_cores: int, threads: int = 1
    ) -> WorkloadVolumes:
        """Dispatch on the ``"1d"`` / ``"2d"`` algorithm."""
        if algorithm == "1d":
            return self.volumes_1d(n, m, p_cores, threads)
        if algorithm == "2d":
            return self.volumes_2d(n, m, p_cores, threads)
        raise ValueError(f"unknown algorithm family {algorithm!r}")

"""Sender-side sieve: drop candidates whose target is already discovered.

Lv et al. ("Compression and Sieve", arXiv:1208.5542) observe that a large
fraction of the candidate (vertex, parent) pairs a rank ships were already
sent — and therefore discovered — at an earlier level.  Each rank keeps a
``seen`` bitmask over the *global* vertex space recording every target it
has ever contributed to an exchange (plus every frontier vertex it has
observed through an expand).  A candidate whose target is marked can be
dropped before bucketing: the filter is **exact**, not an approximation,
because a target sent at level ``L`` is visited by the end of level
``L``, so the receiver's own visited-check would discard any later
re-send of it.  Parents/levels are bit-identical with the sieve on or
off; only the wire volume changes.
"""

from __future__ import annotations

import numpy as np


class Sieve:
    """Per-rank remote-visited filter over the global vertex space."""

    def __init__(self, nglobal: int):
        if nglobal < 0:
            raise ValueError(f"nglobal must be >= 0, got {nglobal}")
        self.nglobal = int(nglobal)
        self.seen = np.zeros(self.nglobal, dtype=bool)
        #: Candidates dropped by :meth:`filter` over the sieve's lifetime.
        self.dropped = 0

    def filter(self, targets: np.ndarray, *arrays: np.ndarray):
        """Keep only candidates whose target has not been seen.

        Returns ``(targets, *arrays)`` filtered by the same mask.  Does
        NOT mark the survivors — call :meth:`mark` once they are actually
        shipped, so a failed pack cannot poison the filter.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            return (targets, *arrays)
        keep = ~self.seen[targets]
        self.dropped += int(targets.size - np.count_nonzero(keep))
        return (targets[keep], *(np.asarray(a)[keep] for a in arrays))

    def mark(self, vertices: np.ndarray) -> None:
        """Record vertices as seen (sent or observed discovered)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size:
            self.seen[vertices] = True


def make_sieve(sieve: bool | Sieve | None, nglobal: int) -> Sieve | None:
    """Normalize a ``sieve`` argument (flag or prebuilt instance)."""
    if isinstance(sieve, Sieve):
        return sieve
    return Sieve(nglobal) if sieve else None

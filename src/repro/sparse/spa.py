"""Sparse accumulator (Gilbert, Moler & Schreiber [17]; Section 4.2).

The SPA forms the column-union of the SpMSV with a dense value vector, an
"occupied" bitmask, and a list of touched indices.  It is the fast kernel
at low concurrency, but its dense vector is ``n/pr`` words — at 10K cores
on a scale-33 graph that is >750 MB per core (Section 4.2), which is why
the polyalgorithm switches to the heap kernel at scale.

The batched interface (:meth:`SPA.accumulate`) is the vectorized
equivalent of scattering one candidate at a time; the combine is the
(select, max) semiring so results are deterministic.  The dense vector
takes its dtype from the semiring, so the same accumulator forms lane
unions over ``uint64`` words: the oracle the 64-way ``msbfs-1d`` owner
update is tested against.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.sparse.semiring import SELECT_MAX, Semiring


#: Read the sorted column union off the dense vector's occupancy once the
#: touched count reaches ``length / OCCUPANCY_SCAN_RATIO``; below that,
#: sort the touched list.  Measured (numpy 2.4, one core, int64 and uint64,
#: ``length`` 2**10 .. 2**20): ``flatnonzero(dense != identity)`` and
#: ``np.unique(touched)`` cost the same at touched/length = 1/128 for
#: every length; at 1/32 the scan is 2.4-5x faster, at 1/512 the sort is
#: 2-4x faster.
OCCUPANCY_SCAN_RATIO = 128


class SPA:
    """Reusable sparse accumulator over a fixed-size index space.

    The dense vector doubles as the occupied mask: a position is occupied
    iff its value differs from the semiring identity, which is why
    :meth:`accumulate` rejects identity-valued contributions (within a
    semiring's domain, combining non-identity values never yields the
    identity).  :meth:`extract` reads the sorted union off that occupancy
    with one scan of the dense vector — the scan Section 4.2's cost model
    already bills per level — and sorts the touched list instead only
    when it is a small fraction of ``length`` (a tiny frontier on a huge
    block).
    """

    def __init__(self, length: int, semiring: Semiring = SELECT_MAX):
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        self.length = length
        self.semiring = semiring
        self._dense = np.full(length, semiring.identity, dtype=semiring.dtype)
        self._touched: list[np.ndarray] = []

    @property
    def memory_words(self) -> int:
        """Dense footprint in words (the Section 4.2 memory concern)."""
        return self.length

    def accumulate(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Scatter-combine a batch of (position, value) contributions."""
        positions = np.asarray(positions, dtype=np.int64)
        values = np.asarray(values, dtype=self.semiring.dtype)
        if positions.shape != values.shape:
            raise ValueError("positions/values must be equal length")
        if positions.size == 0:
            return
        if positions.min() < 0 or positions.max() >= self.length:
            raise ValueError(f"positions out of range [0, {self.length})")
        if np.any(values == self.semiring.identity):
            raise ValueError("values must not equal the semiring identity")
        self.semiring.reduce_at(self._dense, positions, values)
        self._touched.append(positions)

    def _occupied(self) -> np.ndarray:
        """Sorted distinct positions accumulated since the last reset."""
        if not self._touched:
            return np.empty(0, dtype=np.int64)
        touched = sum(batch.size for batch in self._touched)
        if touched * OCCUPANCY_SCAN_RATIO < self.length:
            return kernels.unique_sorted(np.concatenate(self._touched))
        return np.flatnonzero(self._dense != self.semiring.identity)

    def extract(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (sorted unique positions, combined values)."""
        occupied = self._occupied()
        return occupied, self._dense[occupied]

    def reset(self) -> None:
        """Clear for reuse, touching only the occupied entries."""
        self._clear(self._occupied())

    def extract_and_reset(self) -> tuple[np.ndarray, np.ndarray]:
        occupied = self._occupied()
        values = self._dense[occupied]
        self._clear(occupied)
        return occupied, values

    def _clear(self, occupied: np.ndarray) -> None:
        self._dense[occupied] = self.semiring.identity
        self._touched.clear()

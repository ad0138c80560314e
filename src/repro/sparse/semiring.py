"""Algebraic semirings for graph traversal (Section 3.2).

A BFS level is ``x_{k+1} = A^T (x) x_k  .*  not(visited)`` over a
(select, max) semiring: "multiplication" selects the frontier value
(the parent id) attached to a nonzero, and "addition" combines competing
parents for the same row with ``max``.  Any associative, commutative,
idempotent-friendly combine works for BFS correctness; ``max`` makes every
kernel deterministic, so the SPA and heap paths produce bit-identical
results (handy for Figure 3's apples-to-apples comparison).

Swapping the combine changes what a traversal carries (the paper's own
motivation for the algebraic formulation):

* :data:`SELECT_MAX` — the paper's BFS semiring;
* :data:`BIT_OR` — bitwise OR over ``uint64`` lane words: bit *b* of a
  payload tracks source *b* of a 64-way batched traversal, so one
  scatter-combine advances 64 searches at once.  ``msbfs-1d`` resolves
  its lanes with a sort instead; a ``BIT_OR`` SPA is the oracle its
  tests and microbenchmarks hold that sort to.

Every instance is registered in :data:`SEMIRINGS` so kernels and tests
can enumerate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels

@dataclass(frozen=True)
class Semiring:
    """Reduction semiring acting on fixed-width integer payloads.

    Attributes
    ----------
    name:
        Identifier used in dispatch and reports.
    identity:
        The "zero": payload value meaning *no contribution* (must be
        absorbed by :meth:`combine`: ``combine(x, identity) == x``).
    """

    name: str
    identity: int

    #: Payload dtype of the dense accumulator and the value arrays; the
    #: lane-word semiring overrides this with ``uint64``.
    dtype = np.int64

    #: Reduction op name dispatched to :mod:`repro.kernels`
    #: (``scatter_reduce`` / ``reduce_runs``).
    kernel_op = "max"

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise combine of two payload arrays."""
        raise NotImplementedError

    def reduce_at(self, dense: np.ndarray, positions: np.ndarray, values: np.ndarray) -> None:
        """In-place scatter-combine ``dense[positions] (+)= values``."""
        kernels.scatter_reduce(dense, positions, values, self.kernel_op)

    def reduce_sorted_runs(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Combine values sharing a key (input order is irrelevant).

        Returns unique keys in ascending order with their combined values.
        """
        if keys.size == 0:
            return keys, values
        return kernels.reduce_runs(keys, values, self.kernel_op)


class _SelectMax(Semiring):
    """The paper's (select, max) semiring with identity -1."""

    kernel_op = "max"

    def __init__(self):
        super().__init__(name="select-max", identity=-1)

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.maximum(a, b)


class _BitOr(Semiring):
    """Bitwise-OR over ``uint64`` lane words; identity is the empty word.

    Bit *b* of every payload belongs to batched source *b*, and one OR
    combines all 64 lanes' reachability at once.
    """

    dtype = np.uint64
    kernel_op = "or"

    def __init__(self):
        super().__init__(name="bit-or", identity=0)

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.bitwise_or(a, b)


#: Singleton instance used throughout the 2D algorithm.
SELECT_MAX = _SelectMax()

#: Bitwise-OR lane-word semiring (64-way batched traversals).
BIT_OR = _BitOr()

#: Registry of every shipped semiring, keyed by name; the property tests
#: sweep this so a new semiring is algebra-checked the moment it lands.
SEMIRINGS: dict[str, Semiring] = {
    s.name: s for s in (SELECT_MAX, BIT_OR)
}

"""Sparse matrix - sparse vector multiplication kernels (Section 4.2).

The local computation of the 2D algorithm forms the union
``U_k A(:, k)`` over the frontier columns ``k``.  Two kernels, matching
the paper's design-space exploration:

* :func:`spmsv_spa` — scatter into a dense sparse-accumulator; fastest at
  low concurrency but with an ``O(n/pr)`` dense working set;
* :func:`spmsv_heap` — multiway merge of the (sorted) selected columns;
  pays a ``log k`` comparison factor but keeps memory ``O(nnz)``.

Both return identical results under the (select, max) semiring, plus a
:class:`SpMSVWork` record of the operations performed so the caller can
charge the memory model.  :func:`spmsv` is the polyalgorithm: Figure 3
locates the crossover near 10,000 cores, so the default predicate switches
on the modeled concurrency (and memory pressure).

The per-element combines run through the semiring's kernel ops
(:mod:`repro.kernels`: ``scatter_reduce`` for the SPA scatter,
``reduce_runs`` for the heap's run merge), so the pure-python
reference checks both SpMSV kernels too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sparse.dcsc import DCSC
from repro.sparse.semiring import SELECT_MAX, Semiring
from repro.sparse.spa import SPA

#: Concurrency beyond which the heap kernel wins (Figure 3: "a transition
#: point around 10000 cores ... after which the priority-queue approach is
#: more efficient, both in terms of speed and memory footprint").
SPA_HEAP_CROSSOVER_CORES = 10_000


@dataclass(frozen=True)
class SpMSVWork:
    """Operation counts of one local SpMSV (for the alpha-beta model).

    Attributes
    ----------
    candidates:
        (row, payload) pairs generated before merging — one per nonzero in
        a frontier column.
    lookups:
        Binary-search probes into ``JC``.
    merge_ws_words:
        Working-set size of the merge structure: the dense accumulator
        length for the SPA kernel, the candidate count for the heap.
    heap_k:
        Number of merged runs (frontier columns) for the heap kernel; 0
        for the SPA kernel.
    kernel:
        Which kernel ran (``"spa"`` / ``"heap"``).
    """

    candidates: int
    lookups: int
    merge_ws_words: int
    heap_k: int
    kernel: str

    @property
    def heap_comparisons(self) -> float:
        """Modeled comparison count of the multiway merge."""
        if self.kernel != "heap" or self.candidates == 0:
            return 0.0
        return self.candidates * math.log2(max(2, self.heap_k))


def spmsv_spa(
    block: DCSC,
    frontier_idx: np.ndarray,
    frontier_val: np.ndarray,
    semiring: Semiring = SELECT_MAX,
    spa: SPA | None = None,
) -> tuple[np.ndarray, np.ndarray, SpMSVWork]:
    """SPA-based kernel: scatter candidates into a dense accumulator."""
    rows, payload, lookups = block.extract_columns(frontier_idx, frontier_val)
    acc = spa if spa is not None else SPA(block.nrows, semiring)
    acc.accumulate(rows, payload)
    out_idx, out_val = acc.extract_and_reset()
    work = SpMSVWork(
        candidates=int(rows.size),
        lookups=lookups,
        merge_ws_words=block.nrows,
        heap_k=0,
        kernel="spa",
    )
    return out_idx, out_val, work


def spmsv_heap(
    block: DCSC,
    frontier_idx: np.ndarray,
    frontier_val: np.ndarray,
    semiring: Semiring = SELECT_MAX,
) -> tuple[np.ndarray, np.ndarray, SpMSVWork]:
    """Heap/merge-based kernel: k-way merge of the selected columns.

    The vectorized realization sorts the concatenated candidates by row
    and combines equal-row runs; the cost model charges it as the
    ``candidates * log2(k)`` unbalanced multiway merge the paper
    implements with a cache-efficient heap.
    """
    rows, payload, lookups = block.extract_columns(frontier_idx, frontier_val)
    out_idx, out_val = semiring.reduce_sorted_runs(rows, payload)
    work = SpMSVWork(
        candidates=int(rows.size),
        lookups=lookups,
        merge_ws_words=int(rows.size),
        heap_k=int(frontier_idx.size),
        kernel="heap",
    )
    return out_idx, out_val, work


def choose_spmsv_kernel(
    modeled_cores: int,
    spa_words: int | None = None,
    memory_budget_words: int | None = None,
) -> str:
    """Polyalgorithm predicate (Section 4.2).

    Prefers the SPA below the Figure-3 crossover, unless its dense vector
    would blow the per-core memory budget.  A budget can only be enforced
    against a known SPA working set, so passing ``memory_budget_words``
    without ``spa_words`` is an error rather than a silent no-op.
    """
    if memory_budget_words is not None:
        if spa_words is None:
            raise ValueError(
                "memory_budget_words requires spa_words (the SPA working-set "
                "size) to be enforceable"
            )
        if spa_words > memory_budget_words:
            return "heap"
    return "spa" if modeled_cores < SPA_HEAP_CROSSOVER_CORES else "heap"


def spmsv(
    block: DCSC,
    frontier_idx: np.ndarray,
    frontier_val: np.ndarray,
    semiring: Semiring = SELECT_MAX,
    kernel: str = "auto",
    modeled_cores: int = 1,
    memory_budget_words: int | None = None,
    spa: SPA | None = None,
    tracer=None,
) -> tuple[np.ndarray, np.ndarray, SpMSVWork]:
    """Dispatching SpMSV: ``kernel`` in {"auto", "spa", "heap"}.

    ``memory_budget_words`` caps the dense accumulator: ``"auto"`` falls
    back to the heap kernel when this block's SPA working set
    (``block.nrows`` words) would exceed it.  ``tracer`` is an optional
    :class:`~repro.obs.tracer.RankTracer`; when given, the kernel that
    actually ran (polyalgorithm choice included) is recorded as a
    zero-duration ``spmsv-kernel`` marker with its work counts, so a
    Chrome trace shows the SPA-vs-heap decision per level.
    """
    if kernel == "auto":
        kernel = choose_spmsv_kernel(
            modeled_cores,
            spa_words=block.nrows,
            memory_budget_words=memory_budget_words,
        )
    if kernel == "spa":
        out = spmsv_spa(block, frontier_idx, frontier_val, semiring, spa=spa)
    elif kernel == "heap":
        out = spmsv_heap(block, frontier_idx, frontier_val, semiring)
    else:
        raise ValueError(f"unknown SpMSV kernel {kernel!r}")
    if tracer is not None:
        work = out[2]
        tracer.instant(
            "spmsv-kernel",
            kernel=work.kernel,
            candidates=work.candidates,
            lookups=work.lookups,
        )
    return out

"""Sparse linear-algebra substrate (the CombBLAS-like layer, Section 4).

The 2D BFS formulates each level as a sparse matrix-sparse vector product
(SpMSV) over a (select, max) semiring:

* :class:`~repro.sparse.dcsc.DCSC` — doubly-compressed sparse columns, the
  O(nnz) structure required for hypersparse 2D blocks (a plain CSC would
  waste O(n * sqrt(p)) on column pointers; Section 4.1);
* :class:`~repro.sparse.spa.SPA` — the Gilbert-Moler-Schreiber sparse
  accumulator used for the column-union at low concurrency;
* :func:`~repro.sparse.spmsv.spmsv_heap` — the sort/merge-based kernel
  that wins past ~10K cores (Figure 3);
* :func:`~repro.sparse.spmsv.spmsv` — the polyalgorithm that picks
  between them (Section 4.2).
"""

from repro.sparse.dcsc import DCSC
from repro.sparse.semiring import (
    BIT_OR,
    SELECT_MAX,
    SEMIRINGS,
    Semiring,
)
from repro.sparse.spa import SPA
from repro.sparse.spmsv import (
    SpMSVWork,
    choose_spmsv_kernel,
    spmsv,
    spmsv_heap,
    spmsv_spa,
)

__all__ = [
    "BIT_OR",
    "DCSC",
    "SELECT_MAX",
    "SEMIRINGS",
    "Semiring",
    "SPA",
    "SpMSVWork",
    "choose_spmsv_kernel",
    "spmsv",
    "spmsv_heap",
    "spmsv_spa",
]

"""Hot-path kernels: the numpy implementations, under one name each.

Every per-element inner loop the traversals are built from lives in
this package, written twice:

* :mod:`repro.kernels.numpy_backend` — the vectorized kernels every run
  uses (a fixed few numpy passes per call — one (byte position, value)
  grid per varint stream, a pass per scan step or run — never one per
  value); this is what lets the simulator run R-MAT scale 18+ recipes in
  CI instead of topping out near scale 16.  This module
  re-exports them, so ``kernels.dedup_max`` *is*
  ``numpy_backend.dedup_max`` and each kernel's contract is the
  docstring on that function;
* :mod:`repro.kernels.reference` — pure-python per-element loops, the
  executable specification.  Nothing in ``src/`` imports it: it is the
  oracle the tests compare against, not a way to run.

**The bit-identity contract.**  For any input, both modules return the
same values with the same dtypes and raise the same error messages (the
reference coerces its python lists back to numpy arrays).
``tests/test_kernels_differential.py`` holds every kernel to that case
by case, and ``tests/test_property_kernels.py`` re-runs every registered
algorithm with the reference swapped in (the ``reference_kernels``
fixture of ``tests/conftest.py``) and compares parents, levels, modeled
times and wire words.  Callers therefore say ``from repro import
kernels`` and look the name up at call time — ``kernels.dedup_max(...)``
— which is the one seam that fixture needs.

Adding a kernel: write the numpy function (with its contract
docstring), write the reference function, add the name to
:data:`KERNELS` and to the import below, and register a differential
case (the coverage meta-test fails on any :data:`KERNELS` entry without
one).
"""

from __future__ import annotations

from repro.kernels.numpy_backend import (
    MAX_VARINT_BYTES,
    bucket_by_owner,
    dedup_max,
    delta_decode,
    delta_encode,
    group_by_owner,
    lane_prune,
    lane_prune_by_source,
    lane_winners,
    last_hit_scan,
    pack_bitmap,
    pack_pairs,
    popcount,
    range_gather,
    reduce_runs,
    scatter_reduce,
    source_runs,
    unique_sorted,
    unpack_bitmap,
    unpack_pairs,
    varint_decode,
    varint_encode,
    varint_sizes,
)

#: Every kernel, by name.  The differential suite, its coverage
#: meta-test and the ``reference_kernels`` fixture iterate this, so a
#: kernel added here without a reference twin or a differential case
#: fails the suite.
KERNELS = (
    "dedup_max",
    "reduce_runs",
    "scatter_reduce",
    "group_by_owner",
    "bucket_by_owner",
    "pack_pairs",
    "unpack_pairs",
    "range_gather",
    "pack_bitmap",
    "unpack_bitmap",
    "popcount",
    "last_hit_scan",
    "lane_winners",
    "lane_prune",
    "lane_prune_by_source",
    "source_runs",
    "unique_sorted",
    "varint_sizes",
    "varint_encode",
    "varint_decode",
    "delta_encode",
    "delta_decode",
)

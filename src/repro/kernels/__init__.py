"""Backend-switchable hot-path kernels (pure-python reference + numpy).

Every per-element inner loop the traversals are built from lives here,
as a *pair* of implementations behind one dispatching facade:

* :mod:`repro.kernels.numpy_backend` — the vectorized production
  kernels (one numpy pass per byte position / scan step / run, never
  one per value); this is what lets the simulator run R-MAT scale 18+
  recipes in CI instead of topping out near scale 16;
* :mod:`repro.kernels.reference` — pure-python per-element loops, the
  executable specification the numpy kernels are differentially tested
  against (``tests/test_kernels_differential.py``).

**The bit-identity contract.**  For any input, both backends return the
same values with the same dtypes (the reference backend coerces its
python lists back to numpy arrays).  The traversal results — parents,
levels, modeled times, wire words, trace spans — are therefore identical
under either backend; only wall-clock changes.  ``tests/test_property_kernels.py`` locks this in for every
registered algorithm, and the golden fixtures of ``tests/golden/`` pin
the numpy backend to the pre-refactor behaviour bit for bit.

**Choosing a backend.**  The ``REPRO_KERNELS`` environment variable
selects ``"numpy"`` (the default) or ``"python"`` at process start;
:func:`set_backend` / :func:`use_backend` switch at runtime (the tests'
mechanism).

Adding a kernel pair: implement the same function in both backend
modules, add its name to :data:`KERNELS`, write a dispatching wrapper
below, and register a differential case for it in
``tests/test_kernels_differential.py`` (the coverage meta-test there
fails on any :data:`KERNELS` entry without one).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Environment variable naming the startup backend.
ENV_VAR = "REPRO_KERNELS"

#: A 64-bit value needs at most ceil(64 / 7) = 10 LEB128 bytes; both
#: backends define the same constant, re-exported here for callers.
MAX_VARINT_BYTES = 10

#: Recognized backend names, preference order.
BACKENDS = ("numpy", "python")

#: Every dispatched kernel, by facade name.  The differential suite and
#: its coverage meta-test iterate this, so a kernel added here without a
#: paired implementation or a differential case fails the suite.
KERNELS = (
    "dedup_max",
    "reduce_runs",
    "scatter_reduce",
    "group_by_owner",
    "bucket_by_owner",
    "pack_pairs",
    "unpack_pairs",
    "pack_bitmap",
    "unpack_bitmap",
    "popcount",
    "last_hit_scan",
    "lane_winners",
    "lane_prune",
    "unique_sorted",
    "varint_sizes",
    "varint_encode",
    "varint_decode",
    "delta_encode",
    "delta_decode",
)

_active_name: str | None = None
_active_mod = None


def _resolve_startup_backend() -> str:
    """Apply the ``REPRO_KERNELS`` policy: numpy unless told otherwise."""
    choice = os.environ.get(ENV_VAR, "").strip().lower()
    if choice and choice not in BACKENDS:
        raise ValueError(
            f"{ENV_VAR}={choice!r} is not a kernel backend; "
            f"known: {sorted(BACKENDS)}"
        )
    return choice or "numpy"


def _load(name: str):
    if name == "numpy":
        from repro.kernels import numpy_backend as mod
    else:
        from repro.kernels import reference as mod
    return mod


def _mod():
    """The active backend module, resolving the startup policy lazily."""
    global _active_name, _active_mod
    if _active_mod is None:
        _active_name = _resolve_startup_backend()
        _active_mod = _load(_active_name)
    return _active_mod


def active_backend() -> str:
    """Name of the backend kernel calls currently dispatch to."""
    _mod()
    return _active_name


def set_backend(name: str | None) -> str:
    """Switch the kernel backend at runtime.

    ``name`` is ``"numpy"``, ``"python"``, or ``None`` to re-apply the
    ``REPRO_KERNELS`` startup policy.  Returns the active name.
    """
    global _active_name, _active_mod
    if name is None:
        _active_name = None
        _active_mod = None
        _mod()
        return _active_name
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {sorted(BACKENDS)}"
        )
    _active_mod = _load(name)
    _active_name = name
    return _active_name


@contextmanager
def use_backend(name: str):
    """Context manager pinning the backend, restoring the previous one."""
    previous = active_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


# -- dispatching facade -------------------------------------------------------
#
# One thin wrapper per kernel; signatures and semantics are documented
# here once, authoritative for both backends.

def dedup_max(targets, parents):
    """Collapse duplicate targets keeping the maximum parent.

    Returns ``(unique targets ascending, max parent per target)`` as
    int64 arrays — the (select, max) rule every algorithm in the repo
    shares, so results are deterministic.
    """
    return _mod().dedup_max(targets, parents)


def reduce_runs(keys, values, op: str):
    """Combine values sharing a key; keys return unique and ascending.

    ``op`` is ``"max"`` (int64), ``"min"`` (int64) or ``"or"``
    (uint64 lane words).  Input order is irrelevant.
    """
    return _mod().reduce_runs(keys, values, op)


def scatter_reduce(dense, positions, values, op: str) -> None:
    """In-place ``dense[positions] (+)= values`` under ``op``.

    The SPA / semiring scatter: ``op`` in ``{"max", "min", "or"}``;
    ``"or"`` is the 64-lane ``uint64`` OR path of the batched
    traversals.  Positions may repeat; the combine is applied per
    occurrence (order-insensitive for these ops).
    """
    return _mod().scatter_reduce(dense, positions, values, op)


def group_by_owner(owners, nbuckets: int, *arrays):
    """Order parallel arrays by destination rank (stable counting sort).

    Returns ``(grouped, counts)``: each array reordered owner-major
    with input order kept inside an owner — Algorithm 2's one send
    array — plus the int64 per-owner counts that segment it.  Raises
    ``ValueError`` when an owner falls outside ``[0, nbuckets)``.
    """
    return _mod().group_by_owner(owners, nbuckets, *arrays)


def bucket_by_owner(owners, nbuckets: int, *arrays):
    """:func:`group_by_owner`, split at the owner boundaries.

    Returns ``(grouped, counts)``: one tuple of sub-arrays per bucket in
    bucket order, plus the int64 per-bucket counts.  Raises
    ``ValueError`` when an owner falls outside ``[0, nbuckets)``.
    """
    return _mod().bucket_by_owner(owners, nbuckets, *arrays)


def pack_pairs(vertices, parents):
    """Interleave (vertex, parent) into one ``[v0, p0, v1, p1, ...]``
    int64 wire buffer; raises ``ValueError`` on length mismatch."""
    return _mod().pack_pairs(vertices, parents)


def unpack_pairs(buf):
    """Inverse of :func:`pack_pairs`; raises ``ValueError`` on odd
    length."""
    return _mod().unpack_pairs(buf)


def pack_bitmap(vertices, lo: int, nbits: int):
    """Pack local vertex ids in ``[lo, lo + nbits)`` into little-endian
    64-bit bitmap words (bit ``v - lo`` set per vertex)."""
    return _mod().pack_bitmap(vertices, lo, nbits)


def unpack_bitmap(words, nbits: int):
    """Inverse of :func:`pack_bitmap`: words -> boolean mask of
    ``nbits`` entries."""
    return _mod().unpack_bitmap(words, nbits)


def popcount(words):
    """Per-word set-bit count of a ``uint64`` array (int64 result)."""
    return _mod().popcount(words)


def last_hit_scan(hits, starts, counts):
    """Last hit position of each run of a concatenated scan, -1 if none.

    ``hits`` is one boolean per scanned candidate (frontier-bitmap
    membership of each adjacency), runs are ``[starts[i], starts[i] +
    counts[i])`` and tile ``hits`` contiguously with ``counts >= 1``.
    Returns the int64 *global* position of each run's last hit — the
    early-exit landing spot of the dirop bottom-up reverse scan, i.e.
    the maximum frontier neighbour of a sorted adjacency list.
    """
    return _mod().last_hit_scan(hits, starts, counts)


def lane_winners(targets, sources, words, nlanes: int):
    """Resolve every lane's (select, max) race among (target, source,
    word) triples in one pass.

    Returns ``(targets int64, sources int64, words uint64, wins
    uint64)`` in (target asc, source desc) order, equal pairs keeping
    their input order.  Bit ``b < nlanes`` of ``wins[i]`` is set iff
    candidate ``i`` carries lane ``b`` and no earlier candidate of its
    target does — it is lane ``b``'s maximum-source contributor — so
    every (target, lane) slot some word carries is won exactly once.
    ``words`` come back as given; bits at or above ``nlanes`` never win.
    """
    return _mod().lane_winners(targets, sources, words, nlanes)


def lane_prune(targets, sources, words, nlanes: int):
    """Sender-side lane-dominance prune of (target, source, word) triples.

    Keeps a candidate iff it is the maximum-source contributor of at
    least one lane of its target — :func:`lane_winners` rows whose
    ``wins`` word is nonzero, in the same (target asc, source desc)
    order.  Returns ``(targets int64, sources int64, words uint64)``.
    """
    return _mod().lane_prune(targets, sources, words, nlanes)


def unique_sorted(values):
    """Sorted unique int64 values (the SPA's touched-index sort)."""
    return _mod().unique_sorted(values)


def varint_sizes(values):
    """LEB128-encoded byte count of each 64-bit value (int64 array)."""
    return _mod().varint_sizes(values)


def varint_encode(values):
    """LEB128-encode 64-bit values into a ``uint8`` stream."""
    return _mod().varint_encode(values)


def varint_decode(stream):
    """Inverse of :func:`varint_encode`; int64 values.  Raises
    ``ValueError`` on truncation or over-length varints."""
    return _mod().varint_decode(stream)


def delta_encode(sorted_values):
    """First value absolute, the rest consecutive differences (int64)."""
    return _mod().delta_encode(sorted_values)


def delta_decode(deltas):
    """Inverse of :func:`delta_encode` with uint64 wraparound semantics
    (matching the vectorized unsigned cumulative sum)."""
    return _mod().delta_decode(deltas)

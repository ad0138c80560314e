"""Differential tests: every numpy kernel against its python reference.

Each :data:`repro.kernels.KERNELS` entry carries a battery of cases —
randomized plus the adversarial shapes the hot paths actually hit (empty
frontier, single vertex, all-ones bitmap, lane word ``0`` and ``2**63``,
owner boundaries at ``p`` not dividing ``n``) — and every case is run
through *both* implementation modules, ``numpy_backend`` and
``reference``, asserting the results are bit-identical: same values,
same dtypes, same error messages.  The coverage meta-test at the bottom
fails the suite when a kernel is added to
:data:`~repro.kernels.KERNELS` without a differential case, mirroring
the registry coverage pattern of ``tests/test_registry_coverage.py``.
"""

from __future__ import annotations

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.kernels import numpy_backend, reference

#: The two implementations of every kernel, by the name the case ids use.
MODULES = {"numpy": numpy_backend, "python": reference}
BACKENDS = sorted(MODULES)

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def _rng(tag: str):
    """Deterministic per-case generator (stable across runs and backends)."""
    return np.random.default_rng(zlib.crc32(tag.encode()))


def _i64(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _u64(*values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


#: Every varint byte-count edge: ``2**(7k) - 1`` takes k bytes and
#: ``2**(7k)`` takes k + 1, for k = 1..9 (``2**63`` is the int64 minimum).
VARINT_EDGES = _u64(
    *(v for k in range(1, 10) for v in ((1 << (7 * k)) - 1, 1 << (7 * k)))
).view(np.int64)


# -- case table ---------------------------------------------------------------
#
# kernel name -> {case name -> zero-arg factory returning the call args}.
# Factories return *fresh* arrays on every call so the in-place kernel
# (scatter_reduce) cannot leak state between the two backend runs.

def _random_pairs(tag, n, nkeys, lo=0, hi=1000):
    rng = _rng(tag)
    return (
        rng.integers(0, nkeys, n),
        rng.integers(lo, hi, n),
    )


def _lhs_random(tag):
    """Random runs tiling ``hits`` exactly (the kernel's contract)."""
    rng = _rng(tag)
    counts = rng.integers(1, 9, 30)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    hits = rng.random(int(counts.sum())) < 0.2
    return hits, starts, counts


def _scatter_args(tag, op, length=24, n=70, dtype=np.int64):
    rng = _rng(tag)
    identity = {"max": -1, "or": 0}[op]
    dense = np.full(length, identity, dtype=dtype)
    positions = rng.integers(0, length, n)
    if dtype == np.uint64:
        values = rng.integers(0, I64_MAX, n, dtype=np.uint64) | np.uint64(1 << 63)
    else:
        values = rng.integers(0, 1 << 40, n)
    return dense, positions, values, op

def _lane_triples(tag, n, ntargets, nlanes, nsources=100):
    """Random (target, source, word, nlanes) with duplicate contenders
    per (target, lane) and lane bits above ``nlanes`` left set."""
    rng = _rng(tag)
    return (
        rng.integers(0, ntargets, n),
        rng.integers(0, nsources, n),
        rng.integers(0, I64_MAX, n, dtype=np.uint64) << np.uint64(1),
        nlanes,
    )


def _hub_run(tag, length):
    """One hub target with ``length`` contenders between short runs.
    Lane 0 rides only on its lowest and its highest source, so the
    lowest loses it only if the suffix scan reaches across the whole run
    (nine doubling passes, off = 1 .. 256, for a run over 256)."""
    rng = _rng(tag)
    sources = rng.permutation(length)
    words = rng.integers(0, I64_MAX, length, dtype=np.uint64) & ~np.uint64(1)
    words[(sources == 0) | (sources == length - 1)] |= np.uint64(1)
    return (
        np.concatenate([_i64(0, 0), np.full(length, 5), _i64(9)]),
        np.concatenate([_i64(4, 1), sources, _i64(2)]),
        np.concatenate([_u64(3, 1), words, _u64(7)]),
        64,
    )


def _rank_pieces(tag, nranks, per_rank, span, swap=False):
    """An owner's received triples: pieces in rank order, rank ``r``'s
    sources in its own range and its rows in wire order — or, with
    ``swap``, the first two pieces exchanged, so the narrow by-target
    sort must give way to the full key."""
    rng = _rng(tag)
    pieces = []
    for r in range(nranks):
        targets = rng.integers(0, span, per_rank)
        sources = rng.integers(100 * r, 100 * r + 100, per_rank)
        order = np.lexsort((sources, targets))
        pieces.append((targets[order], sources[order]))
    if swap:
        pieces[0], pieces[1] = pieces[1], pieces[0]
    return (
        np.concatenate([t for t, _ in pieces]),
        np.concatenate([s for _, s in pieces]),
        rng.integers(0, I64_MAX, nranks * per_rank, dtype=np.uint64) << np.uint64(1),
        64,
    )


def _source_words(tag, n, ntargets, nsources, base, nlanes, tspan=None):
    """(target, source, per-source word table, base, nlanes), with
    repeated (target, source) rows as a non-canonical CSR gathers them."""
    rng = _rng(tag)
    targets = rng.integers(0, ntargets, n)
    if tspan is not None:
        targets = targets * tspan
    sources = rng.integers(base, base + nsources, n)
    dup = rng.integers(0, n, n // 4)
    targets[dup[1:]], sources[dup[1:]] = targets[dup[:-1]], sources[dup[:-1]]
    table = rng.integers(0, I64_MAX, nsources, dtype=np.uint64) << np.uint64(1)
    return targets, sources, table, base, nlanes


def _sieved(tag, n, ntargets, nsources, base, nlanes, tspan=None, density=0.5):
    """:func:`_source_words` plus a ``shipped`` word per target id, each
    bit below ``nlanes`` set with probability ``density``."""
    targets, sources, table, base, nlanes = _source_words(
        tag, n, ntargets, nsources, base, nlanes, tspan
    )
    rng = _rng(tag + "-shipped")
    shipped = np.zeros(int(targets.max()) + 1 + int(rng.integers(0, 3)), dtype=np.uint64)
    hit = np.unique(targets)
    bits = rng.random((hit.size, 64)) < density
    shipped[hit] = np.packbits(bits, axis=1, bitorder="little").view(np.uint64).ravel()
    return targets, sources, table, base, nlanes, shipped


def _run_args(tag, n, bounds, nsources, base=0, spread=1, ordered=False):
    """(target, source, bounds) candidates of one sender, with repeated
    (target, source) rows; ``ordered`` puts them in the lane prune's
    (target, source) order, ``spread`` widens the source span."""
    rng = _rng(tag)
    bounds = _i64(*bounds)
    targets = rng.integers(bounds[0], bounds[-1], n)
    sources = base + rng.integers(0, nsources, n) * spread
    dup = rng.integers(0, n, n // 4)
    targets[dup[1:]], sources[dup[1:]] = targets[dup[:-1]], sources[dup[:-1]]
    if ordered:
        order = np.lexsort((sources, targets))
        targets, sources = targets[order], sources[order]
    return targets, sources, bounds


def _range_gather_args(tag):
    rng = _rng(tag)
    counts = rng.integers(0, 12, 40)
    return rng.integers(0, 500, 40), counts


CASES: dict[str, dict] = {
    "dedup_max": {
        "empty": lambda: (_i64(), _i64()),
        "single-vertex": lambda: (_i64(7), _i64(3)),
        "dup-heavy": lambda: _random_pairs("dedup-dup", 300, 20),
        "all-same-target": lambda: (
            np.zeros(50, dtype=np.int64),
            _rng("dedup-same").permutation(50),
        ),
        # Target span <= DENSE_SPAN_FACTOR * N: the scatter-max branch.
        "dense-unsorted-dups": lambda: (
            _rng("dedup-dense").integers(100, 400, 1000),
            _rng("dedup-dense-p").integers(0, 1 << 40, 1000),
        ),
        "dense-negative-parents": lambda: (
            _rng("dedup-dense-neg").integers(-30, 20, 300),
            _rng("dedup-dense-neg-p").integers(-1000, 1000, 300),
        ),
        "negative-parent-dense": lambda: (
            _i64(5, 5, 2, 2), _i64(-1, 3, 7, -1)
        ),
        "huge-parents-dense": lambda: (
            _i64(3, 3, 1), _i64(I64_MAX - 1, I64_MAX, 1 << 62)
        ),
        # ``pmin - 1`` would wrap: dense span, but the fallback must run.
        "int64-min-parent": lambda: (
            _i64(0, 1, 1, 2), _i64(I64_MIN, 5, I64_MIN, I64_MIN)
        ),
        # The accumulator's edges: int32 while ``pmin - 1`` and ``pmax``
        # fit, int64 past either; outputs stay int64 on both.
        "int32-accumulator-lowest-pmin": lambda: (
            _i64(4, 4, 5, 6), _i64(-(2**31) + 1, 9, -(2**31) + 1, 2**31 - 1)
        ),
        "int64-accumulator-pmin": lambda: (_i64(4, 4, 5, 6), _i64(-(2**31), 9, 3, 2)),
        "int64-accumulator-pmax": lambda: (_i64(4, 4, 5, 6), _i64(0, 2**31, 3, 2)),
        # Slots from 0 (0 < tmin < span) and offset slots (tmin >= span).
        "dense-low-targets": lambda: (
            _rng("dedup-low").integers(3, 40, 120), _rng("dedup-low-p").integers(0, 99, 120)
        ),
        "dense-offset-targets": lambda: (
            _rng("dedup-off").integers(10**6, 10**6 + 40, 120),
            _rng("dedup-off-p").integers(-99, 99, 120),
        ),
        "single-candidate": lambda: (_i64(1 << 40), _i64(-5)),
        "one-repeated-target": lambda: (
            np.full(40, 9, dtype=np.int64), _rng("dedup-rep").integers(-50, 50, 40)
        ),
        # Span > DENSE_SPAN_FACTOR * N: the composite-key sort ...
        "sparse-keys": lambda: (
            _rng("dedup-sparse").choice(
                _rng("dedup-sparse-k").integers(0, 10**6, 50), 200
            ),
            _rng("dedup-sparse-p").integers(0, 1000, 200),
        ),
        # Very negative targets: keyed on ``targets - tmin``, no wrap.
        "negative-targets-composite-sort": lambda: (
            _i64(-(2**62) - 5, 3, -(2**62) - 5, 7), _i64(1, 2, 3, 0)
        ),
        # ... and, when the composite key cannot hold the parents, lexsort.
        "negative-parent-lexsort-path": lambda: (
            _i64(5000, 5000, 2, 2), _i64(-1, 3, 7, -1)
        ),
        "huge-parents-lexsort-path": lambda: (
            _i64(3000, 3000, 1), _i64(I64_MAX - 1, I64_MAX, 1 << 62)
        ),
    },
    "reduce_runs": {
        "empty-or": lambda: (_i64(), _u64(), "or"),
        "max": lambda: (*_random_pairs("rr-max", 200, 15), "max"),
        "or-lane-words": lambda: (
            _rng("rr-or").integers(0, 12, 150),
            _rng("rr-or-w").integers(0, I64_MAX, 150, dtype=np.uint64),
            "or",
        ),
        "or-high-bit": lambda: (
            _i64(4, 4, 4), _u64(1 << 63, 1, 0), "or"
        ),
    },
    "scatter_reduce": {
        "max": lambda: _scatter_args("sc-max", "max"),
        "or-64-lane": lambda: _scatter_args("sc-or", "or", dtype=np.uint64),
        "empty": lambda: (
            np.full(8, -1, dtype=np.int64), _i64(), _i64(), "max"
        ),
    },
    "bucket_by_owner": {
        "empty": lambda: (_i64(), 5, _i64(), _i64()),
        "single-vertex": lambda: (_i64(2), 4, _i64(9), _i64(1)),
        "boundaries-p-not-dividing-n": lambda: (
            # n = 53 vertices over p = 7 owners: boundary owners 0 and
            # p-1 both occupied, uneven bucket sizes.
            _rng("bucket").integers(0, 7, 53), 7,
            np.arange(53, dtype=np.int64),
            _rng("bucket-p").integers(0, 100, 53),
        ),
        "mixed-dtypes": lambda: (
            _i64(1, 0, 1, 2), 3,
            _i64(10, 11, 12, 13),
            _u64(1 << 63, 0, 1, 7),
        ),
        "empty-buckets": lambda: (
            _i64(3, 3, 3), 9, _i64(1, 2, 3)
        ),
    },
    "pack_pairs": {
        "empty": lambda: (_i64(), _i64()),
        "single": lambda: (_i64(4), _i64(-1)),
        "random": lambda: _random_pairs("pack", 80, 500),
    },
    "unpack_pairs": {
        "empty": lambda: (_i64(),),
        "roundtrip": lambda: (
            kernels.pack_pairs(*_random_pairs("unpack", 60, 400)),
        ),
    },
    "range_gather": {
        "empty": lambda: (_i64(), _i64()),
        "all-empty-ranges": lambda: (_i64(4, 0, 9), _i64(0, 0, 0)),
        "single-range": lambda: (_i64(5), _i64(3)),
        # A CSR frontier gather: ranges in any order, some empty,
        # overlapping and repeated (a vertex twice in the frontier).
        "unordered-overlapping": lambda: _range_gather_args("rg-csr"),
        "first-and-last-empty": lambda: (_i64(3, 10, 2, 7), _i64(0, 4, 2, 0)),
    },
    "pack_bitmap": {
        "empty-frontier": lambda: (_i64(), 0, 130),
        "single-vertex": lambda: (_i64(64), 0, 65),
        "all-ones": lambda: (np.arange(130, dtype=np.int64), 0, 130),
        "offset-range": lambda: (
            _rng("pb").integers(1000, 1130, 40), 1000, 130
        ),
        "last-bit": lambda: (_i64(127), 0, 128),
    },
    "unpack_bitmap": {
        "zero-bits": lambda: (_u64(), 0),
        "all-ones": lambda: (
            np.full(3, (1 << 64) - 1, dtype=np.uint64), 130
        ),
        "word-zero": lambda: (_u64(0, 0), 100),
        "high-bit": lambda: (_u64(1 << 63), 64),
        "roundtrip": lambda: (
            kernels.pack_bitmap(
                _rng("ub").integers(0, 200, 70), 0, 200
            ),
            200,
        ),
    },
    "popcount": {
        "empty": lambda: (_u64(),),
        "word-zero": lambda: (_u64(0),),
        "high-bit": lambda: (_u64(1 << 63),),
        "all-ones-word": lambda: (_u64((1 << 64) - 1),),
        "random": lambda: (
            _rng("pc").integers(0, I64_MAX, 64, dtype=np.uint64),
        ),
    },
    "last_hit_scan": {
        "empty": lambda: (np.zeros(0, dtype=bool), _i64(), _i64()),
        "no-hits": lambda: (
            np.zeros(10, dtype=bool), _i64(0, 4), _i64(4, 6)
        ),
        "all-hits": lambda: (
            np.ones(10, dtype=bool), _i64(0, 4), _i64(4, 6)
        ),
        "single-element-runs": lambda: (
            np.array([True, False, True], dtype=bool),
            _i64(0, 1, 2),
            _i64(1, 1, 1),
        ),
        "random": lambda: _lhs_random("lhs"),
    },
    "lane_winners": {
        "empty": lambda: (_i64(), _i64(), _u64(), 64),
        "single": lambda: (_i64(3), _i64(9), _u64(5), 64),
        "all-ones-word": lambda: (
            _i64(2, 2, 2), _i64(4, 6, 5), _u64((1 << 64) - 1, 1, 1 << 63), 64
        ),
        "bit-63": lambda: (
            _i64(7, 7, 7), _i64(9, 8, 7), _u64(1 << 63, 1 << 63, 1), 64
        ),
        "nlanes-1": lambda: _lane_triples("lw-1", 120, 10, 1),
        "nlanes-63": lambda: _lane_triples("lw-63", 200, 12, 63),
        "nlanes-64": lambda: _lane_triples("lw-64", 200, 12, 64),
        "hub-run-over-64": lambda: (
            # 150 contenders for one target beside two short runs: the
            # doubling scan crosses eight steps and most of the run wins
            # nothing.
            np.concatenate([np.full(150, 5), _i64(1, 9, 9)]),
            np.concatenate([_rng("lw-hub").permutation(150), _i64(3, 2, 8)]),
            _rng("lw-hub-w").integers(0, I64_MAX, 153, dtype=np.uint64),
            64,
        ),
        "hub-run-over-256": lambda: _hub_run("lw-hub300", 300),
        "all-singleton-runs": lambda: (
            # No two candidates share a target: the scan loop never runs.
            _rng("lw-singletons").permutation(40),
            _rng("lw-singletons-s").integers(0, 100, 40),
            _rng("lw-singletons-w").integers(0, I64_MAX, 40, dtype=np.uint64),
            64,
        ),
        "n-1-bits-above-nlanes": lambda: (
            _i64(11), _i64(-4), _u64((1 << 64) - 1), 3
        ),
        "bits-above-nlanes": lambda: (
            _i64(4, 4, 4), _i64(3, 2, 1), _u64(1 << 8, (1 << 9) | 1, 3), 8
        ),
        "bits-at-and-above-nlanes-in-runs": lambda: (
            # Every word carries bit ``nlanes`` and up; only bits 0-4 race.
            _rng("lw-above").integers(0, 6, 60),
            _rng("lw-above-s").integers(0, 30, 60),
            _rng("lw-above-w").integers(0, I64_MAX, 60, dtype=np.uint64)
            | np.uint64(((1 << 64) - 1) ^ 31),
            5,
        ),
        "equal-pairs-keep-input-order": lambda: (
            _i64(6, 6, 6, 6), _i64(2, 5, 2, 5), _u64(1, 2, 3, 6), 64
        ),
        "exact-duplicate-different-words": lambda: (
            # (4, 7) three times with different words: each shared lane
            # goes to its last carrier in input order.
            _i64(4, 4, 4, 4), _i64(7, 7, 2, 7), _u64(0b0111, 0b0011, 0b1111, 0b0001), 64
        ),
        "negative-ids": lambda: (
            _i64(-3, -3, 2, -3), _i64(-1, -7, 0, 4), _u64(3, 3, 1, 2), 64
        ),
        "packed-key-fills-64-bits": lambda: (
            # 32 target bits + 30 source bits + 2 position bits.
            _i64((1 << 32) - 1, 0, (1 << 32) - 1, 0),
            _i64(0, (1 << 30) - 1, (1 << 30) - 1, 0),
            _u64(1, 1, 3, 3),
            64,
        ),
        "int64-wrap-lexsort-path": lambda: (
            _i64(I64_MAX, 0, I64_MAX, 0, I64_MIN),
            _i64(I64_MIN, I64_MAX, I64_MAX, I64_MIN, 0),
            _u64(1, 3, 2, 7, 5),
            64,
        ),
        "wide-targets-lexsort-path": lambda: (
            _i64(1 << 62, 0, 1 << 62), _i64(5, 1 << 40, 9), _u64(1, 1, 3), 2
        ),
        "rank-ordered-pieces": lambda: _rank_pieces("lw-ranks", 4, 60, 25),
        "rank-ordered-pieces-swapped": lambda: _rank_pieces("lw-swap", 4, 60, 25, swap=True),
        "rank-ordered-key-over-32-bits": lambda: (
            # 27 target bits + 6 position bits: the by-target key is uint64.
            np.concatenate([_i64(0, 1 << 26, (1 << 27) - 1)] * 20),
            np.repeat(np.arange(20), 3),
            _rng("lw-wide").integers(0, I64_MAX, 60, dtype=np.uint64),
            64,
        ),
    },
    "lane_prune_by_source": {
        "empty": lambda: (_i64(), _i64(), _u64(1, 2), 0, 64),
        "single": lambda: (_i64(3), _i64(9), _u64(5), 9, 64),
        "duplicate-rows": lambda: _source_words("lps-dup", 120, 12, 20, 40, 64),
        "nlanes-1": lambda: _source_words("lps-1", 90, 10, 15, 0, 1),
        "nlanes-37": lambda: _source_words("lps-37", 150, 9, 30, 7, 37),
        "negative-base": lambda: _source_words("lps-neg", 80, 6, 12, -20, 64),
        "key-over-32-bits": lambda: _source_words("lps-64", 100, 8, 500, 3, 64, tspan=1 << 26),
        "key-over-64-bits-lexsort-path": lambda: (
            # A 64-bit target span and a source bit: past any one key.
            _i64(I64_MAX, I64_MIN, I64_MAX, I64_MIN, 0),
            _i64(-5, -4, -4, -5, -4),
            _u64(3, 1 << 63),
            -5,
            64,
        ),
        "table-zero-words": lambda: (
            _i64(4, 4, 2), _i64(1, 0, 1), _u64(0, 6), 0, 64
        ),
        # The lane sieve: ``shipped`` is the sixth argument, updated in
        # place (the differential test compares it too).
        "sieve-empty": lambda: (_i64(), _i64(), _u64(1, 2), 0, 64, _u64(7, 7)),
        "sieve-nothing-shipped": lambda: _sieved("lps-s0", 120, 12, 20, 40, 64, density=0),
        "sieve-everything-shipped": lambda: _sieved("lps-s1", 120, 12, 20, 40, 64, density=1),
        "sieve-half-shipped": lambda: _sieved("lps-s5", 200, 15, 30, 0, 64),
        "sieve-nlanes-5": lambda: _sieved("lps-s-5", 150, 9, 30, 7, 5),
        "sieve-key-over-32-bits": lambda: _sieved(
            # 17 target bits + 16 source bits.
            "lps-s64", 100, 8, 1 << 16, 3, 64, tspan=1 << 14
        ),
        "sieve-one-run-fully-shipped": lambda: (
            # Target 3's run is fully shipped; target 5 keeps lane 2 only.
            _i64(3, 3, 5, 5), _i64(1, 0, 0, 1), _u64(0b011, 0b110), 0, 64,
            _u64(0, 0, 0, 0b111, 0, 0b011),
        ),
    },
    "source_runs": {
        "empty": lambda: (_i64(), _i64(), _i64(0, 4, 9)),
        "single": lambda: (_i64(5), _i64(2), _i64(0, 4, 9)),
        "one-destination": lambda: _run_args("sr-one", 40, (3, 20), 6),
        "pruned-order": lambda: _run_args(
            "sr-pruned", 150, (0, 7, 7, 19, 40), 25, base=100, ordered=True
        ),
        "unordered-empty-ranges": lambda: _run_args(
            "sr-unordered", 150, (5, 5, 16, 16, 30, 31), 12
        ),
        "negative-ids": lambda: _run_args("sr-neg", 90, (-40, -25, -3, 8), 9, base=-60),
        "key-over-32-bits": lambda: _run_args(
            "sr-32", 80, (0, 10, 20), 50, spread=1 << 30, ordered=True
        ),
        "key-over-64-bits-lexsort-path": lambda: (
            # A 64-bit source span: past any one key.
            _i64(4, 1, 4, 6, 1, 4),
            _i64(I64_MAX, I64_MIN, I64_MIN, 0, I64_MIN, I64_MAX),
            _i64(0, 3, 3, 8),
        ),
    },
    "lane_prune": {
        "empty": lambda: (_i64(), _i64(), _u64(), 64),
        "single": lambda: (_i64(3), _i64(9), _u64(5), 64),
        "lane-word-zero": lambda: (
            _i64(1, 1, 2), _i64(5, 4, 3), _u64(0, 1, 0), 64
        ),
        "lane-word-high-bit": lambda: (
            _i64(7, 7, 7), _i64(9, 8, 7),
            _u64(1 << 63, 1 << 63, 1), 64,
        ),
        "bits-above-nlanes-masked": lambda: (
            _i64(4, 4), _i64(2, 1), _u64(1 << 8, 1), 8
        ),
        "random": lambda: (
            _rng("lp-t").integers(0, 30, 200),
            _rng("lp-s").integers(0, 100, 200),
            _rng("lp-w").integers(0, I64_MAX, 200, dtype=np.uint64),
            64,
        ),
    },
    "unique_sorted": {
        "empty": lambda: (_i64(),),
        "dups": lambda: (_rng("uq").integers(0, 25, 200),),
    },
    "varint_sizes": {
        "empty": lambda: (_i64(),),
        "thresholds": lambda: (
            _i64(0, 1, 127, 128, (1 << 14) - 1, 1 << 14, I64_MAX, -1, I64_MIN),
        ),
        "random": lambda: (
            _rng("vs").integers(I64_MIN, I64_MAX, 100),
        ),
    },
    "varint_encode": {
        "empty": lambda: (_i64(),),
        "single": lambda: (_i64(300),),
        "byte-count-edges": lambda: (VARINT_EDGES.copy(),),
        "thresholds": lambda: (
            _i64(0, 1, 127, 128, (1 << 14) - 1, 1 << 14, I64_MAX, -1, I64_MIN),
        ),
        "random": lambda: (
            _rng("ve").integers(I64_MIN, I64_MAX, 100),
        ),
    },
    "varint_decode": {
        "empty": lambda: (np.empty(0, dtype=np.uint8),),
        "single": lambda: (kernels.varint_encode(_i64(300)),),
        "byte-count-edges": lambda: (kernels.varint_encode(VARINT_EDGES),),
        "roundtrip-thresholds": lambda: (
            kernels.varint_encode(
                _i64(0, 1, 127, 128, I64_MAX, -1, I64_MIN)
            ),
        ),
        "roundtrip-random": lambda: (
            kernels.varint_encode(
                _rng("vd").integers(I64_MIN, I64_MAX, 100)
            ),
        ),
        "max-length-wrap": lambda: (
            # 10 bytes whose spilled high groups wrap past bit 63.
            np.array([0xFF] * 9 + [0x7F], dtype=np.uint8),
        ),
    },
    "delta_encode": {
        "empty": lambda: (_i64(),),
        "single": lambda: (_i64(42),),
        "sorted-random": lambda: (
            np.sort(_rng("de").integers(0, 1 << 40, 100)),
        ),
        "int64-wrap": lambda: (_i64(I64_MIN, I64_MAX),),
    },
    "delta_decode": {
        "empty": lambda: (_i64(),),
        "roundtrip": lambda: (
            kernels.delta_encode(np.sort(_rng("dd").integers(0, 1 << 40, 100))),
        ),
        "uint64-wrap": lambda: (
            kernels.delta_encode(_i64(I64_MIN, I64_MAX)),
        ),
    },
}

# The unsplit form of the same grouping takes the same inputs.
CASES["group_by_owner"] = CASES["bucket_by_owner"]

DIFFERENTIAL_CASES = sorted(
    (kernel, case) for kernel, cases in CASES.items() for case in cases
)


def _normalize(result):
    """Flatten a kernel result into comparable (value, dtype) leaves."""
    if result is None:
        return [None]
    if isinstance(result, np.ndarray):
        return [(result.tolist(), result.dtype)]
    if isinstance(result, (tuple, list)):
        return [leaf for item in result for leaf in _normalize(item)]
    return [result]


def _run_case(kernel: str, case: str, backend: str):
    """One backend's (result, mutated-dense) pair for a case."""
    args = CASES[kernel][case]()
    result = getattr(MODULES[backend], kernel)(*args)
    # scatter_reduce mutates its first argument in place, the lane
    # sieve its sixth.
    mutated = {"scatter_reduce": args[0], "lane_prune_by_source": args[5:]}.get(kernel)
    return _normalize(result), _normalize(mutated)


@pytest.mark.parametrize("kernel,case", DIFFERENTIAL_CASES)
def test_backends_bit_identical(kernel, case):
    """The numpy kernel matches the pure-python reference exactly —
    values and dtypes — on every adversarial and randomized case."""
    python = _run_case(kernel, case, "python")
    numpy = _run_case(kernel, case, "numpy")
    assert python == numpy


@pytest.mark.parametrize(
    "case,width",
    [
        ("int32-accumulator-lowest-pmin", np.int32),
        ("int64-accumulator-pmin", np.int64),
        ("int64-accumulator-pmax", np.int64),
    ],
)
def test_dense_dedup_accumulator_width(monkeypatch, case, width):
    """The edge cases above take the accumulator width they are named for."""
    widths = []
    full = np.full

    def spy(shape, fill, dtype=None):
        widths.append(dtype)
        return full(shape, fill, dtype=dtype)

    monkeypatch.setattr(numpy_backend.np, "full", spy)
    numpy_backend.dedup_max(*CASES["dedup_max"][case]())
    assert widths == [width]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "kernel,case",
    [kc for kc in DIFFERENTIAL_CASES if kc[0] in ("lane_winners", "lane_prune")],
)
def test_lane_prune_is_the_nonzero_winner_rows(backend, kernel, case):
    """The two views of one race cannot drift: the prune is the winner
    kernel's rows with a nonzero winner word, original words attached in
    the same stable (target, source) order; each target's union is the
    OR of its winner words."""
    module = MODULES[backend]
    given_t, given_s, given_w, nlanes = CASES[kernel][case]()
    targets, sources, wins, run_targets, unions = module.lane_winners(
        given_t, given_s, given_w, nlanes
    )
    pruned = module.lane_prune(given_t, given_s, given_w, nlanes)
    keep = wins != 0
    words = np.asarray(given_w, dtype=np.uint64)[np.lexsort((given_s, given_t))]
    assert _normalize(pruned) == _normalize(
        (targets[keep], sources[keep], words[keep])
    )
    assert run_targets.tolist() == np.unique(targets).tolist()
    run_of = np.searchsorted(run_targets, targets)
    ored = np.zeros(run_targets.size, dtype=np.uint64)
    np.bitwise_or.at(ored, run_of, wins)
    assert unions.tolist() == ored.tolist()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES["lane_prune_by_source"]))
def test_source_prune_is_the_prune_of_the_gathered_words(backend, case):
    """Reading each candidate's word off its source's entry is the
    generic prune of the words gathered up front; without ``shipped`` it
    sieves nothing, whatever the case's sieve would have done."""
    module = MODULES[backend]
    targets, sources, table, base, nlanes = CASES["lane_prune_by_source"][case]()[:5]
    gathered = np.asarray(table, dtype=np.uint64)[np.asarray(sources) - base]
    *pruned, sieved = module.lane_prune_by_source(targets, sources, table, base, nlanes)
    assert _normalize(pruned) == _normalize(module.lane_prune(targets, sources, gathered, nlanes))
    assert sieved == 0


SIEVE_CASES = sorted(
    case for case, factory in CASES["lane_prune_by_source"].items() if len(factory()) == 6
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", SIEVE_CASES)
def test_lane_sieve_is_the_prune_of_the_unshipped_lanes(backend, case):
    """The sieve races each candidate's lanes not yet in its target's
    ``shipped`` word: it keeps exactly the prune of those masked words,
    full words attached; it counts the candidates of targets whose
    racing lanes were all shipped; and it ORs every target's racing
    lanes into ``shipped``."""
    module = MODULES[backend]
    targets, sources, table, base, nlanes, shipped = CASES["lane_prune_by_source"][case]()
    before = shipped.copy()
    gathered = np.asarray(table, dtype=np.uint64)[np.asarray(sources) - base]
    racing = gathered & ~before[targets]
    kt, ks, kw, sieved = module.lane_prune_by_source(
        targets, sources, table, base, nlanes, shipped
    )
    want_t, want_s, _masked = module.lane_prune(targets, sources, racing, nlanes)
    assert kt.tolist() == want_t.tolist() and ks.tolist() == want_s.tolist()
    assert kw.tolist() == np.asarray(table)[ks - base].tolist()
    lanes = np.uint64((1 << nlanes) - 1)
    want = before.copy()
    np.bitwise_or.at(want, targets, gathered & lanes)
    assert shipped.tolist() == want.tolist()
    assert sieved == int(np.count_nonzero(want[targets] == before[targets]))
    # Nothing it keeps carries only lanes already shipped to its target.
    assert np.all(kw & lanes & ~before[kt])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES["source_runs"]))
def test_source_runs_tile_the_sorted_candidates(backend, case):
    """The runs cut the distinct candidates, sorted by (destination,
    source, target), at every change of destination or source, and the
    counts segment both the runs and the targets by destination."""
    targets, sources, bounds = CASES["source_runs"][case]()
    got_t, run_s, run_len, run_counts, counts = MODULES[backend].source_runs(
        targets, sources, bounds
    )
    owners = np.searchsorted(bounds, targets, side="right") - 1
    rows = sorted(set(zip(owners.tolist(), sources.tolist(), targets.tolist())))
    want_o, want_s, want_t = (list(column) for column in zip(*rows)) if rows else ([],) * 3
    assert got_t.tolist() == want_t
    assert np.repeat(run_s, run_len).tolist() == want_s
    assert run_len.min(initial=1) >= 1
    assert counts.tolist() == np.bincount(want_o, minlength=bounds.size - 1).tolist()
    run_owner = np.repeat(np.arange(bounds.size - 1), run_counts)
    assert np.repeat(run_owner, run_len).tolist() == want_o
    keys = list(zip(run_owner.tolist(), run_s.tolist()))
    assert len(set(keys)) == len(keys)  # one run per (destination, source)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lane_winners_tie_rule_is_last_in_input_order(backend):
    """Wire order with equal pairs kept in input order, and a lane shared
    by exact (target, source) duplicates won by the last of them."""
    targets, sources, wins, run_targets, unions = MODULES[backend].lane_winners(
        *CASES["lane_winners"]["exact-duplicate-different-words"]()
    )
    assert targets.tolist() == [4, 4, 4, 4]
    assert sources.tolist() == [2, 7, 7, 7]
    assert wins.tolist() == [0b1000, 0b0100, 0b0010, 0b0001]
    assert run_targets.tolist() == [4] and unions.tolist() == [0b1111]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES["bucket_by_owner"]))
def test_buckets_are_the_grouped_arrays_split_at_the_counts(backend, case):
    """The split and unsplit views of one grouping cannot drift."""
    factory = CASES["bucket_by_owner"][case]
    module = MODULES[backend]
    grouped, counts = module.group_by_owner(*factory())
    buckets = module.bucket_by_owner(*factory())
    splits = np.cumsum(counts)[:-1]
    split = [tuple(parts) for parts in zip(*(np.split(a, splits) for a in grouped))]
    assert _normalize(buckets) == _normalize((split, counts))


#: (kernel, args-factory, error-message substring): both modules must
#: reject invalid input with an identical ValueError, because the codec
#: layer interpolates these messages into CodecError and the comm tests
#: match on them.
ERROR_CASES = {
    "bucket-owner-out-of-range": (
        "bucket_by_owner",
        lambda: (_i64(0, 5), 5, _i64(1, 2)),
        "owners out of range [0, 5)",
    ),
    "bucket-owner-negative": (
        "bucket_by_owner",
        lambda: (_i64(-1), 3, _i64(1)),
        "owners out of range [0, 3)",
    ),
    "group-owner-out-of-range": (
        "group_by_owner",
        lambda: (_i64(0, 5), 5, _i64(1, 2)),
        "owners out of range [0, 5)",
    ),
    "source-prune-below-base": (
        "lane_prune_by_source",
        lambda: (_i64(1, 2), _i64(4, 2), _u64(1, 2, 3), 3, 64),
        "sources out of range [3, 6)",
    ),
    "source-prune-past-table": (
        "lane_prune_by_source",
        lambda: (_i64(1, 2), _i64(4, 6), _u64(1, 2, 3), 3, 64),
        "sources out of range [3, 6)",
    ),
    "source-prune-shipped-too-short": (
        "lane_prune_by_source",
        lambda: (_i64(1, 5), _i64(4, 3), _u64(1, 2, 3), 3, 64, np.zeros(5, dtype=np.uint64)),
        "targets out of shipped's range [0, 5)",
    ),
    "source-prune-shipped-negative-target": (
        "lane_prune_by_source",
        lambda: (_i64(-1, 2), _i64(4, 3), _u64(1, 2, 3), 3, 64, np.zeros(5, dtype=np.uint64)),
        "targets out of shipped's range [0, 5)",
    ),
    "source-prune-shipped-not-uint64": (
        "lane_prune_by_source",
        lambda: (_i64(1, 2), _i64(4, 3), _u64(1, 2, 3), 3, 64, np.zeros(5, dtype=np.int64)),
        "shipped must be a 1-D uint64 array",
    ),
    "source-prune-shipped-2d": (
        "lane_prune_by_source",
        lambda: (_i64(), _i64(), _u64(1), 0, 64, np.zeros((2, 3), dtype=np.uint64)),
        "shipped must be a 1-D uint64 array",
    ),
    "source-runs-target-past-bounds": (
        "source_runs",
        lambda: (_i64(1, 9), _i64(4, 2), _i64(0, 4, 9)),
        "vertex ids out of range [0, 9)",
    ),
    "source-runs-target-below-bounds": (
        "source_runs",
        lambda: (_i64(2, -1), _i64(4, 2), _i64(0, 4, 9)),
        "vertex ids out of range [0, 9)",
    ),
    "source-runs-length-mismatch": (
        "source_runs",
        lambda: (_i64(1, 2), _i64(4), _i64(0, 4, 9)),
        "targets/sources must be equal length",
    ),
    "pack-pairs-length-mismatch": (
        "pack_pairs",
        lambda: (_i64(1, 2), _i64(1)),
        "vertices/parents must be equal length",
    ),
    "range-gather-length-mismatch": (
        "range_gather",
        lambda: (_i64(1, 2), _i64(1)),
        "starts/counts must be equal length",
    ),
    "range-gather-negative-count": (
        "range_gather",
        lambda: (_i64(1, 2), _i64(3, -1)),
        "counts must be non-negative",
    ),
    "unpack-pairs-odd": (
        "unpack_pairs",
        lambda: (_i64(1, 2, 3),),
        "pair buffer has odd length 3",
    ),
    "varint-truncated": (
        "varint_decode",
        lambda: (np.array([0x80], dtype=np.uint8),),
        "truncated varint stream: last byte has continuation bit",
    ),
    "varint-overlong": (
        "varint_decode",
        lambda: (np.array([0xFF] * 10 + [0x00], dtype=np.uint8),),
        "varint longer than 10 bytes in stream",
    ),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_messages_identical(backend, name):
    kernel, factory, message = ERROR_CASES[name]
    with pytest.raises(ValueError) as exc:
        getattr(MODULES[backend], kernel)(*factory())
    assert str(exc.value) == message


# -- coverage meta-tests ------------------------------------------------------

def test_every_kernel_has_differential_cases():
    """A kernel added to KERNELS without a differential battery (or a
    battery for a dropped kernel) fails here by name."""
    assert set(CASES) == set(kernels.KERNELS)


def test_every_kernel_battery_is_adversarial():
    """Each battery carries at least one empty/degenerate case and one
    non-trivial case, so a lazy single-case entry cannot slip through."""
    for kernel, cases in CASES.items():
        assert len(cases) >= 2, kernel


def test_both_backend_modules_export_every_kernel():
    for name in kernels.KERNELS:
        assert callable(getattr(numpy_backend, name)), name
        assert callable(getattr(reference, name)), name


def test_facade_is_the_numpy_functions():
    """``repro.kernels`` is a plain re-export: its public callables are
    exactly ``KERNELS`` and each one *is* the numpy function — no
    dispatcher in between, no other way to choose an implementation."""
    exported = {
        name
        for name, value in vars(kernels).items()
        if callable(value) and not name.startswith("_")
    }
    assert exported == set(kernels.KERNELS)
    for name in kernels.KERNELS:
        assert getattr(kernels, name) is getattr(numpy_backend, name), name
    assert kernels.MAX_VARINT_BYTES == reference.MAX_VARINT_BYTES == 10


def test_src_looks_kernels_up_at_call_time():
    """``reference_kernels`` swaps attributes of ``repro.kernels``, so a
    caller that bound a kernel at import time (``from repro.kernels
    import dedup_max``) or reached past the facade would quietly escape
    the oracle in every full-run sweep."""
    package = Path(kernels.__file__).parent
    binds = re.compile(r"^\s*(from repro\.kernels\b|import repro\.kernels\b)", re.MULTILINE)
    offenders = [
        str(path.relative_to(package.parent))
        for path in package.parent.rglob("*.py")
        if path.parent != package and binds.search(path.read_text())
    ]
    assert not offenders, offenders

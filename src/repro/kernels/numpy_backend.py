"""Vectorized numpy implementations of the hot-path kernels.

What :mod:`repro.kernels` re-exports and every run uses: each kernel is
one or a few whole-array numpy passes — one (byte position, value) grid
for the varints, a pass per *doubling step* for the lane scan, per *run
boundary* for the reductions — never a pass per value or per lane.  The docstring
on each function is the kernel's contract; the pure-python
:mod:`repro.kernels.reference` is the same contract in executable form,
and the differential suite asserts the two agree bit for bit — values,
dtypes, error messages.
"""

from __future__ import annotations

import numpy as np

#: A 64-bit value needs at most ceil(64 / 7) = 10 LEB128 bytes.
MAX_VARINT_BYTES = 10

_WORD_BITS = 64

_INT64_MIN = np.iinfo(np.int64).min

_INT32 = np.iinfo(np.int32)

#: ``dedup_max`` scatters into a target-span-sized array when the span is
#: at most this many times the candidate count, and sorts otherwise.
#: Measured, not tuned per workload: on random inputs the scatter-max and
#: the composite-key sort tie near span = 4N at N = 1e3-1e5, and on the
#: 1D wide levels of a scale-18 R-MAT any factor from 4 to 16 is within
#: 10 % of the best.  Measured with the int64 accumulator; the int32 one
#: keeps the scatter ~3x ahead of the sort on the scale-14 ratio smoke.
DENSE_SPAN_FACTOR = 4


def dedup_max(targets, parents):
    """Collapse duplicate targets keeping the maximum parent.

    Returns ``(unique targets ascending, max parent per target)`` as
    int64 arrays — the (select, max) rule every algorithm in the repo
    shares, so results are deterministic.
    """
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    if targets.size == 0:
        return targets, parents
    pmin, pmax = int(parents.min()), int(parents.max())
    tmin = int(targets.min())
    # Python-int spans: ``max + 1`` or ``max - min`` would wrap int64 near
    # the ends of the range and silently corrupt the keys below.
    tspan = int(targets.max()) - tmin + 1
    if tspan <= DENSE_SPAN_FACTOR * targets.size and pmin > _INT64_MIN:
        # Dense targets (a wide level's candidates fill their owner's
        # range): one scatter-max over the span, no sort.  ``pmin - 1``
        # marks an untouched slot, so every hit slot holds a real parent.
        # The accumulator is int32 whenever that mark and ``pmax`` fit
        # (every graph below 2^31 vertices): half the bytes to scatter
        # into.  Its slots start at 0 when that at most doubles them, so
        # targets near 0 (a sender's, in global ids) need no offset copy.
        fits = _INT32.min <= pmin - 1 and pmax <= _INT32.max
        dtype = np.int32 if fits else np.int64
        base = 0 if 0 <= tmin < tspan else tmin
        best = np.full(tmin - base + tspan, pmin - 1, dtype=dtype)
        slots = targets - base if base else targets
        np.maximum.at(best, slots, parents.astype(dtype, copy=False))
        hit = np.flatnonzero(best >= pmin)
        return hit + base, best[hit].astype(np.int64, copy=False)
    span = pmax + 1
    if 0 <= pmin and tspan * span < (1 << 63):
        # Composite-key quicksort (targets major, parents minor) is far
        # faster than lexsort; the max parent of each target is the last
        # entry of its run.  Keyed on ``targets - tmin``, so the guard on
        # ``tspan * span`` bounds every key whatever the targets' sign.
        span = np.int64(span)
        key = targets - tmin
        key *= span
        key += parents
        key.sort()
        last = np.empty(key.size, dtype=bool)
        last[-1] = True
        out_targets = key // span
        np.not_equal(out_targets[1:], out_targets[:-1], out=last[:-1])
        key = key[last]
        out_targets = out_targets[last]
        return out_targets + tmin, key - out_targets * span
    order = np.lexsort((parents, targets))
    targets, parents = targets[order], parents[order]
    last = np.empty(targets.size, dtype=bool)
    last[-1] = True
    np.not_equal(targets[1:], targets[:-1], out=last[:-1])
    return targets[last], parents[last]


_UFUNCS = {"max": np.maximum, "or": np.bitwise_or}


def reduce_runs(keys, values, op: str):
    """Combine values sharing a key; keys return unique and ascending.

    ``op`` is ``"max"`` (int64) or ``"or"`` (uint64 lane words).  Input
    order is irrelevant.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.uint64 if op == "or" else np.int64)
    if op == "max":
        return dedup_max(keys, values)
    ufunc = _UFUNCS[op]
    if keys.size == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    return keys[idx], ufunc.reduceat(values, idx)


def scatter_reduce(dense, positions, values, op: str) -> None:
    """In-place ``dense[positions] (+)= values`` under ``op``.

    The SPA / semiring scatter: ``op`` in ``{"max", "or"}``; ``"or"`` is
    the 64-lane ``uint64`` OR path.  Positions may repeat; the combine
    is applied per occurrence (order-insensitive for these ops).
    """
    _UFUNCS[op].at(dense, positions, values)


def group_by_owner(owners, nbuckets: int, *arrays):
    """Order parallel arrays by destination rank (stable counting sort).

    Returns ``(grouped, counts)``: each array reordered owner-major
    with input order kept inside an owner — Algorithm 2's one send
    array — plus the int64 per-owner counts that segment it.  Raises
    ``ValueError`` when an owner falls outside ``[0, nbuckets)``.
    """
    owners = np.asarray(owners, dtype=np.int64)
    if owners.size and (owners.min() < 0 or owners.max() >= nbuckets):
        raise ValueError(f"owners out of range [0, {nbuckets})")
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners, minlength=nbuckets).astype(np.int64)
    return tuple(np.asarray(a)[order] for a in arrays), counts


def bucket_by_owner(owners, nbuckets: int, *arrays):
    """:func:`group_by_owner`, split at the owner boundaries — the
    vectorized form of Algorithm 2's per-thread ``tBuf`` packing.

    Returns ``(grouped, counts)``: one tuple of sub-arrays per bucket in
    bucket order, plus the int64 per-bucket counts.  Raises
    ``ValueError`` when an owner falls outside ``[0, nbuckets)``.
    """
    grouped, counts = group_by_owner(owners, nbuckets, *arrays)
    splits = np.cumsum(counts)[:-1]
    return [
        tuple(parts) for parts in zip(*(np.split(a, splits) for a in grouped))
    ], counts


def pack_pairs(vertices, parents):
    """Interleave (vertex, parent) into one ``[v0, p0, v1, p1, ...]``
    int64 wire buffer; raises ``ValueError`` on length mismatch.

    One buffer per destination keeps the all-to-all call count at one
    per level (the 1D algorithm's only collective), and the layout keeps
    each pair contiguous.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    if vertices.shape != parents.shape:
        raise ValueError("vertices/parents must be equal length")
    out = np.empty(2 * vertices.size, dtype=np.int64)
    out[0::2] = vertices
    out[1::2] = parents
    return out


def unpack_pairs(buf):
    """Inverse of :func:`pack_pairs`; raises ``ValueError`` on odd
    length."""
    buf = np.asarray(buf, dtype=np.int64)
    if buf.size % 2:
        raise ValueError(f"pair buffer has odd length {buf.size}")
    return buf[0::2], buf[1::2]


def _bitmap_nwords(nbits):
    return (nbits + _WORD_BITS - 1) // _WORD_BITS


def pack_bitmap(vertices, lo: int, nbits: int):
    """Pack local vertex ids in ``[lo, lo + nbits)`` into little-endian
    64-bit bitmap words (bit ``v - lo`` set per vertex)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    bits = np.zeros(nbits, dtype=np.uint8)
    bits[vertices - lo] = 1
    packed = np.packbits(bits, bitorder="little")
    out = np.zeros(8 * _bitmap_nwords(nbits), dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(np.uint64)


def unpack_bitmap(words, nbits: int):
    """Inverse of :func:`pack_bitmap`: words -> boolean mask of
    ``nbits`` entries."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if nbits == 0:
        return np.zeros(0, dtype=bool)
    return np.unpackbits(
        words.view(np.uint8), count=nbits, bitorder="little"
    ).astype(bool)


def popcount(words):
    """Per-word set-bit count of a ``uint64`` array (int64 result)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.int64)
    # numpy < 2.0: per-byte popcount via a 256-entry lookup table.
    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
    return table[words.view(np.uint8)].reshape(-1, 8).sum(axis=1)


def last_hit_scan(hits, starts, counts):
    """Last hit position of each run of a concatenated scan, -1 if none.

    ``hits`` is one boolean per scanned candidate (frontier-bitmap
    membership of each adjacency), runs are ``[starts[i], starts[i] +
    counts[i])`` and tile ``hits`` contiguously with ``counts >= 1``.
    Returns the int64 *global* position of each run's last hit — the
    early-exit landing spot of the dirop bottom-up reverse scan, i.e.
    the maximum frontier neighbour of a sorted adjacency list.
    """
    hits = np.asarray(hits, dtype=bool)
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    hit_pos = np.where(hits, np.arange(hits.size), -1)
    return np.maximum.reduceat(hit_pos, starts)


def _key_dtype(bits: int):
    """The narrowest unsigned dtype of a ``bits``-wide sort key, ``None``
    past 64 bits: a uint32 key sorts in about half the time of a uint64."""
    if bits <= 32:
        return np.uint32
    return np.uint64 if bits <= _WORD_BITS else None


def _wire_order(targets, sources):
    """Both columns sorted into (target asc, source asc) order, equal
    pairs keeping their input order, and the permutation that does it."""
    n = targets.size
    tmin, tmax = int(targets.min()), int(targets.max())
    smin, smax = int(sources.min()), int(sources.max())
    sbits = (smax - smin).bit_length()
    ibits = (n - 1).bit_length()
    if (tmax - tmin).bit_length() + sbits + ibits <= _WORD_BITS:
        # One unsigned key per candidate — target offset, source offset,
        # input position — so a plain value sort is the stable two-key
        # sort, and the sorted columns and the permutation are its bit
        # fields, not gathers.  The python-int guard keeps the fields
        # clear of 64-bit wrap, as in dedup_max; offsets fit negatives.
        key = (targets - np.int64(tmin)).view(np.uint64)
        key <<= np.uint64(sbits)
        key |= (sources - np.int64(smin)).view(np.uint64)
        key <<= np.uint64(ibits)
        key |= np.arange(n, dtype=np.uint64)
        key.sort()
        order = (key & np.uint64((1 << ibits) - 1)).view(np.int64)
        key >>= np.uint64(ibits)
        sources = (key & np.uint64((1 << sbits) - 1)).view(np.int64) + np.int64(smin)
        key >>= np.uint64(sbits)
        return key.view(np.int64) + np.int64(tmin), sources, order
    order = np.lexsort((sources, targets))
    return targets[order], sources[order], order


def _grouped_wire_order(targets, sources):
    """:func:`_wire_order` for candidates whose sources already ascend
    within each target — pieces that arrive in rank order, each with
    ascending sources — plus the run mask ``same[i]``: rows ``i`` and ``i + 1``
    share a target.

    Such input needs only a stable sort by target: one (target offset,
    input position) key in the narrowest dtype that holds it.  One
    adjacent compare of the sorted sources checks the premise, and any
    input that breaks it (or whose key passes 64 bits) takes the full
    :func:`_wire_order` key instead, so the result is the same for
    every input.
    """
    n = targets.size
    tmin = int(targets.min())
    tbits = (int(targets.max()) - tmin).bit_length()
    ibits = (n - 1).bit_length()
    dtype = _key_dtype(tbits + ibits)
    if dtype is not None:
        key = (targets - np.int64(tmin)).view(np.uint64)
        key <<= np.uint64(ibits)
        key |= np.arange(n, dtype=np.uint64)
        key = key.astype(dtype, copy=False)
        key.sort()
        order = (key & dtype((1 << ibits) - 1)).astype(np.int64)
        key >>= dtype(ibits)
        same = key[:-1] == key[1:]
        ordered = sources[order]
        if not (same & (ordered[1:] < ordered[:-1])).any():
            return key.astype(np.int64) + np.int64(tmin), ordered, order, same
    targets, sources, order = _wire_order(targets, sources)
    return targets, sources, order, targets[:-1] == targets[1:]


def _live(words, nlanes: int):
    """The racing bits of each word: those below ``nlanes``."""
    if nlanes == _WORD_BITS:
        return words
    return words & np.uint64((1 << nlanes) - 1)


def _suffix_or(same, live, ends=None, tails=None):
    """The OR of the later words of each row's run, ``live`` in runs of
    sorted rows (``same[i]``: rows ``i`` and ``i + 1`` share a target).
    With ``tails``, run ``r`` also carries ``tails[r]`` as a phantom row
    after its last row ``ends[r]``.

    A Hillis-Steele doubling scan over contiguous slices: ``after``
    starts as the run's next word, pass ``off`` ORs in the window
    ``off`` places on through one reused scratch buffer, and the run
    mask for twice the reach is the AND of two shifted copies of this
    one, until no run is ``off`` long.
    """
    after = np.zeros(live.size, dtype=np.uint64)
    np.multiply(live[1:], same, out=after[:-1])
    if tails is not None:
        after[ends] = tails
    scratch = np.empty(same.size, dtype=np.uint64)
    off = 1
    while same.any():
        hop = scratch[: same.size]
        np.multiply(after[off:], same, out=hop)
        after[:-off] |= hop
        same = same[:-off] & same[off:]
        off <<= 1
    return after


def _wins(live, after):
    """``live & ~after`` in place of ``after``: the lanes no later row of
    the run carries."""
    np.invert(after, out=after)
    after &= live
    return after


def lane_winners(targets, sources, words, nlanes: int):
    """Resolve every lane's (select, max) race among (target, source,
    word) triples in one pass.

    Returns ``(targets int64, sources int64, wins uint64)`` in (target
    asc, source asc) order, equal pairs in input order, and
    ``(run_targets int64, unions uint64)``: each distinct target,
    ascending, and the OR of its candidates' bits below ``nlanes``.
    Bit ``b < nlanes`` of ``wins[i]`` is set iff candidate ``i`` carries
    lane ``b`` and no later candidate of its target does — it is lane
    ``b``'s maximum-source contributor (of equal pairs, the last) — so
    every (target, lane) slot some word carries is won exactly once, and
    a target's union is the OR of its winner words.  Bits at or above
    ``nlanes`` never win.

    Candidates that arrive in rank order, each rank's sources ascending
    within every target (an owner's received rows, each piece in (source,
    target) run order), sort on a narrow key by target alone; any other
    input takes the full (target, source, position) key.
    """
    targets = np.asarray(targets, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    words = np.asarray(words, dtype=np.uint64)
    if targets.size == 0:
        none = np.empty(0, dtype=np.uint64)
        return targets, sources, none, targets, none
    targets, sources, order, same = _grouped_wire_order(targets, sources)
    live = _live(words[order], nlanes)
    after = _suffix_or(same, live)
    # A run's union is its head's word ORed with everything after it.
    head = np.empty(targets.size, dtype=bool)
    head[0] = True
    np.logical_not(same, out=head[1:])
    heads = np.flatnonzero(head)
    unions = live[heads] | after[heads]
    return targets, sources, _wins(live, after), targets[heads], unions


def lane_prune(targets, sources, words, nlanes: int):
    """Sender-side lane-dominance prune of (target, source, word) triples.

    Keeps a candidate iff it is the maximum-source contributor of at
    least one lane of its target — :func:`lane_winners` rows whose
    ``wins`` word is nonzero, in the same (target, source) order.
    Returns ``(targets int64, sources int64, words uint64)``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    words = np.asarray(words, dtype=np.uint64)
    if targets.size == 0:
        return targets, sources, words
    targets, sources, order = _wire_order(targets, sources)
    words = words[order]
    live = _live(words, nlanes)
    keep = np.flatnonzero(_wins(live, _suffix_or(targets[:-1] == targets[1:], live)))
    return targets[keep], sources[keep], words[keep]


def _check_shipped(shipped, tmin: int, tmax: int) -> None:
    """Raise ``ValueError`` unless ``shipped`` is a 1-D uint64 array with
    one word per target id in ``[tmin, tmax]``."""
    if not (
        isinstance(shipped, np.ndarray) and shipped.dtype == np.uint64 and shipped.ndim == 1
    ):
        raise ValueError("shipped must be a 1-D uint64 array")
    if tmin < 0 or tmax >= shipped.size:
        raise ValueError(f"targets out of shipped's range [0, {shipped.size})")


def lane_prune_by_source(
    targets, sources, source_words, base: int, nlanes: int, shipped=None
):
    """:func:`lane_prune` of candidates that carry their source's word,
    optionally behind a per-target *lane sieve*.

    Candidate ``i``'s word is ``source_words[sources[i] - base]`` — a
    sender's frontier word per owned vertex — so equal (target, source)
    pairs carry equal words and their order needs no input position: one
    (target offset, source offset) key, uint32 while it fits (an R-MAT
    scale-18 graph on 16 ranks), sorts the candidates, and the words are
    read at the sorted sources.

    ``shipped``, a uint64 word per target id, is the sieve: lanes set in
    ``shipped[t]`` do not race for ``t``, so a candidate is kept iff it
    wins a lane of ``word & ~shipped[t]``, and every target's racing
    lanes are then ORed into ``shipped[t]`` in place.  The scan reads
    ``shipped[t]`` once per target run, as a phantom candidate after
    the run's highest source: no real candidate wins its lanes, and the
    run head's word ORed with the rest of the run is the new
    ``shipped[t]``.

    Returns ``(targets int64, sources int64, words uint64, sieved)``:
    the kept candidates with their full words, as :func:`lane_prune` of
    the gathered words returns them when ``shipped`` is ``None``, and
    the number of candidates whose target the sieve drops whole — every
    lane they race was in ``shipped[t]`` already (a python int, 0
    without ``shipped``).  Raises ``ValueError`` when a source falls
    outside ``[base, base + source_words.size)``, or when ``shipped`` is
    not a 1-D uint64 array holding every target id.
    """
    targets = np.asarray(targets, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    source_words = np.asarray(source_words, dtype=np.uint64)
    if targets.size == 0:
        if shipped is not None:
            _check_shipped(shipped, 0, -1)
        return targets, sources, np.empty(0, dtype=np.uint64), 0
    smin, smax = int(sources.min()), int(sources.max())
    if smin < base or smax >= base + source_words.size:
        raise ValueError(
            f"sources out of range [{base}, {base + source_words.size})"
        )
    tmin, tmax = int(targets.min()), int(targets.max())
    if shipped is not None:
        _check_shipped(shipped, tmin, tmax)
    tbits = (tmax - tmin).bit_length()
    sbits = (smax - smin).bit_length()
    dtype = _key_dtype(tbits + sbits)
    if dtype is None:
        order = np.lexsort((sources, targets))
        targets, sources = targets[order], sources[order]
        words = source_words[sources - base]
        tmin = smin = 0  # the columns hold the ids themselves
    else:
        key = (targets - np.int64(tmin)).view(np.uint64)
        key <<= np.uint64(sbits)
        key |= (sources - np.int64(smin)).view(np.uint64)
        key = key.astype(dtype, copy=False)
        key.sort()
        # The key's two bit fields, as offsets: the columns are rebuilt
        # for the survivors only.
        sources = key & dtype((1 << sbits) - 1)
        words = source_words[smin - base :][sources]
        key >>= dtype(sbits)
        targets = key
    live = _live(words, nlanes)
    same = targets[:-1] == targets[1:]
    sieved = 0
    if shipped is None:
        after = _suffix_or(same, live)
    else:
        last = np.empty(targets.size, dtype=bool)
        last[-1] = True
        np.logical_not(same, out=last[:-1])
        ends = np.flatnonzero(last)
        heads = np.empty_like(ends)
        heads[0] = 0
        heads[1:] = ends[:-1] + 1
        run_targets = targets[ends].astype(np.int64)
        run_targets += np.int64(tmin)
        seen = shipped[run_targets]
        after = _suffix_or(same, live, ends, seen)
        unions = live[heads] | after[heads]
        shipped[run_targets] = unions
        # Runs that race no unshipped lane are dropped whole.
        sieved = int((ends - heads + 1)[unions == seen].sum())
    # An index, not a mask: three gathers by it beat three masked copies.
    keep = np.flatnonzero(_wins(live, after))
    targets = targets[keep].astype(np.int64)
    targets += np.int64(tmin)
    sources = sources[keep].astype(np.int64)
    sources += np.int64(smin)
    return targets, sources, words[keep], sieved


def _destination_slices(counts):
    """The destination edges of grouped columns with per-destination
    ``counts``, and each non-empty destination's ``(j, start, end)`` in
    them as python ints."""
    edges = np.concatenate([[0], np.cumsum(counts)])
    slices = [
        (j, int(at), int(end))
        for j, (at, end) in enumerate(zip(edges[:-1], edges[1:]))
        if end > at
    ]
    return edges, slices


def source_runs(targets, sources, bounds):
    """Regroup (target, source) candidates into per-destination source
    runs: the msbfs wire's shipping order.

    Target ``t`` goes to the destination ``j`` with ``bounds[j] <= t <
    bounds[j + 1]`` (ascending bounds; an empty range repeats one); a
    target outside ``[bounds[0], bounds[-1])`` raises ``ValueError``.  A
    run is the candidates that share a (destination, source).  Returns
    ``(targets, run_sources, run_lengths, run_counts, counts)``, all
    int64: the targets in (destination, source, target) order, each
    run's source and length in that order, and per destination its
    number of runs and of targets.  A repeated (target, source) pair
    ships once, so a run's targets ascend strictly — a set, as a
    destination-range bitmap can carry it.

    One sort, on a (destination, source offset, target offset) key in
    the narrowest unsigned dtype that holds it — uint32 for R-MAT scale
    18 on 16 ranks — whose bit fields are the sorted columns; a key past
    64 bits takes a ``lexsort``.  Ascending targets (the lane prune's
    output) take their destinations off one ``searchsorted`` of the
    bounds, other input off one per target.
    """
    targets = np.asarray(targets, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    if targets.shape != sources.shape:
        raise ValueError("targets/sources must be equal length")
    nbuckets = bounds.size - 1
    lo, hi = int(bounds[0]), int(bounds[-1])
    n = targets.size
    if n == 0:
        none = np.zeros(nbuckets, dtype=np.int64)
        return targets, sources, sources.copy(), none, none.copy()
    ascending = not (targets[1:] < targets[:-1]).any()
    tmin, tmax = (targets[0], targets[-1]) if ascending else (targets.min(), targets.max())
    if int(tmin) < lo or int(tmax) >= hi:
        raise ValueError(f"vertex ids out of range [{lo}, {hi})")
    if ascending:
        dest = None
        counts = np.diff(np.searchsorted(targets, bounds))
    else:
        dest = np.searchsorted(bounds, targets, side="right") - 1
        counts = np.bincount(dest, minlength=nbuckets)
    edges, slices = _destination_slices(counts)
    starts = bounds[:-1]
    smin = int(sources.min())
    sbits = (int(sources.max()) - smin).bit_length()
    wbits = (int(np.diff(bounds).max()) - 1).bit_length()
    dtype = _key_dtype((nbuckets - 1).bit_length() + sbits + wbits)
    if dtype is not None:
        # Target offset in its destination's range, source offset above
        # it, destination on top: one per-destination constant turns a
        # target into its low and high fields at once.
        base = (np.arange(nbuckets, dtype=np.int64) << np.int64(sbits + wbits)) - starts
        key = sources - np.int64(smin)
        key <<= np.int64(wbits)
        key += targets
        if dest is None:
            for j, at, end in slices:
                key[at:end] += base[j]
        else:
            key += base[dest]
        key = key.view(np.uint64).astype(dtype, copy=False)
        key.sort()
        repeat = key[1:] == key[:-1]
        if repeat.any():
            key = key[np.flatnonzero(np.concatenate([[True], ~repeat]))]
            n = key.size
            top = (key >> dtype(sbits + wbits)).astype(np.intp)
            counts = np.bincount(top, minlength=nbuckets).astype(np.int64)
            edges, slices = _destination_slices(counts)
        runs = key >> dtype(wbits)
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(runs[1:], runs[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        run_sources = (runs[heads] & dtype((1 << sbits) - 1)).astype(np.int64)
        run_sources += np.int64(smin)
        key &= dtype((1 << wbits) - 1)
        targets = key.astype(np.int64)
        for j, at, end in slices:
            targets[at:end] += starts[j]
    else:
        if dest is None:
            dest = np.repeat(np.arange(nbuckets), counts)
        order = np.lexsort((targets, sources, dest))
        targets, sources = targets[order], sources[order]
        repeat = (targets[1:] == targets[:-1]) & (sources[1:] == sources[:-1])
        if repeat.any():
            keep = np.flatnonzero(np.concatenate([[True], ~repeat]))
            targets, sources = targets[keep], sources[keep]
            n = targets.size
            counts = np.bincount(dest[order][keep], minlength=nbuckets).astype(np.int64)
            edges, slices = _destination_slices(counts)
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(sources[1:], sources[:-1], out=head[1:])
        head[[at for _j, at, _end in slices]] = True
        heads = np.flatnonzero(head)
        run_sources = sources[heads]
    run_counts = np.diff(np.searchsorted(heads, edges))
    return targets, run_sources, np.diff(heads, append=n), run_counts, counts


def range_gather(starts, counts):
    """Concatenate the index ranges ``[starts[i], starts[i] + counts[i])``
    in order, as one int64 array: the range-gather under
    ``CSR.gather``, ``DCSC.extract_columns`` and the 2D distributor.

    One ``np.repeat`` of each range's shift from its first output slot,
    plus the output positions — no per-range loop.  Raises
    ``ValueError`` on unequal lengths or a negative count.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts/counts must be equal length")
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    ends = np.cumsum(counts)
    flat = np.repeat(starts - (ends - counts), counts)
    flat += np.arange(flat.size, dtype=np.int64)
    return flat


def unique_sorted(values):
    """Sorted unique int64 values (the SPA's touched-index sort)."""
    return np.unique(np.asarray(values, dtype=np.int64))


def varint_sizes(values):
    """LEB128-encoded byte count of each 64-bit value (int64 array)."""
    values = np.ascontiguousarray(values).view(np.uint64)
    sizes = np.ones(values.size, dtype=np.int64)
    # One pass per byte position that the largest value reaches.
    longest = -(-int(values.max()).bit_length() // 7) if values.size else 1
    for k in range(1, longest):
        sizes += values >= (np.uint64(1) << np.uint64(7 * k))
    return sizes


#: ``7 x`` each byte position of a varint, and the positions, as columns.
_GROUP_SHIFTS = np.arange(0, 7 * MAX_VARINT_BYTES, 7, dtype=np.uint64)[:, None]
_POSITIONS = np.arange(MAX_VARINT_BYTES)[:, None]


def varint_encode(values):
    """LEB128-encode 64-bit values into a ``uint8`` stream: the minimum
    number of 7-bit groups per value, least-significant first, the high
    bit of every byte flagging continuation (the delta-varint wire
    format of Lv et al., arXiv:1208.5542)."""
    values = np.ascontiguousarray(values, dtype=np.int64).view(np.uint64)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    # A (byte position, value) grid as deep as the longest value: each
    # value shifted by 7 x each position and cut to its low byte, whose
    # bit 7 can be set only where the value reaches the next position —
    # there it becomes the continuation bit.
    longest = max(-(-int(values.max()).bit_length() // 7), 1)
    groups = values >> _GROUP_SHIFTS[:longest]
    grid = groups.astype(np.uint8)
    grid[:-1] |= (groups[1:] != 0).view(np.uint8) << 7
    # Value-major.  Past its first byte a minimal varint has no zero byte,
    # so the zeros there are exactly the positions beyond a value's end.
    grid = np.ascontiguousarray(grid.T)
    keep = grid != 0
    keep[:, 0] = True
    return grid[keep]


def varint_decode(stream):
    """Inverse of :func:`varint_encode`; int64 values.  Raises
    ``ValueError`` on truncation or over-length varints."""
    stream = np.ascontiguousarray(stream, dtype=np.uint8)
    if stream.size == 0:
        return np.empty(0, dtype=np.int64)
    terminal = stream < 0x80
    if not terminal[-1]:
        raise ValueError("truncated varint stream: last byte has continuation bit")
    ends = terminal.nonzero()[0]
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    longest = int((ends - starts).max()) + 1
    if longest > MAX_VARINT_BYTES:
        raise ValueError(f"varint longer than {MAX_VARINT_BYTES} bytes in stream")
    # A (byte position, varint) grid of the stream's 7-bit groups; past a
    # terminal byte it reads later varints, so those positions are zeroed.
    at = starts + _POSITIONS[:longest]
    grid = np.take(stream, at, mode="clip") & 0x7F
    grid *= at <= ends
    groups = grid.astype(np.uint64)
    groups <<= _GROUP_SHIFTS[:longest]
    return np.bitwise_or.reduce(groups, axis=0).view(np.int64)


def delta_encode(sorted_values):
    """First value absolute, the rest consecutive differences (int64)."""
    sorted_values = np.asarray(sorted_values, dtype=np.int64)
    deltas = np.empty_like(sorted_values)
    if sorted_values.size:
        deltas[0] = sorted_values[0]
        np.subtract(sorted_values[1:], sorted_values[:-1], out=deltas[1:])
    return deltas


def delta_decode(deltas):
    """Inverse of :func:`delta_encode` with uint64 wraparound semantics
    (matching the vectorized unsigned cumulative sum)."""
    deltas = np.ascontiguousarray(deltas, dtype=np.int64)
    return np.cumsum(deltas.view(np.uint64), dtype=np.uint64).view(np.int64)

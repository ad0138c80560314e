"""Pure-python reference implementations of the hot-path kernels.

The executable specification of :mod:`repro.kernels`: every kernel is a
plain per-element python loop with no vectorization tricks, so its
correctness is auditable by inspection.  It is a test oracle, not a run
mode — nothing in ``src/`` imports it.  The numpy kernels are
differentially tested against this module case by case, and the
``reference_kernels`` fixture of ``tests/conftest.py`` swaps it in under
every ``kernels.<name>`` to re-run whole traversals on it.

Kernels compute on plain python ints over any indexable sequence; numpy
appears only at the boundary, coercing outputs to arrays with the same
dtypes the vectorized kernels produce, so full traversals on the
reference stay bit-identical to the numpy ones — parents, levels,
modeled times, wire words and trace spans included.

64-bit semantics are emulated explicitly (``_wrap64`` / ``_MASK64``):
the vectorized kernels compute in ``int64``/``uint64`` with wraparound,
and the reference must produce the same bits for adversarial inputs
near ``2**63``.
"""

from __future__ import annotations

import numpy as _np  # only to coerce outputs

#: A 64-bit value needs at most ceil(64 / 7) = 10 LEB128 bytes.
MAX_VARINT_BYTES = 10

_MASK64 = (1 << 64) - 1


def _wrap64(value):
    """Reinterpret an arbitrary python int as a signed 64-bit value."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def _ints(seq):
    """Materialize any indexable sequence as a list of python ints."""
    return [int(x) for x in seq]


def _uints(seq):
    """As :func:`_ints` but reinterpreting each value as unsigned 64-bit."""
    return [int(x) & _MASK64 for x in seq]


def _i64(values):
    return _np.asarray(values, dtype=_np.int64)


def _u64(values):
    return _np.asarray(values, dtype=_np.uint64)


def _u8(values):
    return _np.asarray(values, dtype=_np.uint8)


def _bools(values):
    return _np.asarray(values, dtype=bool)


def dedup_max(targets, parents):
    best: dict = {}
    for t, p in zip(_ints(targets), _ints(parents)):
        cur = best.get(t)
        if cur is None or p > cur:
            best[t] = p
    keys = sorted(best)
    return _i64(keys), _i64([best[k] for k in keys])


def reduce_runs(keys, values, op):
    if op == "max":
        return dedup_max(keys, values)
    acc: dict = {}
    for k, v in zip(_ints(keys), _uints(values)):
        acc[k] = acc.get(k, 0) | v
    out_keys = sorted(acc)
    return _i64(out_keys), _u64([acc[k] for k in out_keys])


def scatter_reduce(dense, positions, values, op):
    signed = op == "max"
    vals = _ints(values) if signed else _uints(values)
    for p, v in zip(_ints(positions), vals):
        cur = int(dense[p])
        if signed:
            if v > cur:
                dense[p] = v
        else:
            dense[p] = (cur & _MASK64) | v


def group_by_owner(owners, nbuckets, *arrays):
    owners = _ints(owners)
    if owners and (min(owners) < 0 or max(owners) >= nbuckets):
        raise ValueError(f"owners out of range [0, {nbuckets})")
    buckets: list[list[int]] = [[] for _ in range(nbuckets)]
    for i, owner in enumerate(owners):
        buckets[owner].append(i)

    def _gather(a):
        picked = [a[i] for idx in buckets for i in idx]
        dtype = a.dtype if isinstance(a, _np.ndarray) else _np.int64
        return _np.asarray(picked, dtype=dtype)

    counts = _i64([len(idx) for idx in buckets])
    return tuple(_gather(a) for a in arrays), counts


def bucket_by_owner(owners, nbuckets, *arrays):
    grouped, counts = group_by_owner(owners, nbuckets, *arrays)
    buckets, lo = [], 0
    for count in counts.tolist():
        buckets.append(tuple(a[lo : lo + count] for a in grouped))
        lo += count
    return buckets, counts


def pack_pairs(vertices, parents):
    vertices = _ints(vertices)
    parents = _ints(parents)
    if len(vertices) != len(parents):
        raise ValueError("vertices/parents must be equal length")
    out = []
    for v, p in zip(vertices, parents):
        out.append(v)
        out.append(p)
    return _i64(out)


def unpack_pairs(buf):
    buf = _ints(buf)
    if len(buf) % 2:
        raise ValueError(f"pair buffer has odd length {len(buf)}")
    return _i64(buf[0::2]), _i64(buf[1::2])


def _bitmap_nwords(nbits):
    return (nbits + 63) // 64


def pack_bitmap(vertices, lo, nbits):
    words = [0] * _bitmap_nwords(nbits)
    for v in _ints(vertices):
        bit = v - lo
        words[bit >> 6] |= 1 << (bit & 63)
    return _u64(words)


def unpack_bitmap(words, nbits):
    words = _uints(words)
    return _bools(
        [(words[i >> 6] >> (i & 63)) & 1 for i in range(nbits)]
    )


def popcount(words):
    return _i64([bin(w).count("1") for w in _uints(words)])


def last_hit_scan(hits, starts, counts):
    hits = [bool(h) for h in hits]
    out = []
    for start, count in zip(_ints(starts), _ints(counts)):
        last = -1
        for j in range(start + count - 1, start - 1, -1):
            if hits[j]:
                last = j
                break
        out.append(last)
    return _i64(out)


def _lane_race(targets, sources, words, nlanes):
    """The rows in wire order (equal pairs in input order) as
    ``(target, source, word, winner word)`` tuples, and each target's
    union of racing lanes."""
    targets = _ints(targets)
    sources = _ints(sources)
    words = _uints(words)
    order = sorted(range(len(targets)), key=lambda i: (targets[i], sources[i]))
    lane_mask = (1 << nlanes) - 1
    rows = []  # built from the back: a lane's winner is its run's last carrier
    unions: dict = {}
    for i in reversed(order):
        seen = unions.get(targets[i], 0)
        lanes = words[i] & lane_mask
        rows.append((targets[i], sources[i], words[i], lanes & ~seen))
        unions[targets[i]] = seen | lanes
    return rows[::-1], unions


def lane_winners(targets, sources, words, nlanes):
    rows, unions = _lane_race(targets, sources, words, nlanes)
    run_targets = sorted(unions)
    return (
        _i64([t for t, _s, _w, _won in rows]),
        _i64([s for _t, s, _w, _won in rows]),
        _u64([won for _t, _s, _w, won in rows]),
        _i64(run_targets),
        _u64([unions[t] for t in run_targets]),
    )


def lane_prune(targets, sources, words, nlanes):
    rows, _unions = _lane_race(targets, sources, words, nlanes)
    kept = [row for row in rows if row[3]]
    return (
        _i64([t for t, _s, _w, _won in kept]),
        _i64([s for _t, s, _w, _won in kept]),
        _u64([w for _t, _s, w, _won in kept]),
    )


def lane_prune_by_source(targets, sources, source_words, base, nlanes, shipped=None):
    targets, sources = _ints(targets), _ints(sources)
    if sources and (min(sources) < base or max(sources) >= base + len(source_words)):
        raise ValueError(
            f"sources out of range [{base}, {base + len(source_words)})"
        )
    words = [int(source_words[s - base]) for s in sources]
    if shipped is None:
        return (*lane_prune(targets, sources, words, nlanes), 0)
    if not (
        isinstance(shipped, _np.ndarray) and shipped.dtype == _np.uint64 and shipped.ndim == 1
    ):
        raise ValueError("shipped must be a 1-D uint64 array")
    if targets and (min(targets) < 0 or max(targets) >= len(shipped)):
        raise ValueError(f"targets out of shipped's range [0, {len(shipped)})")
    rows, unions = _lane_race(targets, sources, words, nlanes)
    # A kept row wins a lane not yet shipped to its target.
    kept = [(t, s, w) for t, s, w, won in rows if won & ~int(shipped[t])]
    # A target whose racing lanes were all shipped drops all its rows.
    sieved = sum(1 for t in targets if not unions[t] & ~int(shipped[t]))
    for t, lanes in unions.items():
        shipped[t] = int(shipped[t]) | lanes
    return (
        _i64([t for t, _s, _w in kept]),
        _i64([s for _t, s, _w in kept]),
        _u64([w for _t, _s, w in kept]),
        sieved,
    )


def source_runs(targets, sources, bounds):
    targets, sources, bounds = _ints(targets), _ints(sources), _ints(bounds)
    if len(targets) != len(sources):
        raise ValueError("targets/sources must be equal length")
    if targets and (min(targets) < bounds[0] or max(targets) >= bounds[-1]):
        raise ValueError(f"vertex ids out of range [{bounds[0]}, {bounds[-1]})")
    nbuckets = len(bounds) - 1

    def dest(t):
        return next(j for j in range(nbuckets) if bounds[j] <= t < bounds[j + 1])

    rows = sorted({(dest(t), s, t) for t, s in zip(targets, sources)})
    run_sources, run_lengths = [], []
    run_counts, counts = [0] * nbuckets, [0] * nbuckets
    last = None
    for d, s, _t in rows:
        if (d, s) != last:
            run_sources.append(s)
            run_lengths.append(0)
            run_counts[d] += 1
            last = (d, s)
        run_lengths[-1] += 1
        counts[d] += 1
    return (
        _i64([t for _d, _s, t in rows]),
        _i64(run_sources),
        _i64(run_lengths),
        _i64(run_counts),
        _i64(counts),
    )


def range_gather(starts, counts):
    starts, counts = _ints(starts), _ints(counts)
    if len(starts) != len(counts):
        raise ValueError("starts/counts must be equal length")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    return _i64([s + k for s, c in zip(starts, counts) for k in range(c)])


def unique_sorted(values):
    return _i64(sorted(set(_ints(values))))


def _varint_size(unsigned):
    size = 1
    while size < MAX_VARINT_BYTES and unsigned >= (1 << (7 * size)):
        size += 1
    return size


def varint_sizes(values):
    return _i64([_varint_size(u) for u in _uints(values)])


def varint_encode(values):
    out = []
    for u in _uints(values):
        size = _varint_size(u)
        for j in range(size):
            group = (u >> (7 * j)) & 0x7F
            out.append(group | 0x80 if j < size - 1 else group)
    return _u8(out)


def varint_decode(stream):
    stream = _ints(stream)
    if not stream:
        return _i64([])
    if stream[-1] & 0x80:
        raise ValueError("truncated varint stream: last byte has continuation bit")
    values = []
    cur = 0
    nbytes = 0
    for byte in stream:
        group = byte & 0x7F
        # Shifts past bit 63 wrap exactly like the uint64 vector path.
        cur = (cur | (group << (7 * nbytes))) & _MASK64
        nbytes += 1
        if nbytes > MAX_VARINT_BYTES:
            raise ValueError(
                f"varint longer than {MAX_VARINT_BYTES} bytes in stream"
            )
        if not byte & 0x80:
            values.append(_wrap64(cur))
            cur = 0
            nbytes = 0
    return _i64(values)


def delta_encode(sorted_values):
    sorted_values = _ints(sorted_values)
    out = []
    prev = 0
    for i, v in enumerate(sorted_values):
        out.append(_wrap64(v if i == 0 else v - prev))
        prev = v
    return _i64(out)


def delta_decode(deltas):
    out = []
    acc = 0
    for d in _uints(deltas):
        acc = (acc + d) & _MASK64
        out.append(_wrap64(acc))
    return _i64(out)

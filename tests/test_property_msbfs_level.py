"""The msbfs-1d level on narrow keys, held to the bodies it replaced.

Each side of a 64-lane level sorts on narrow keys: the sender prunes
on a (target, source) key with words read at the sorted sources
(``kernels.lane_prune_by_source``) and regroups the survivors into
per-destination source runs on one (destination, source, target) key
routed by the channel's range bounds (``kernels.source_runs``); the
owner sorts on a narrow by-target key with the lane unions taken off the
scan's run heads (``kernels.lane_winners``).  The formulations they
replaced are kept below as the oracles: the composite-key
``lane_winners`` / ``lane_prune``, the owner's ``resolve_lane_winners``
plus the ``BIT_OR`` SPA union, a ``lexsort`` regroup by owner, source
and target, and the byte-column ``count_lane_edges``.  Outputs, dtypes
and error messages must match.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.partition import Partition1D
from repro.core.validate import _BYTE_BITS, _input_edges, count_lane_edges, lane_words
from repro.graphs import Graph
from repro.kernels import numpy_backend
from repro.query.msbfs import WORD_LANES, _winning_slots
from repro.sparse import BIT_OR, SPA

# -- the parent bodies ---------------------------------------------------------


def old_wire_order(targets, sources):
    n = targets.size
    tmin, tmax = int(targets.min()), int(targets.max())
    smin, smax = int(sources.min()), int(sources.max())
    sbits = (smax - smin).bit_length()
    ibits = (n - 1).bit_length()
    if (tmax - tmin).bit_length() + sbits + ibits <= 64:
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


def old_suffix_winners(targets, live):
    same = targets[:-1] == targets[1:]
    after = np.zeros(targets.size, dtype=np.uint64)
    after[:-1] = live[1:] * same
    off = 1
    while same.any():
        after[:-off] |= after[off:] * same
        off <<= 1
        same = targets[:-off] == targets[off:]
    np.invert(after, out=after)
    after &= live
    return after


def old_lane_winners(targets, sources, words, nlanes):
    targets = np.asarray(targets, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    words = np.asarray(words, dtype=np.uint64)
    if targets.size == 0:
        return targets, sources, words, np.empty(0, dtype=np.uint64)
    targets, sources, order = old_wire_order(targets, sources)
    words = words[order]
    live = words & np.uint64((1 << nlanes) - 1)
    return targets, sources, words, old_suffix_winners(targets, live)


def old_lane_prune(targets, sources, words, nlanes):
    targets, sources, words, wins = old_lane_winners(targets, sources, words, nlanes)
    keep = wins != 0
    return targets[keep], sources[keep], words[keep]


def old_resolve_lane_winners(targets, sources, fresh, nlanes):
    targets, sources, _words, wins = old_lane_winners(targets, sources, fresh, nlanes)
    won = np.flatnonzero(wins)
    bits = np.flatnonzero(
        np.unpackbits(wins[won].view(np.uint8), bitorder="little").view(bool)
    )
    rows = won[bits >> 6]
    return targets[rows], bits & (WORD_LANES - 1), sources[rows]


def lexsort_source_runs(owners, nbuckets, targets, sources):
    """The run regroup as three ``lexsort`` keys, a repeated (target,
    source) row kept once, the runs cut where the (owner, source) pair
    changes."""
    order = np.lexsort((targets, sources, owners))
    targets, sources, owners = targets[order], sources[order], owners[order]
    fresh = np.ones(targets.size, dtype=bool)
    fresh[1:] = (targets[1:] != targets[:-1]) | (sources[1:] != sources[:-1])
    targets, sources, owners = targets[fresh], sources[fresh], owners[fresh]
    head = np.ones(targets.size, dtype=bool)
    head[1:] = (sources[1:] != sources[:-1]) | (owners[1:] != owners[:-1])
    heads = np.flatnonzero(head)
    return (
        targets,
        sources[heads],
        np.diff(heads, append=targets.size),
        np.bincount(owners[heads], minlength=nbuckets),
        np.bincount(owners, minlength=nbuckets),
    )


def old_count_lane_edges(csr, words, lanes, m_input=None):
    within = np.repeat(words, csr.degrees())
    within &= words[csr.indices]
    if lanes == 1:
        counts = [np.count_nonzero(within.view(bool))]
    else:
        octets = within.view(np.uint8).reshape(-1, within.itemsize)
        counts = np.concatenate(
            [
                np.bincount(octets[:, j], minlength=256) @ _BYTE_BITS
                for j in range((lanes + 7) // 8)
            ]
        )
    return [_input_edges(c, csr, m_input) for c in counts[:lanes]]


# -- helpers ---------------------------------------------------------------------


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("raises", type(exc), str(exc))


def lane_words_of(rng, size, nlanes, density=1.0):
    words = rng.integers(0, 1 << 63, size, dtype=np.uint64) << np.uint64(1)
    words |= rng.integers(0, 2, size, dtype=np.uint64)
    words &= np.uint64((1 << nlanes) - 1)
    words[rng.random(size) >= density] = 0
    return words


@st.composite
def sender_levels(draw):
    """One sender's gathered candidates and its frontier words: duplicate
    (target, source) rows as a non-canonical CSR gathers them, and a
    target span that puts the (target, source) key on either side of 32
    bits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([0, 1, 2, 40, 300]))
    nloc = draw(st.integers(1, 60))
    lo = draw(st.integers(-50, 10_000))
    spread = draw(st.sampled_from([1, 1 << 20, 1 << 30]))  # 32-bit key or not
    targets = rng.integers(0, draw(st.integers(1, 30)), size) * spread
    sources = rng.integers(lo, lo + nloc, size)
    if size > 1 and draw(st.booleans()):
        dup = rng.integers(0, size, size // 3 + 1)
        targets[dup[1:]], sources[dup[1:]] = targets[dup[:-1]], sources[dup[:-1]]
    nlanes = draw(st.integers(1, 64))
    fwords = lane_words_of(rng, nloc, nlanes, draw(st.sampled_from([1.0, 0.3])))
    return targets, sources, fwords, lo, nlanes


# -- sender ------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(level=sender_levels())
def test_sender_prune_equals_composite_key_prune(level):
    targets, sources, fwords, lo, nlanes = level
    *got, sieved = kernels.lane_prune_by_source(targets, sources, fwords, lo, nlanes)
    assert_same(got, old_lane_prune(targets, sources, fwords[sources - lo], nlanes))
    assert sieved == 0


@settings(max_examples=30, deadline=None)
@given(level=sender_levels())
def test_generic_prune_equals_composite_key_prune(level):
    targets, sources, fwords, lo, nlanes = level
    words = fwords[sources - lo]
    assert_same(
        kernels.lane_prune(targets, sources, words, nlanes),
        old_lane_prune(targets, sources, words, nlanes),
    )


# -- owner -------------------------------------------------------------------------


@st.composite
def owner_levels(draw):
    """An owner's received triples: each rank's pruned candidates in wire
    order, pieces in rank order — or two neighbouring pieces swapped, or
    the rows shuffled — with already-visited lanes masked off as the step
    does."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nranks = draw(st.integers(1, 6))
    per = draw(st.integers(1, 40))
    nloc = draw(st.integers(1, 25))
    lo = draw(st.integers(0, 5000))
    spread = draw(st.sampled_from([1, 1 << 27]))  # by-target key past 32 bits
    nlanes = draw(st.integers(1, 64))
    pieces = []
    for rank in range(nranks):
        size = draw(st.sampled_from([30, 120, 0, 1]))
        targets = lo + rng.integers(0, nloc, size) * spread
        sources = rng.integers(per * rank, per * rank + per, size)
        words = lane_words_of(rng, size, nlanes)
        pieces.append(old_lane_prune(targets, sources, words, nlanes))
    shape = draw(st.sampled_from(["swapped", "shuffled", "rank-order"]))
    if shape == "swapped" and nranks > 1:
        k = draw(st.integers(0, nranks - 2))
        pieces[k], pieces[k + 1] = pieces[k + 1], pieces[k]
    rt, rs, rw = (np.concatenate(column) for column in zip(*pieces))
    if shape == "shuffled":
        perm = rng.permutation(rt.size)
        rt, rs, rw = rt[perm], rs[perm], rw[perm]
    # Visited words per distinct target: the spread keeps ids sparse.
    distinct, slot = np.unique(rt, return_inverse=True)
    fresh = rw & ~lane_words_of(rng, distinct.size, nlanes, 0.5)[slot]
    alive = fresh != 0
    return rt[alive], rs[alive], fresh[alive], nlanes, shape


@settings(max_examples=100, deadline=None)
@given(level=owner_levels())
def test_owner_update_equals_resolve_plus_spa_union(level):
    """The winning slots and each reached target's lane union equal the
    per-slot resolve and the ``BIT_OR`` SPA's extract, and input out of
    the pieces' order takes the full key."""
    rt, rs, fresh, nlanes, shape = level
    fallbacks = []
    full_key = numpy_backend._wire_order
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            numpy_backend,
            "_wire_order",
            lambda *args: fallbacks.append(1) or full_key(*args),
        )
        targets, sources, wins, reached, unions = kernels.lane_winners(
            rt, rs, fresh, nlanes
        )
    assert_same(
        _winning_slots(targets, sources, wins),
        old_resolve_lane_winners(rt, rs, fresh, nlanes),
    )
    # The SPA indexes the distinct targets: the spread keeps ids sparse.
    distinct, slot = np.unique(rt, return_inverse=True)
    spa = SPA(max(distinct.size, 1), BIT_OR)
    spa.accumulate(slot, fresh)
    pos, won = spa.extract_and_reset()
    assert_same((reached, unions), (distinct[pos], won))
    # Wire order inside each piece, pieces in rank order: one narrow
    # sort settles it.  A swap that puts a later rank's source first
    # within a target needs the full key.
    ordered = np.lexsort((rs, rt))
    stable = np.argsort(rt, kind="stable")
    if np.array_equal(ordered, stable):
        assert not fallbacks
    else:
        assert fallbacks and shape != "rank-order"


def test_owner_update_of_an_empty_level():
    none = np.empty(0, dtype=np.int64)
    got = kernels.lane_winners(none, none, none.view(np.uint64), 64)
    assert_same(got[:2], old_lane_winners(none, none, none.view(np.uint64), 64)[:2])
    assert [a.dtype for a in got[2:]] == [np.uint64, np.int64, np.uint64]
    assert all(a.size == 0 for a in got)


# -- pack --------------------------------------------------------------------------


@st.composite
def pack_levels(draw):
    """Candidates a 1D sender regroups: the msbfs prune's (target,
    source)-ordered output, or the unordered candidates of a level
    without the prune, with repeated (target, source) rows and sources
    wide enough to pass the 32- and 64-bit keys."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nranks = draw(st.integers(1, 6))
    n = draw(st.integers(nranks, 400))
    size = draw(st.sampled_from([50, 300, 0, 1, 2]))
    targets = rng.integers(0, n, size)
    spread = draw(st.sampled_from([1, 1 << 28, (1 << 62) - 1]))
    sources = rng.integers(0, draw(st.sampled_from([3, 1000])), size) * spread
    if size > 1:
        dup = rng.integers(0, size, size // 3 + 1)
        targets[dup[1:]], sources[dup[1:]] = targets[dup[:-1]], sources[dup[:-1]]
    if draw(st.sampled_from(["unordered", "wire-order"])) == "wire-order":
        order = np.lexsort((sources, targets))
        targets, sources = targets[order], sources[order]
    return targets, sources, Partition1D(n, nranks), nranks


@settings(max_examples=80, deadline=None)
@given(level=pack_levels())
def test_run_regroup_equals_the_lexsort_regroup(level):
    targets, sources, part, nranks = level
    bounds = np.asarray(part.bounds)
    columns = [a.copy() for a in (targets, sources)]
    owners = part.owner_of(targets)
    want = lexsort_source_runs(owners, nranks, targets, sources)
    assert_same(kernels.source_runs(targets, sources, bounds), want)
    for given_col, kept in zip((targets, sources), columns):
        assert np.array_equal(given_col, kept)


@pytest.mark.parametrize("bad", [-1, 40])
def test_run_regroup_range_errors_match(bad):
    """A target outside the ranges raises what ``Partition1D.owner_of``
    raises for it."""
    part = Partition1D(40, 3)
    bounds = np.asarray(part.bounds)
    t = np.array([3, bad, 5], dtype=np.int64)
    want = outcome(part.owner_of, t)
    assert want[0] == "raises"
    assert outcome(kernels.source_runs, t, t, bounds) == want


# -- edge count ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nlanes=st.integers(1, 64),
    with_m_input=st.booleans(),
)
def test_lane_edge_count_equals_byte_columns(seed, nlanes, with_m_input):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    m = int(rng.integers(0, 4 * n))
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    src, dst = np.concatenate([src, src[: m // 3]]), np.concatenate([dst, dst[: m // 3]])
    graph = Graph.from_edges(n, src, dst, seed=seed)
    reached = rng.random((n, nlanes)) < 0.6 if nlanes > 1 else rng.random(n) < 0.6
    words = lane_words(reached)
    m_input = graph.m_input if with_m_input else None
    assert count_lane_edges(graph.csr, words, nlanes, m_input) == old_count_lane_edges(
        graph.csr, words, nlanes, m_input
    )

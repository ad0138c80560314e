"""The 2D host path's distributor and the owner-free pair pack, held to
the bodies they replaced.

``build_2d_blocks`` reads each rank's DCSC columns off the CSR's
(column, row block) runs — one byte-label gather, a radix sort of the
runs and one range-gather of the row ids — and
``CommChannel.pack_pairs`` routes each target by the channel's own range
bounds, counting ascending candidates with one ``searchsorted`` instead
of labelling and regrouping them.  The formulations they replaced are
kept below, verbatim but for names, as the oracles: the nonzero-wide
stable bucket of ``build_2d_blocks`` and the owner-labelled
``pack_pairs``.  Blocks must be array-equal with equal dtypes; wire
buffers, ``ExchangeInfo`` and the sieve's state must be equal; error
messages must match.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.comm import CommChannel, ExchangeInfo, Sieve, VertexRange
from repro.comm.channel import _SIEVE_BYTES_PER_FLAG
from repro.core.bfs2d import LocalBlock, build_2d_blocks
from repro.core.partition import Decomp2D
from repro.graphs.csr import CSR, build_csr
from repro.sparse.dcsc import DCSC

# -- the parent bodies ---------------------------------------------------------


def old_build_2d_blocks(csr, decomp, threads=1):
    if csr.nnz and (csr.indices.min() < 0 or csr.indices.max() >= csr.n):
        raise ValueError(f"adjacency ids out of range [0, {csr.n})")
    if not csr.is_canonical():
        csr = build_csr(
            csr.n,
            np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees()),
            csr.indices,
            symmetrize=False,
            drop_self_loops=False,
        )
    pr, pc = decomp.pr, decomp.pc
    degrees = csr.degrees()
    row_part, col_part = decomp.rank_tables()
    ranks = row_part[csr.indices]
    ranks += np.repeat(col_part, degrees)
    order = np.argsort(ranks, kind="stable")
    rows = csr.indices[order]
    cols = np.repeat(np.arange(csr.n, dtype=np.int64), degrees)[order]
    ends = np.searchsorted(
        ranks[order], np.arange(pr * pc, dtype=ranks.dtype), side="right"
    )
    offsets = np.concatenate([[0], ends])
    blocks = []
    for rank in range(pr * pc):
        i, j = divmod(rank, pc)
        rlo, rhi = decomp.row_block(i)
        clo, chi = decomp.col_block(j)
        sel = slice(offsets[rank], offsets[rank + 1])
        block = DCSC.from_sorted_coo(
            rhi - rlo, chi - clo, rows[sel] - rlo, cols[sel] - clo
        )
        pieces, band_offsets = block.split_rowwise(threads)
        blocks.append(LocalBlock(pieces=pieces, band_offsets=band_offsets))
    return blocks


def old_pack_pairs(self, targets, parents, owners):
    targets = np.asarray(targets, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    owners = np.asarray(owners, dtype=np.int64)
    if self.sieve is not None:
        with self.obs.span("sieve"):
            before = targets.size
            if self.charger is not None and before:
                self.charger.random(
                    float(before),
                    ws_words=max(self.sieve.nglobal / _SIEVE_BYTES_PER_FLAG, 1.0),
                )
            targets, parents, owners = self.sieve.filter(
                targets, parents, owners
            )
            dropped = int(before - targets.size)
            if self.charger is not None and dropped:
                self.charger.count(sieve_dropped=float(dropped))
            self.sieve.mark(targets)
            self.metrics.inc("sieve_candidates", float(before))
            self.metrics.inc("sieve_dropped", float(dropped))
    else:
        dropped = 0
    with self.obs.span("encode", codec=self.codec.name):
        self.metrics.inc("codec_encodes", 1.0, codec=self.codec.name)
        (targets, parents), counts = kernels.group_by_owner(
            owners, self.comm.size, targets, parents
        )
        send = self.codec.encode_pairs_many(
            targets, parents, counts, self.ranges
        )
        payload, wire = self._off_rank_words(2.0 * counts, send)
        self._charge_encode(float(targets.size), 2.0 * targets.size, wire)
    info = ExchangeInfo(int(targets.size), payload, wire, dropped)
    return send, info


# -- build_2d_blocks -----------------------------------------------------------


@st.composite
def graphs(draw):
    """A small directed graph with self-loops, isolated vertices and
    empty rows, as a canonical, multigraph or hand-built (unsorted) CSR."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    flavour = draw(st.sampled_from(["canonical", "multigraph", "hand-built"]))
    if flavour == "hand-built":
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return CSR(n=n, indptr=indptr, indices=dst[order])
    return build_csr(
        n, src, dst, symmetrize=flavour == "canonical" and draw(st.booleans()),
        dedup=flavour == "canonical", drop_self_loops=False,
    )


GRIDS = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (1, 4), (5, 1), (7, 2)]


def assert_blocks_equal(got, want):
    assert len(got) == len(want)
    for local, ref in zip(got, want):
        assert local.band_offsets == ref.band_offsets
        assert len(local.pieces) == len(ref.pieces)
        for a, b in zip(local.pieces, ref.pieces):
            assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
            for name in ("jc", "cp", "ir"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype, name
                assert np.array_equal(x, y), name


@settings(max_examples=200, deadline=None)
@given(graphs(), st.sampled_from(GRIDS), st.sampled_from([1, 2, 3]))
def test_run_distributor_equals_the_nonzero_bucket(csr, grid, threads):
    """Square, rectangular and 1x1 grids, ``p`` not dividing ``n``
    (including ``n < p``: empty blocks), thread bands."""
    decomp = Decomp2D(csr.n, *grid)
    assert_blocks_equal(
        build_2d_blocks(csr, decomp, threads), old_build_2d_blocks(csr, decomp, threads)
    )


def test_run_distributor_on_an_edgeless_graph():
    csr = build_csr(5, np.empty(0, np.int64), np.empty(0, np.int64))
    for grid in ((1, 1), (2, 3)):
        decomp = Decomp2D(5, *grid)
        assert_blocks_equal(build_2d_blocks(csr, decomp), old_build_2d_blocks(csr, decomp))


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_ids_raise_the_same_message(bad):
    csr = CSR(n=4, indptr=np.array([0, 1, 2, 2, 3]), indices=np.array([1, bad, 2]))
    decomp = Decomp2D(4, 2)
    with pytest.raises(ValueError) as want:
        old_build_2d_blocks(csr, decomp)
    with pytest.raises(ValueError) as got:
        build_2d_blocks(csr, decomp)
    assert str(got.value) == str(want.value) == "adjacency ids out of range [0, 4)"


def test_a_column_split_into_two_runs_of_one_block_is_refused(monkeypatch):
    """The run premise is checked, not assumed: an adjacency that leaves a
    row block and comes back (``[1, 9, 2]`` with blocks ``[0, 5)`` and
    ``[5, 10)``) would give one block two runs of the same column."""
    csr = CSR(n=10, indptr=np.array([0, 3] + [3] * 9), indices=np.array([1, 9, 2]))
    monkeypatch.setattr(CSR, "is_canonical", lambda self: True)
    with pytest.raises(ValueError, match="pairs are not in column-major order"):
        build_2d_blocks(csr, Decomp2D(10, 2))


# -- owner-free pack_pairs -----------------------------------------------------


def owners_by_scan(ranges, targets):
    """Each target's rank by a linear scan of the non-empty ranges."""
    out = []
    for t in targets.tolist():
        (owner,) = [j for j, r in enumerate(ranges) if r.lo <= t < r.lo + r.nbits]
        out.append(owner)
    return np.array(out, dtype=np.int64)


@st.composite
def routed_pairs(draw):
    """Ranges tiling ``[base, base + n)`` with empty ranges anywhere (the
    diagonal vector distribution leaves all but one empty), and
    candidates over them: ascending (deduplicated or not) or unordered."""
    nranks = draw(st.integers(1, 6))
    base = draw(st.integers(0, 200))
    if draw(st.booleans()):
        sizes = [0] * nranks
        sizes[draw(st.integers(0, nranks - 1))] = draw(st.integers(1, 60))
    else:
        sizes = draw(st.lists(st.integers(0, 30), min_size=nranks, max_size=nranks))
        if sum(sizes) == 0:
            sizes[-1] = 1
    los = base + np.concatenate([[0], np.cumsum(sizes)[:-1]])
    ranges = [VertexRange(int(lo), size) for lo, size in zip(los, sizes)]
    top = base + sum(sizes)
    count = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = rng.integers(base, top, count)
    order = draw(st.sampled_from(["unique", "sorted", "unordered"]))
    if order == "unique":
        targets = np.unique(targets)
    elif order == "sorted":
        targets = np.sort(targets)
    parents = rng.integers(-1, 1 << 40, targets.size)
    return ranges, targets, parents, top, rng


def channel_pair(ranges, codec, top, seen):
    """Two channels on one fake rank, each with its own copy of a sieve."""
    comm = SimpleNamespace(size=len(ranges), rank=len(ranges) // 2)
    out = []
    for _ in range(2):
        sieve = None
        if seen is not None:
            sieve = Sieve(top)
            sieve.seen[:] = seen
        out.append(CommChannel(comm, ranges, codec=codec, sieve=sieve))
    return out


@settings(max_examples=300, deadline=None)
@given(routed_pairs(), st.sampled_from(["raw", "auto"]), st.booleans())
def test_owner_free_pack_equals_the_owner_labelled_body(case, codec, sieve):
    ranges, targets, parents, top, rng = case
    seen = rng.random(top) < 0.3 if sieve else None
    new, old = channel_pair(ranges, codec, top, seen)
    want_send, want_info = old_pack_pairs(
        old, targets, parents, owners_by_scan(ranges, targets)
    )
    columns = targets.copy(), parents.copy()
    send, info = new.pack_pairs(targets, parents)
    assert info == want_info
    assert len(send) == len(want_send) == len(ranges)
    for got_buf, want_buf in zip(send, want_send):
        assert got_buf.dtype == want_buf.dtype
        assert got_buf.tobytes() == want_buf.tobytes()
    if sieve:
        assert np.array_equal(new.sieve.seen, old.sieve.seen)
        assert new.sieve.dropped == old.sieve.dropped
    assert np.array_equal(targets, columns[0]) and np.array_equal(parents, columns[1])


@pytest.mark.parametrize("sieve", [False, True])
@pytest.mark.parametrize("bad", [99, 140, -3])
def test_rejected_target_leaves_the_sieve_unmarked(sieve, bad):
    """A target outside every range raises before the sieve sees it."""
    ranges = [VertexRange(100, 20), VertexRange(120, 0), VertexRange(120, 20)]
    (channel, _) = channel_pair(ranges, "raw", 200, np.zeros(200, bool) if sieve else None)
    targets = np.array([101, 125, bad], dtype=np.int64)
    with pytest.raises(ValueError, match=r"vertex ids out of range \[100, 140\)"):
        channel.pack_pairs(targets, targets)
    if sieve:
        assert not channel.sieve.seen.any() and channel.sieve.dropped == 0

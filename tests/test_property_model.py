"""Property-based tests for the performance model and partitioning."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import build_send_buffers
from repro.core.partition import Decomp2D, Partition1D
from repro.kernels import unpack_pairs
from repro.model import FRANKLIN, HOPPER, RmatVolumeModel, alpha_L, cost_1d, cost_2d
from repro.model.network import a2a_time, allgather_time


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64))
def test_partition1d_owner_matches_range(n, p):
    part = Partition1D(n, p)
    if n == 0:
        return
    vertices = np.arange(n, dtype=np.int64)
    owners = part.owner_of(vertices)
    for rank in range(p):
        lo, hi = part.range_of(rank)
        assert np.all(owners[lo:hi] == rank)
    # Every vertex owned exactly once; ranges tile [0, n).
    total = sum(part.range_of(r)[1] - part.range_of(r)[0] for r in range(p))
    assert total == n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5_000), st.integers(1, 12), st.booleans())
def test_decomp2d_vector_pieces_tile(n, side, diagonal):
    decomp = Decomp2D(n, side, diagonal_vectors=diagonal)
    covered = []
    for i in range(side):
        for j in range(side):
            lo, hi = decomp.vec_piece(i, j)
            covered.extend(range(lo, hi))
    assert sorted(covered) == list(range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5_000), st.integers(1, 9), st.integers(1, 9))
def test_decomp2d_rectangular_blocks_tile(n, pr, pc):
    """Rectangular grids: row blocks, column blocks and vector pieces all
    tile the vertex space independently."""
    decomp = Decomp2D(n, pr, pc)
    row_cover = sum(decomp.row_block(i)[1] - decomp.row_block(i)[0] for i in range(pr))
    col_cover = sum(decomp.col_block(j)[1] - decomp.col_block(j)[0] for j in range(pc))
    assert row_cover == n and col_cover == n
    covered = []
    for i in range(pr):
        for j in range(pc):
            lo, hi = decomp.vec_piece(i, j)
            covered.extend(range(lo, hi))
    assert sorted(covered) == list(range(n))
    # Owner functions agree with the block ranges.
    if n:
        vertices = np.arange(n, dtype=np.int64)
        rb = decomp.row_block_of(vertices)
        cb = decomp.col_block_of(vertices)
        for i in range(pr):
            lo, hi = decomp.row_block(i)
            assert np.all(rb[lo:hi] == i)
        for j in range(pc):
            lo, hi = decomp.col_block(j)
            assert np.all(cb[lo:hi] == j)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 999), st.integers(0, 2**30)), max_size=100),
    st.integers(1, 16),
)
def test_send_buffers_conserve_pairs(pairs, nbuckets):
    targets = np.array([p[0] for p in pairs], dtype=np.int64)
    parents = np.array([p[1] for p in pairs], dtype=np.int64)
    owners = targets % nbuckets
    send = build_send_buffers(targets, parents, owners, nbuckets)
    assert len(send) == nbuckets
    rebuilt = []
    for j, buf in enumerate(send):
        t, p = unpack_pairs(buf)
        assert np.all(t % nbuckets == j)  # routed to the right bucket
        rebuilt.extend(zip(t.tolist(), p.tolist()))
    assert sorted(rebuilt) == sorted(pairs)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 1e12), st.floats(1.0, 1e12))
def test_alpha_l_monotone_in_working_set(a, b):
    lo, hi = sorted((a, b))
    assert alpha_L(lo, FRANKLIN) <= alpha_L(hi, FRANKLIN) + 1e-18


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 65536),
    st.floats(0.0, 1e9),
    st.integers(1, 24),
)
def test_collective_auto_never_worse_than_fixed(parties, words, rpn):
    auto, _ = a2a_time(HOPPER, parties, words, rpn)
    for algo in ("pairwise", "bruck"):
        fixed, _ = a2a_time(HOPPER, parties, words, rpn, algorithm=algo)
        assert auto <= fixed + 1e-15
    auto_ag, _ = allgather_time(HOPPER, parties, words, rpn, 1024)
    for algo in ("ring", "recursive-doubling"):
        fixed, _ = allgather_time(HOPPER, parties, words, rpn, 1024, algorithm=algo)
        assert auto_ag <= fixed + 1e-15


@settings(max_examples=40, deadline=None)
@given(
    st.integers(16, 33),
    st.sampled_from([4, 16, 64]),
    st.sampled_from([64, 512, 4096, 40000]),
)
def test_projected_costs_positive_and_decomposed(scale, ef, cores):
    """Closed-form costs stay finite, positive, and self-consistent over
    the whole parameter space the benches sweep."""
    model = RmatVolumeModel()
    n, m = 1 << scale, ef << scale
    c1 = cost_1d(model.volumes_1d(n, m, cores), cores, FRANKLIN)
    assert c1.total > 0 and np.isfinite(c1.total)
    assert c1.total >= c1.comm >= 0
    c2 = cost_2d(model.volumes_2d(n, m, cores), cores, HOPPER)
    assert c2.total > 0 and np.isfinite(c2.total)
    assert abs(c2.comm - (c2.a2a + c2.ag + c2.transpose + c2.sync)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**6))
def test_survival_bounded_and_monotone(parties):
    model = RmatVolumeModel()
    s = model.survival(parties)
    assert 0.0 < s <= 1.0  # saturates to 1.0 in float at huge g
    if parties > 1:
        assert s >= model.survival(parties - 1)

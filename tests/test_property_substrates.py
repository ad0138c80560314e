"""Property-based tests for the substrate layers (collectives, sparse)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.permutation import invert_permutation, random_permutation
from repro.mpsim import collectives as coll
from repro.sparse import DCSC, spmsv_heap, spmsv_spa

from tests.conftest import spmsv_reference


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda size: st.lists(
            st.lists(
                st.lists(st.integers(-(2**40), 2**40), max_size=8),
                min_size=size,
                max_size=size,
            ),
            min_size=size,
            max_size=size,
        )
    )
)
def test_alltoallv_conserves_multiset(payload_lists):
    """Everything sent is received, exactly once, by the right rank."""
    payloads = [
        [np.array(buf, dtype=np.int64) for buf in row] for row in payload_lists
    ]
    out = coll.alltoallv(payloads)
    size = len(payloads)
    sent = sorted(
        np.concatenate(
            [payloads[i][j] for i in range(size) for j in range(size)]
            or [np.empty(0, np.int64)]
        ).tolist()
    )
    received = sorted(
        np.concatenate(
            [out[j][i] for j in range(size) for i in range(size)]
            or [np.empty(0, np.int64)]
        ).tolist()
    )
    assert sent == received
    for j in range(size):
        for i in range(size):
            assert np.array_equal(out[j][i], payloads[i][j])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=500), st.integers(0, 2**16))
def test_permutation_inverts(n, seed):
    perm = random_permutation(n, seed)
    inv = invert_permutation(perm)
    assert np.array_equal(perm[inv], np.arange(n))


@st.composite
def coo_matrices(draw):
    nrows = draw(st.integers(1, 50))
    ncols = draw(st.integers(1, 50))
    nnz = draw(st.integers(0, 150))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    return nrows, ncols, np.array(rows, np.int64), np.array(cols, np.int64)


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_dcsc_round_trip(matrix):
    nrows, ncols, rows, cols = matrix
    d = DCSC.from_coo(nrows, ncols, rows, cols)
    r2, c2 = d.to_coo()
    d2 = DCSC.from_coo(nrows, ncols, r2, c2)
    assert np.array_equal(d.jc, d2.jc)
    assert np.array_equal(d.cp, d2.cp)
    assert np.array_equal(d.ir, d2.ir)
    # nnz equals the number of *distinct* entries.
    distinct = len({(int(r), int(c)) for r, c in zip(rows, cols)})
    assert d.nnz == distinct


@settings(max_examples=60, deadline=None)
@given(coo_matrices(), st.integers(0, 2**16))
def test_spmsv_kernels_equal_reference(matrix, seed):
    """SPA kernel == heap kernel == brute-force reference, always."""
    nrows, ncols, rows, cols = matrix
    d = DCSC.from_coo(nrows, ncols, rows, cols)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, ncols + 1))
    fi = np.unique(rng.integers(0, ncols, size=k)) if k else np.empty(0, np.int64)
    fv = fi + 1
    i_spa, v_spa, _ = spmsv_spa(d, fi, fv)
    i_heap, v_heap, _ = spmsv_heap(d, fi, fv)
    i_ref, v_ref = spmsv_reference(nrows, rows, cols, fi, fv)
    assert np.array_equal(i_spa, i_heap)
    assert np.array_equal(v_spa, v_heap)
    assert np.array_equal(i_spa, i_ref)
    assert np.array_equal(v_spa, v_ref)


@settings(max_examples=60, deadline=None)
@given(coo_matrices(), st.integers(1, 8))
def test_dcsc_rowsplit_partitions_nnz(matrix, pieces):
    nrows, ncols, rows, cols = matrix
    d = DCSC.from_coo(nrows, ncols, rows, cols)
    parts, offsets = d.split_rowwise(pieces)
    assert sum(p.nnz for p in parts) == d.nnz
    assert sum(p.nrows for p in parts) == d.nrows
    # Every band is what a from-scratch sort of its masked pairs builds.
    r, c = d.to_coo()
    for part, lo in zip(parts, offsets):
        band = (r >= lo) & (r < lo + part.nrows)
        ref = DCSC.from_coo(part.nrows, ncols, r[band] - lo, c[band])
        assert np.array_equal(part.jc, ref.jc)
        assert np.array_equal(part.cp, ref.cp)
        assert np.array_equal(part.ir, ref.ir)

"""Kernel 1 (graph construction) against its executable specification.

``rmat_edges`` fills reused per-bit buffers and ``build_csr`` /
``Graph.from_edges`` build one in-place composite key.  The
formulations they replaced are kept below as oracles, verbatim but for
names and a parameter for the composite-key limit: the generator's fresh
arrays per bit, and construction's permuted copy, symmetrising
``concatenate`` pair and ``bincount``.
Every property holds the current code ``array_equal`` (dtype included)
to them — the goldens, ``BENCH_*.json`` and every seeded workload hang
off these bytes.

A ``tracemalloc`` guard pins what the rewrite is for: numpy reports its
buffers to ``tracemalloc``, so the peaks are deterministic, unlike a
wall clock.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import csr as csr_module
from repro.graphs.csr import CSR, build_csr
from repro.graphs.graph import Graph
from repro.graphs.permutation import apply_permutation, random_permutation
from repro.graphs.rmat import GRAPH500_PARAMS, rmat_edges

# -- the oracles -----------------------------------------------------------------


def rmat_edges_per_bit(scale, edgefactor=16, params=GRAPH500_PARAMS, seed=0, noise=0.0):
    """``rmat_edges`` as it was: a fresh draw, fresh masks and two int64
    copies per bit."""
    a, b, c, d = params
    n = 1 << scale
    m = int(round(edgefactor * n))
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        aa, bb, cc, dd = a, b, c, d
        if noise:
            jitter = 1.0 + noise * (2.0 * rng.random(4) - 1.0)
            aa, bb, cc, dd = np.array([a, b, c, d]) * jitter
            total = aa + bb + cc + dd
            aa, bb, cc, dd = aa / total, bb / total, cc / total, dd / total
        draw = rng.random(m)
        src_bit = draw >= aa + bb
        dst_bit = ((draw >= aa) & (draw < aa + bb)) | (draw >= aa + bb + cc)
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    return src, dst


def build_csr_spec(n, src, dst, symmetrize=True, dedup=True, drop_self_loops=True,
                   key_max_n=1 << 31):
    """``build_csr`` as it was: mask, ``concatenate``, key, ``bincount``
    (``key_max_n`` is its hard-wired composite-key limit)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if src.size and n <= key_max_n:
        key = src * np.int64(n) + dst
        key.sort()
        if dedup:
            keep = np.empty(key.size, dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
        src = key // n
        dst = key - src * n
    else:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if dedup and src.size:
            keep = np.empty(src.size, dtype=bool)
            keep[0] = True
            np.not_equal(src[1:], src[:-1], out=keep[1:])
            keep[1:] |= dst[1:] != dst[:-1]
            src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSR(n=n, indptr=indptr, indices=dst)


def from_edges_spec(n, src, dst, symmetrize=True, shuffle=True, seed=0, drop_self_loops=True):
    """``Graph.from_edges`` as it was: a permuted copy of the edge list,
    then ``build_csr``.  Returns ``(csr, m_input, perm)``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    perm = None
    if shuffle:
        perm = random_permutation(n, seed)
        src, dst = apply_permutation(perm, src, dst)
    csr = build_csr_spec(n, src, dst, symmetrize=symmetrize, drop_self_loops=drop_self_loops)
    return csr, int(src.size), perm


def assert_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def assert_same_csr(got: CSR, want: CSR):
    assert got.n == want.n
    assert_identical((got.indptr, got.indices), (want.indptr, want.indices))


# -- the generator ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    scale=st.integers(0, 12),
    edgefactor=st.one_of(st.integers(1, 16), st.floats(0.25, 8.0)),
    seed=st.integers(0, 2**32 - 1),
    noise=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
)
def test_rmat_edges_equals_per_bit_spec(scale, edgefactor, seed, noise):
    got = rmat_edges(scale, edgefactor, seed=seed, noise=noise)
    assert_identical(got, rmat_edges_per_bit(scale, edgefactor, seed=seed, noise=noise))


@pytest.mark.parametrize("params", [(0.25, 0.25, 0.25, 0.25), (0.0, 0.5, 0.0, 0.5), (1.0, 0, 0, 0)])
def test_rmat_edges_equals_spec_on_edge_quadrants(params):
    """Empty quadrants make thresholds coincide — the and-not reading of
    the destination bit must agree with the spec's two compares."""
    got = rmat_edges(9, 4, params=params, seed=5)
    assert_identical(got, rmat_edges_per_bit(9, 4, params=params, seed=5))


# -- construction -------------------------------------------------------------------


@st.composite
def edge_lists(draw):
    """``(n, src, dst)``: n in 1..64 (powers of two and not), endpoints
    drawn from a small pool so duplicates and self-loops are common."""
    n = draw(st.integers(1, 64))
    m = draw(st.integers(0, 120))
    ids = st.integers(0, draw(st.integers(1, n)) - 1)
    src = np.array(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    if m and draw(st.booleans()):
        loops = draw(st.integers(1, m))
        dst[:loops] = src[:loops]
    return n, src, dst


FLAGS = st.fixed_dictionaries(
    {"symmetrize": st.booleans(), "dedup": st.booleans(), "drop_self_loops": st.booleans()}
)


@settings(max_examples=150, deadline=None)
@given(edges=edge_lists(), flags=FLAGS)
def test_build_csr_equals_spec(edges, flags):
    assert_same_csr(build_csr(*edges, **flags), build_csr_spec(*edges, **flags))


@settings(max_examples=150, deadline=None)
@given(
    edges=edge_lists(),
    symmetrize=st.booleans(),
    shuffle=st.booleans(),
    drop_self_loops=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_edges_equals_spec(edges, symmetrize, shuffle, drop_self_loops, seed):
    flags = dict(symmetrize=symmetrize, shuffle=shuffle, seed=seed, drop_self_loops=drop_self_loops)
    graph = Graph.from_edges(*edges, **flags)
    csr, m_input, perm = from_edges_spec(*edges, **flags)
    assert_same_csr(graph.csr, csr)
    assert graph.m_input == m_input and graph.directed is not symmetrize
    assert (graph.perm is None) == (perm is None)
    if perm is not None:
        assert_identical((graph.perm,), (perm,))


def _shapes():
    rng = np.random.default_rng(8)
    loops = np.arange(12, dtype=np.int64)
    hub = np.repeat(np.array([3, 3, 7], dtype=np.int64), 40)
    return {
        "empty": (12, np.empty(0, np.int64), np.empty(0, np.int64)),
        "self-loops-only": (12, loops, loops.copy()),
        "duplicate-heavy": (12, hub, np.roll(hub, 1)),
        "one-edge-n1-loop": (1, np.zeros(1, np.int64), np.zeros(1, np.int64)),
        "non-power-of-two": (37, rng.integers(0, 37, 400), rng.integers(0, 37, 400)),
        "power-of-two": (64, rng.integers(0, 64, 400), rng.integers(0, 64, 400)),
    }


@pytest.mark.parametrize("shape", sorted(_shapes()))
@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize("drop_self_loops", [True, False])
def test_build_csr_equals_spec_on_shapes(shape, symmetrize, dedup, drop_self_loops):
    n, src, dst = _shapes()[shape]
    flags = dict(symmetrize=symmetrize, dedup=dedup, drop_self_loops=drop_self_loops)
    assert_same_csr(build_csr(n, src, dst, **flags), build_csr_spec(n, src, dst, **flags))
    shuffled = dict(symmetrize=symmetrize, shuffle=True, seed=4, drop_self_loops=drop_self_loops)
    assert_same_csr(
        Graph.from_edges(n, src, dst, **shuffled).csr, from_edges_spec(n, src, dst, **shuffled)[0]
    )


def test_lexsort_path_for_ids_too_wide_for_a_key(monkeypatch):
    """``n`` above the composite-key limit (2**31; lowered here, since an
    ``n + 1`` indptr at the real limit is 16 GiB) takes the lexsort
    path — with and without relabelling."""
    rng = np.random.default_rng(2)
    n, src, dst = 40, rng.integers(0, 40, 300), rng.integers(0, 40, 300)
    dst[:30] = src[:30]
    monkeypatch.setattr(csr_module, "_KEY_MAX_N", n - 1)
    for dedup in (True, False):
        want = build_csr_spec(n, src, dst, dedup=dedup, key_max_n=n - 1)
        assert_same_csr(build_csr(n, src, dst, dedup=dedup), want)
    graph = Graph.from_edges(n, src, dst, seed=6)
    assert_same_csr(graph.csr, from_edges_spec(n, src, dst, seed=6)[0])


@pytest.mark.parametrize("shuffle", [False, True])
def test_construction_errors(shuffle):
    """Both ``ValueError`` texts, through ``build_csr`` and through
    ``Graph.from_edges`` — out-of-range ids are caught before they are
    relabelled, so a negative id cannot wrap around the permutation."""
    for build in (build_csr, lambda n, s, d: Graph.from_edges(n, s, d, shuffle=shuffle)):
        with pytest.raises(ValueError, match=r"edge arrays must be equal-length 1-D"):
            build(4, np.array([0, 1]), np.array([1]))
        with pytest.raises(ValueError, match=r"edge arrays must be equal-length 1-D"):
            build(4, np.zeros((2, 2), np.int64), np.zeros((2, 2), np.int64))
        for bad in (4, -1):
            with pytest.raises(ValueError, match=r"edge endpoints out of range \[0, 4\)"):
                build(4, np.array([0, bad]), np.array([1, 2]))


# -- the memory guard -------------------------------------------------------------------

#: Peak of the call over its output's bytes, at scale 14.  Measured:
#: generator 2.30 with fresh arrays per bit, 2.05 on reused buffers;
#: construction 6.41 with the permuted and symmetrised copies, 2.33 from
#: one in-place key.
MAX_GENERATE_PEAK = 2.2
MAX_CONSTRUCT_PEAK = 3.0


def _traced(fn):
    """``(fn(), bytes allocated at the peak of the call)``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_kernel1_peak_memory():
    (src, dst), generate_peak = _traced(lambda: rmat_edges(14, 16, seed=1))
    assert generate_peak <= MAX_GENERATE_PEAK * (src.nbytes + dst.nbytes)
    graph, construct_peak = _traced(lambda: Graph.from_edges(1 << 14, src, dst, seed=1))
    csr_bytes = graph.csr.indptr.nbytes + graph.csr.indices.nbytes
    assert construct_peak <= MAX_CONSTRUCT_PEAK * csr_bytes, construct_peak / csr_bytes

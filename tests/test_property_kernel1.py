"""Kernel 1 (graph construction) and the serial oracle against their
executable specifications.

``rmat_edges`` fills reused per-bit buffers, ``build_csr`` /
``Graph.from_edges`` build one in-place composite key in bounded chunks,
and ``bfs_serial`` expands each level in slices under an edge budget.
The formulations they replaced are kept below as oracles, verbatim but
for names, a parameter for the composite-key limit and, in the
whole-array key body, its input checks and inlined key helper: the
generator's fresh arrays per bit; construction's permuted copy,
symmetrising ``concatenate`` pair and ``bincount``; the whole-array key
build and dedup; and the whole-frontier level expansion.  Every property holds the current
code ``array_equal`` (dtype included) to them — the goldens,
``BENCH_*.json`` and every seeded workload hang off these bytes.

``tracemalloc`` guards pin what the rewrites are for: numpy reports its
buffers to ``tracemalloc``, so the peaks are deterministic, unlike a
wall clock.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serial as serial_module
from repro.core.frontier import dedup_candidates
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


def build_csr_by_whole_key(n, src, dst, perm, symmetrize, dedup, drop_self_loops):
    """``_build_csr`` as it was, past its input checks: an edge-list-sized
    relabelled copy of ``src``, and dedup by a whole-array mask and a
    compacted copy of the key, whose slice keeps the dropped tail."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size == 0:
        if perm is not None:
            src, dst = perm[src], perm[dst]
        return csr_module._build_csr_by_lexsort(n, src, dst, symmetrize, dedup, drop_self_loops)
    loops = np.flatnonzero(src == dst) if drop_self_loops else np.empty(0, dtype=np.int64)
    m = src.size
    key = np.empty(2 * m if symmetrize else m, dtype=np.int64)
    if perm is not None:
        src = np.take(perm, src, mode="clip")
        dst = np.take(perm, dst, out=key[m:] if symmetrize else None, mode="clip")
    np.multiply(src, n, out=key[:m])
    key[:m] += dst
    if symmetrize:
        np.multiply(dst, n, out=key[m:])
        key[m:] += src
    key[loops] = csr_module._LOOP_KEY
    if symmetrize:
        key[loops + m] = csr_module._LOOP_KEY
    key.sort()
    end = key.size - loops.size * (2 if symmetrize else 1)
    if dedup and end:
        keep = np.empty(end, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:end], key[: end - 1], out=keep[1:])
        key = key[:end][keep]
    else:
        key = key[:end]
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    if n & (n - 1) == 0:
        np.bitwise_and(key, n - 1, out=key)
    else:
        np.remainder(key, n, out=key)
    return CSR(n=n, indptr=indptr, indices=key)


def bfs_serial_whole_frontier(csr, source):
    """``bfs_serial`` as it was: each level gathers its whole frontier's
    adjacencies at once, about three int64 words per frontier edge."""
    levels = np.full(csr.n, -1, dtype=np.int64)
    parents = np.full(csr.n, -1, dtype=np.int64)
    levels[source] = 0
    parents[source] = source
    frontier = np.array([source], dtype=np.int64)
    level = 1
    while frontier.size:
        targets, sources = csr.gather(frontier)
        unvisited = levels[targets] < 0
        targets, sources = dedup_candidates(targets[unvisited], sources[unvisited])
        levels[targets] = level
        parents[targets] = sources
        frontier = targets
        level += 1
    return levels, parents


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


@settings(max_examples=150, deadline=None)
@given(
    edges=edge_lists(),
    flags=FLAGS,
    relabel=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 64),
)
def test_chunked_key_equals_whole_key(edges, flags, relabel, seed, chunk):
    """Chunks of 1-64 keys split the key build and the in-place dedup
    many times over; the CSR is the whole-array body's, and its columns
    own a buffer of exactly their size."""
    n = edges[0]
    perm = random_permutation(n, seed) if relabel else None
    with mock.patch.object(csr_module, "_CHUNK", chunk):
        got = csr_module._build_csr(*edges, perm, **flags)
    assert_same_csr(got, build_csr_by_whole_key(*edges, perm, **flags))
    if edges[1].size:
        assert got.indices.base is None and got.indices.flags.owndata


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


# -- the serial oracle ----------------------------------------------------------------------


@st.composite
def bfs_cases(draw):
    """``(csr, source)``: :func:`edge_lists` graphs, directed or
    symmetric, with self-loops and parallel edges kept or not, sometimes
    a hub adjacent to every vertex (65 edges or more, past any drawn
    budget, when parallel edges are kept), and sources that may be
    isolated."""
    n, src, dst = draw(edge_lists())
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        spokes = np.tile(np.arange(n, dtype=np.int64), -(-65 // n))
        src = np.concatenate([src, np.full(spokes.size, hub, dtype=np.int64)])
        dst = np.concatenate([dst, spokes])
    keep_loops = draw(st.booleans())
    csr = build_csr(
        n, src, dst, symmetrize=draw(st.booleans()), dedup=not keep_loops,
        drop_self_loops=not keep_loops,
    )
    return csr, draw(st.integers(0, n - 1))


@settings(max_examples=200, deadline=None)
@given(case=bfs_cases(), budget=st.integers(1, 64))
def test_sliced_bfs_equals_whole_frontier(case, budget):
    """Budgets of 1-64 edges split levels into many slices (a hub's
    adjacency is one slice past the budget); levels and parents are the
    whole-frontier body's, so each target keeps its maximum parent
    across slices."""
    csr, source = case
    with mock.patch.object(serial_module, "EDGE_BUDGET", budget):
        got = serial_module.bfs_serial(csr, source)
    assert_identical(got, bfs_serial_whole_frontier(csr, source))


def test_sliced_bfs_keeps_the_max_parent_across_slices():
    """At budget 1 every frontier vertex is a slice.  Vertex 3 is found
    by slice 1 and again by the later slice 2, which must win; the next
    frontier is then [3, 5, 4], so vertex 6 is found by slice 5 before
    slice 4, and 5 must stay."""
    src = np.array([0, 0, 1, 2, 1, 2, 5, 4], dtype=np.int64)
    dst = np.array([1, 2, 3, 3, 5, 4, 6, 6], dtype=np.int64)
    csr = build_csr(7, src, dst, symmetrize=False)
    with mock.patch.object(serial_module, "EDGE_BUDGET", 1):
        levels, parents = serial_module.bfs_serial(csr, 0)
    assert levels.tolist() == [0, 1, 1, 2, 2, 2, 3]
    assert parents.tolist() == [0, 0, 0, 2, 2, 1, 5]


# -- the memory guard -------------------------------------------------------------------

#: Peak of the call over its output's bytes, at scale 14.  Measured:
#: generator 2.30 with fresh arrays per bit, 2.05 on reused buffers;
#: construction 6.41 with the permuted and symmetrised copies, 2.33 from
#: one in-place key with a relabelled source copy and a compacted key
#: copy, 1.52 with the key built and compacted in chunks; the bound
#: leaves 0.18 over that.
MAX_GENERATE_PEAK = 2.2
MAX_CONSTRUCT_PEAK = 1.7

#: ``bfs_serial``'s traced transient (outputs included) from the highest-
#: degree vertex of a scale-16 R-MAT, in int64 words: at most this many
#: per edge of ``EDGE_BUDGET`` plus this many per vertex.  Measured over
#: scales 16-17: about 4.0 per budget edge and 3.4 per vertex (the two
#: outputs are 2 of them).  The whole-frontier body took 4.55M words at
#: scale 16 (17.4 per budget edge): its widest level costs about three
#: words per frontier edge.
MAX_SERIAL_WORDS_PER_BUDGET_EDGE = 5
MAX_SERIAL_WORDS_PER_VERTEX = 5


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


def test_bfs_serial_peak_memory():
    src, dst = rmat_edges(16, 16, seed=1)
    graph = Graph.from_edges(1 << 16, src, dst, seed=1)
    del src, dst
    hub = int(np.argmax(graph.degrees()))
    _, transient = _traced(lambda: serial_module.bfs_serial(graph.csr, hub))
    words = (
        MAX_SERIAL_WORDS_PER_BUDGET_EDGE * serial_module.EDGE_BUDGET
        + MAX_SERIAL_WORDS_PER_VERTEX * graph.n
    )
    assert transient <= 8 * words, transient / 8

"""Kernel micro-benchmarks: raw throughput of the hot primitives.

These are classic pytest-benchmark timings (many rounds, statistics) of
the kernels every traversal is built from — useful both as a regression
guard for the substrate and as the "profile before optimizing" baseline
the HPC workflow prescribes.  The backend-comparison smoke at the bottom
additionally pins the *point* of the numpy backend: the vectorized
kernels must beat the pure-python reference by a wide margin on a
realistic composite workload, or the dispatch layer is dead weight.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import kernels
from repro.core.frontier import build_send_buffers, dedup_candidates
from repro.graphs.csr import build_csr
from repro.graphs.rmat import rmat_edges
from repro.sparse.dcsc import DCSC
from repro.sparse.spmsv import spmsv_heap, spmsv_spa

SCALE = 16


@pytest.fixture(scope="module")
def workload():
    src, dst = rmat_edges(SCALE, 16, seed=9)
    csr = build_csr(1 << SCALE, src, dst)
    rng = np.random.default_rng(1)
    frontier = np.unique(rng.integers(0, csr.n, 4096))
    targets, sources = csr.gather(frontier)
    # build_csr's output is A^T column-major, sorted and deduplicated.
    block = DCSC.from_sorted_coo(
        csr.n, csr.n, csr.indices,
        np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees()),
    )
    return {
        "src": src,
        "dst": dst,
        "csr": csr,
        "frontier": frontier,
        "targets": targets,
        "sources": sources,
        "block": block,
    }


def test_kernel_rmat_generation(benchmark):
    src, dst = benchmark(rmat_edges, 14, 16, seed=3)
    assert src.size == 16 << 14


def test_kernel_csr_build(benchmark, workload):
    csr = benchmark(build_csr, 1 << SCALE, workload["src"], workload["dst"])
    assert csr.n == 1 << SCALE


def test_kernel_frontier_gather(benchmark, workload):
    targets, sources = benchmark(workload["csr"].gather, workload["frontier"])
    assert targets.size == sources.size > 0


def test_kernel_dedup(benchmark, workload):
    t, p = benchmark(dedup_candidates, workload["targets"], workload["sources"])
    assert np.all(np.diff(t) > 0)


def test_kernel_send_buffers(benchmark, workload):
    targets, sources = workload["targets"], workload["sources"]
    owners = targets % 64
    send = benchmark(build_send_buffers, targets, sources, owners, 64)
    assert sum(buf.size for buf in send) == 2 * targets.size


def test_kernel_spmsv_spa(benchmark, workload):
    idx, val, work = benchmark(
        spmsv_spa, workload["block"], workload["frontier"], workload["frontier"] + 1
    )
    assert work.candidates > 0


def test_kernel_spmsv_heap(benchmark, workload):
    idx, val, work = benchmark(
        spmsv_heap, workload["block"], workload["frontier"], workload["frontier"] + 1
    )
    assert work.candidates > 0


# -- backend-comparison smoke -------------------------------------------------

#: Composite scale for the numpy-vs-python wall-clock smoke: large
#: enough that vectorization dominates dispatch overhead, small enough
#: for the pure-python rounds to stay CI-friendly.
SMOKE_SCALE = 14

#: Loose CI-safe bar; the recorded scale-16 recipe comparison in
#: ``benchmarks/BENCH_kernels.json`` lands far above it (>=5x).
MIN_SMOKE_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def smoke_load():
    src, dst = rmat_edges(SMOKE_SCALE, 16, seed=5)
    csr = build_csr(1 << SMOKE_SCALE, src, dst)
    rng = np.random.default_rng(7)
    frontier = np.unique(rng.integers(0, csr.n, 2048))
    targets, sources = csr.gather(frontier)
    words = rng.integers(1, 1 << 62, targets.size, dtype=np.uint64)
    return {"n": csr.n, "targets": targets, "sources": sources, "words": words}


def _composite_pass(load):
    """One pass over every kernel family a traversal level exercises."""
    targets, sources = load["targets"], load["sources"]
    unique, parents = kernels.dedup_max(targets, sources)
    owners = targets % 64
    kernels.bucket_by_owner(owners, 64, targets, sources)
    stream = kernels.varint_encode(kernels.delta_encode(unique))
    decoded = kernels.delta_decode(kernels.varint_decode(stream))
    bitmap = kernels.pack_bitmap(unique, 0, load["n"])
    kernels.unpack_bitmap(bitmap, load["n"])
    kernels.popcount(bitmap)
    pt, ps, pw = kernels.lane_prune(targets, sources, load["words"], 64)
    return (
        np.asarray(unique).tolist(),
        np.asarray(decoded).tolist(),
        np.asarray(bitmap).tolist(),
        np.asarray(pt).tolist(),
        int(np.asarray(pw).size),
    )


def _best_of(fn, rounds):
    best, result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_numpy_backend_beats_reference_wallclock(smoke_load):
    """The vectorized backend is >= 2x the pure-python reference on a
    scale-14 composite pass (dedup + bucketing + codec roundtrip +
    bitmap scan + lane prune), with bit-identical results."""
    with kernels.use_backend("numpy"):
        _composite_pass(smoke_load)  # warm-up, untimed
        vec_time, vec_result = _best_of(lambda: _composite_pass(smoke_load), 3)
    with kernels.use_backend("python"):
        ref_time, ref_result = _best_of(lambda: _composite_pass(smoke_load), 2)
    assert vec_result == ref_result
    speedup = ref_time / vec_time
    assert speedup >= MIN_SMOKE_SPEEDUP, (
        f"numpy backend only {speedup:.1f}x the reference "
        f"({vec_time:.4f}s vs {ref_time:.4f}s); expected "
        f">= {MIN_SMOKE_SPEEDUP}x"
    )

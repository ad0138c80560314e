"""Reference-equivalence sweep: full runs on both kernel implementations.

For every registered algorithm — each threaded entry at one and at more
threads per rank — one complete timed traversal is run on
the numpy kernels and again with the pure-python reference swapped in
(the ``reference_kernels`` fixture of ``tests/conftest.py``) and the
*entire* observable output is asserted identical — levels, parents,
level count, traversed-edge count, and the modeled time breakdown.
This is the end-to-end half of the kernels bit-identity contract (the
per-kernel half is ``tests/test_kernels_differential.py``): the two
implementations may differ in wall-clock only, never in results.

``KERNEL_BACKEND_ALGORITHMS`` is an import-time snapshot of the
registry, wired into ``tests/test_registry_coverage.py`` as the
``kernel-backend`` harness — registering an algorithm that skips this
sweep fails the coverage meta-test by name.

The two per-kernel properties here draw ``dedup_max`` inputs on both
sides of its dense/sort crossover, so every branch meets the reference,
and ``lane_winners`` target runs around each power of two, where its
doubling scan stops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import run_bfs
from repro.core.runner import ALGORITHMS
from repro.graphs.rmat import rmat_graph
from repro.kernels import numpy_backend, reference
from repro.query import run_query

from tests.conftest import query_sources, thread_cases, thread_params

#: Every registered algorithm as ``(algorithm, threads)`` cases; the registry
#: coverage meta-test compares this import-time list against the live registry.
KERNEL_BACKEND_CASES = thread_cases(ALGORITHMS)

#: Small-but-structured instance: R-MAT keeps hubs (dense middle levels,
#: bottom-up switches) while staying cheap enough for the pure-python
#: reference at full registry width.
GRAPH = rmat_graph(8, 8, seed=2)
SOURCE = 17
NPROCS = 4


def _run(algorithm: str, **kwargs):
    """One timed run of ``algorithm``, dispatched by registry kind."""
    kind = ALGORITHMS[algorithm].kind
    common = dict(algorithm=algorithm, nprocs=NPROCS, machine="hopper")
    common.update(kwargs)
    if kind == "bfs":
        return run_bfs(GRAPH, SOURCE, **common)
    if kind == "msbfs":
        return run_query(
            GRAPH, sources=query_sources(GRAPH, SOURCE, 4), **common
        )
    raise AssertionError(f"kind {kind!r} has no backend-sweep runner")


def _observe(result) -> dict:
    """Everything the two implementations must agree on, bit for bit."""
    return {
        "levels": result.levels.tolist(),
        "parents": result.parents.tolist(),
        "nlevels": result.nlevels,
        "m_traversed": result.m_traversed,
        "time_total": result.time_total,
        "time_comm": result.time_comm,
        "time_comp": result.time_comp,
    }


def test_every_kind_has_a_backend_sweep_runner():
    """A registry entry with a new kind must extend :func:`_run`."""
    for kind in {spec.kind for spec in ALGORITHMS.values()}:
        assert kind in ("bfs", "msbfs"), kind


def _bound_to(module) -> bool:
    """Whether every ``kernels.<name>`` currently is ``module``'s function."""
    return all(getattr(kernels, k) is getattr(module, k) for k in kernels.KERNELS)


def _both_ways(request, algorithm, **kwargs):
    """Observables of one run on the numpy kernels and one on the reference."""
    assert _bound_to(numpy_backend)
    vectorized = _observe(_run(algorithm, **kwargs))
    request.getfixturevalue("reference_kernels")
    assert _bound_to(reference)
    return vectorized, _observe(_run(algorithm, **kwargs))


@pytest.mark.parametrize("algorithm,threads", thread_params(KERNEL_BACKEND_CASES))
def test_backend_switch_preserves_full_run(request, algorithm, threads):
    """numpy-kernel and reference-kernel runs agree on every observable:
    parents, levels, counts, and the modeled time breakdown."""
    vectorized, spec = _both_ways(request, algorithm, threads=threads)
    assert vectorized == spec


@pytest.mark.parametrize(
    "algorithm",
    sorted(name for name, spec in ALGORITHMS.items() if "wire" in spec.capabilities),
)
def test_backend_switch_preserves_codec_runs(request, algorithm):
    """The compressed wire path (auto codec picks per buffer, so raw,
    delta-varint and bitmap set images are all built) is implementation-
    invariant too — the varint/delta kernels feed real exchanges here."""
    vectorized, spec = _both_ways(request, algorithm, codec="auto")
    assert vectorized == spec


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300),
    ratio=st.floats(0.25, 16.0),
    tmin=st.integers(-(1 << 40), 1 << 40),
    plo=st.sampled_from([-(1 << 63), -1000, 0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dedup_max_matches_reference_across_the_crossover(n, ratio, tmin, plo, seed):
    """Target span drawn on both sides of ``DENSE_SPAN_FACTOR * N`` (and
    parents reaching the int64 minimum): the scatter-max branch and the
    sort fallbacks all equal the reference, values and dtypes."""
    rng = np.random.default_rng(seed)
    span = max(1, int(ratio * n))
    targets = tmin + rng.integers(0, span, n)
    parents = rng.integers(plo, 1 << 20, n)
    got = numpy_backend.dedup_max(targets, parents)
    want = reference.dedup_max(targets, parents)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


#: Run lengths one either side of each power of two up to 512: the
#: suffix scan's doubling passes stop exactly at these boundaries.
_RUN_LENGTHS = st.integers(0, 9).flatmap(
    lambda k: st.sampled_from(sorted({max(1, (1 << k) + d) for d in (-1, 0, 1)}))
)


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(_RUN_LENGTHS, min_size=1, max_size=6),
    nlanes=st.sampled_from([1, 5, 63, 64]),
    density=st.sampled_from([1.0, 0.05, 0.005]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lane_winners_matches_reference_around_doubling_boundaries(
    runs, nlanes, density, seed
):
    """Target runs of length ``2**k - 1``, ``2**k`` and ``2**k + 1``,
    shuffled, with duplicate sources and full 64-bit words — or sparse
    ones, so a lane's carriers can sit a whole run apart: the
    contiguous-slice suffix scan equals the reference, values and
    dtypes."""
    rng = np.random.default_rng(seed)
    targets = np.repeat(rng.permutation(len(runs)), runs)
    sources = rng.integers(0, max(runs), targets.size)
    words = rng.integers(0, 1 << 63, targets.size, dtype=np.uint64) << np.uint64(1)
    words |= rng.integers(0, 2, targets.size, dtype=np.uint64)
    words[rng.random(targets.size) >= density] = 0
    shuffle = rng.permutation(targets.size)
    args = (targets[shuffle], sources[shuffle], words[shuffle], nlanes)
    got = numpy_backend.lane_winners(*args)
    want = reference.lane_winners(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)

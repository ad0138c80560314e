"""Tracing is passive: a traced run is bit-identical to an untraced one.

This is the subsystem's zero-overhead contract — spans read the virtual
clocks but never charge them, so installing a tracer may not move a
single charge, arrival time, or collective completion by even one ULP.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import DeltaVarintCodec
from repro.core import run_bfs
from repro.obs import Tracer


def _stats_fingerprint(result):
    summary = result.stats.summary()
    summary["words_by_level"] = {
        level: dict(kinds) for level, kinds in summary["words_by_level"].items()
    }
    clocks = [
        (c.time, c.compute_time, c.mpi_time, dict(c.counters))
        for c in result.stats.clocks
    ]
    return summary, clocks


@pytest.mark.parametrize(
    "algorithm,kwargs",
    [
        ("1d", {}),
        ("1d", {"codec": DeltaVarintCodec(), "sieve": True}),
        ("1d-dirop", {}),
        ("1d-dirop", {"threads": 6}),
        ("2d", {"kernel": "spa"}),
        ("2d", {"threads": 6, "codec": "auto", "sieve": True}),
    ],
)
def test_traced_run_bit_identical(rmat_small, algorithm, kwargs):
    source = 5
    plain = run_bfs(
        rmat_small, source, algorithm, nprocs=4, machine="hopper", **kwargs
    )
    traced = run_bfs(
        rmat_small, source, algorithm, nprocs=4, machine="hopper",
        tracer=Tracer(), **kwargs,
    )
    assert np.array_equal(plain.levels, traced.levels)
    assert np.array_equal(plain.parents, traced.parents)
    # == on floats, not approx: the clocks must agree bit for bit.
    assert plain.time_total == traced.time_total
    assert _stats_fingerprint(plain) == _stats_fingerprint(traced)


def test_untimed_traced_run_matches(rmat_small):
    plain = run_bfs(rmat_small, 5, "1d", nprocs=4)
    traced = run_bfs(rmat_small, 5, "1d", nprocs=4, tracer=Tracer())
    assert np.array_equal(plain.levels, traced.levels)
    assert plain.time_total == traced.time_total == 0.0


def test_uninstrumented_families_reject_tracer(rmat_small):
    for algorithm in ("serial", "pbgl", "graph500-ref"):
        with pytest.raises(ValueError, match="not instrumented"):
            run_bfs(rmat_small, 5, algorithm, nprocs=2, tracer=Tracer())

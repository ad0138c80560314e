"""Differential determinism: a repeated run is bit-identical.

Identical configuration ⇒ identical everything: levels, parents,
``SimStats`` down to per-rank clocks, counters and per-level wire
words, and the full span stream.  Both runs use the preemptive
``threads`` runtime, where the OS interleaves the ranks differently
each time, and each wire configuration of the instrumented families:
the raw wire, the delta-varint codec with the sieve's per-rank
discovered bitmaps, and ``auto``'s per-buffer form choice with the
sieve (the sieve wherever the family accepts one).  Nothing a run
computes may depend on which rank got there first.

``DETERMINISM_CASES`` is an import-time snapshot of the registry, held
against it by ``tests/test_registry_coverage.py`` as the
``determinism`` harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import DeltaVarintCodec
from repro.core.runner import ALGORITHMS
from repro.obs import Tracer

from tests.conftest import launch_any, thread_cases, thread_params

#: Every instrumented entry as ``(algorithm, threads)`` cases.
DETERMINISM_CASES = thread_cases(
    name for name, spec in ALGORITHMS.items() if "tracer" in spec.capabilities
)

#: Wire configurations by test id; codec instances are built per run.
#: The sieve rides along wherever the family takes it: the batched query
#: re-ships targets whose lane words grow, so it refuses the vertex sieve
#: (its lane sieve is part of the prune, on in every wire).
WIRES = {
    "raw": lambda kind: {},
    "delta-varint-sieve": lambda kind: {"codec": DeltaVarintCodec(), "sieve": kind == "bfs"},
    "auto-sieve": lambda kind: {"codec": "auto", "sieve": kind == "bfs"},
}

SOURCE = 5
NPROCS = 4


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


def _trace_fingerprint(tracer):
    return [
        [
            (
                span.phase,
                span.t_start,
                span.t_end,
                span.level,
                span.instant,
                tuple(sorted(span.meta.items())),
            )
            for span in tracer.spans_for(rank)
        ]
        for rank in tracer.ranks
    ]


@pytest.mark.parametrize("wire", sorted(WIRES))
@pytest.mark.parametrize("algorithm,threads", thread_params(DETERMINISM_CASES))
def test_repeated_runs_are_bit_identical(rmat_small, algorithm, threads, wire):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        result = launch_any(
            rmat_small, SOURCE, algorithm, nprocs=NPROCS, threads=threads,
            machine="hopper", runtime="threads", tracer=tracer,
            **WIRES[wire](ALGORITHMS[algorithm].kind),
        )
        runs.append((result, tracer))
    (a, trace_a), (b, trace_b) = runs
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.parents, b.parents)
    assert a.time_total == b.time_total  # ==, not approx: bit identity
    assert _stats_fingerprint(a) == _stats_fingerprint(b)
    assert _trace_fingerprint(trace_a) == _trace_fingerprint(trace_b)
    assert sum(len(spans) for spans in _trace_fingerprint(trace_a)) > 0

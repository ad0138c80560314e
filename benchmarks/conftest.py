"""Shared machinery for the benchmark suite.

Every file under ``benchmarks/`` regenerates one paper artifact: it runs
the corresponding experiment through pytest-benchmark (one timed round —
the experiments are deterministic), prints the reproduced table, saves it
as ``<exp_id>.txt`` in the test's temporary directory, and asserts the
paper's qualitative *shape* (orderings, crossovers, ratios).  The suite
leaves ``results/`` alone: ``python -m repro <exp_id> -o results/`` is
the one way to regenerate a committed table.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.experiments import run_experiment
from repro.bench.report import Table


@pytest.fixture
def reproduce(benchmark, tmp_path):
    """Run one experiment under the benchmark timer and save its table
    in the test's temporary directory."""

    def _run(exp_id: str, quick: bool = False) -> Table:
        table = benchmark.pedantic(
            run_experiment, args=(exp_id,), kwargs={"quick": quick},
            rounds=1, iterations=1,
        )
        print()
        print(table.render())
        table.save(tmp_path, exp_id)
        return table

    return _run


def _race(fast, slow, rounds=7):
    """Best-of-``rounds`` wall time of each callable, rounds interleaved
    so that a slow spell of the host falls on both.  Returns ``(fast
    seconds, fast result, slow seconds, slow result)``."""
    best = {fast: None, slow: None}
    result = {}
    for _ in range(rounds):
        for fn in (fast, slow):
            t0 = time.perf_counter()
            result[fn] = fn()
            elapsed = time.perf_counter() - t0
            best[fn] = elapsed if best[fn] is None else min(best[fn], elapsed)
    return best[fast], result[fast], best[slow], result[slow]


@pytest.fixture
def race():
    """The within-run ratio smokes' timer (see :func:`_race`)."""
    return _race

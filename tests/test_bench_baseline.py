"""The committed perf baselines: regenerable and gate-clean.

``benchmarks/BENCH_baseline.json`` is the first frozen run report of the
canonical Graph 500 configuration (scale-13 R-MAT, 2D BFS, 16 ranks on
the Hopper model) — the anchor of the perf trajectory.  Later PRs
compare their candidate reports against it with ``repro-bench perf-diff``
(see EXPERIMENTS.md).  The simulation is deterministic, so regenerating
the report through the exact CLI recipe must reproduce the committed
file bit for bit, and a self-diff through the gate must pass with zero
delta on every gated metric.  Wall-clock is not recorded here: it is
measured by ``perfbench/``, by a committed command.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import runtime
from repro.cli import main
from repro.obs.regress import perf_diff

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BASELINE = _BENCH_DIR / "BENCH_baseline.json"

#: The exact CLI recipe that produced the committed baseline (and that
#: later PRs run to produce their candidate reports).
RECIPE = [
    "graph500",
    "--scale", "13",
    "--edgefactor", "16",
    "--algorithm", "2d",
    "--nprocs", "16",
    "--machine", "hopper",
    "--nbfs", "4",
    "--seed", "0",
]


def _regenerate(path: Path) -> None:
    assert main(RECIPE + ["--report-out", str(path)]) == 0


def test_baseline_is_committed_and_regenerable(tmp_path):
    fresh = tmp_path / "candidate.json"
    _regenerate(fresh)
    assert json.loads(fresh.read_text()) == json.loads(BASELINE.read_text())


def test_baseline_self_diff_passes_the_gate(tmp_path):
    fresh = tmp_path / "candidate.json"
    _regenerate(fresh)
    diff = perf_diff(BASELINE, fresh, threshold=0.05)
    assert diff.ok
    # Deterministic simulation: the self-comparison is exactly zero.
    for delta in diff.deltas:
        if delta.baseline is not None and delta.candidate is not None:
            assert delta.baseline == delta.candidate, delta


def test_baseline_recipe_is_runtime_invariant(tmp_path):
    """The acceptance check of the runtime split: the exact committed
    baseline recipe, re-run under every non-default execution backend,
    reproduces ``BENCH_baseline.json`` bit for bit — parents, levels,
    modeled times, wire words, spans, metrics."""
    committed = json.loads(BASELINE.read_text())
    others = [name for name in runtime.BACKENDS if name != runtime.DEFAULT_RUNTIME]
    for runtime_name in others:
        fresh = tmp_path / f"candidate-{runtime_name}.json"
        assert (
            main(RECIPE + ["--runtime", runtime_name, "--report-out", str(fresh)])
            == 0
        )
        assert json.loads(fresh.read_text()) == committed, runtime_name

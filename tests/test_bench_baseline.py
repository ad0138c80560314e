"""The committed modeled baseline regenerates byte for byte.

``benchmarks/BENCH_baseline.json`` is the frozen run report of the
canonical Graph 500 configuration (scale-13 R-MAT, 2D BFS, 16 ranks on
the Hopper model).  The simulation is deterministic, so regenerating
the report through the exact CLI recipe must reproduce the committed
file byte for byte; a change that moves a modeled cost re-freezes the
file and says why (see EXPERIMENTS.md).  Wall-clock is not recorded
here: it is measured by ``perfbench/``, by a committed command.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import runtime
from repro.cli import main
from repro.obs import REPORT_SCHEMA, load_run_report, write_run_report

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BASELINE = _BENCH_DIR / "BENCH_baseline.json"

#: Every committed report, with the scale its recipe names.  CI's
#: ``telemetry`` job regenerates both and ``cmp``s them; tier-1
#: regenerates the scale-13 one below.
COMMITTED = {
    "scale13": (BASELINE, 13),
    "scale18": (_BENCH_DIR / "scale18" / "BENCH_scale18.json", 18),
}

#: The exact CLI recipe that produced the committed baseline.
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


def test_baseline_is_committed_and_regenerable(tmp_path):
    fresh = tmp_path / "candidate.json"
    assert main(RECIPE + ["--report-out", str(fresh)]) == 0
    assert fresh.read_bytes() == BASELINE.read_bytes()


def test_baseline_recipe_is_runtime_invariant(tmp_path):
    """The acceptance check of the runtime split: the exact committed
    baseline recipe, re-run under every non-default execution backend,
    reproduces ``BENCH_baseline.json`` byte for byte — parents, levels,
    modeled times, wire words, spans, metrics."""
    committed = BASELINE.read_bytes()
    others = [name for name in runtime.BACKENDS if name != runtime.DEFAULT_RUNTIME]
    for runtime_name in others:
        fresh = tmp_path / f"candidate-{runtime_name}.json"
        assert (
            main(RECIPE + ["--runtime", runtime_name, "--report-out", str(fresh)])
            == 0
        )
        assert fresh.read_bytes() == committed, runtime_name


@pytest.mark.parametrize("key", sorted(COMMITTED))
class TestCommittedReports:
    """What makes ``cmp`` a sound gate on each committed report: the
    file is the serializer's own output of the recipe it claims, and
    its sections agree with each other."""

    def test_file_is_the_serializers_output(self, key, tmp_path):
        path, _scale = COMMITTED[key]
        rewritten = write_run_report(tmp_path / "rewritten.json", load_run_report(path))
        assert rewritten.read_bytes() == path.read_bytes()

    def test_report_matches_its_recipe(self, key):
        path, scale = COMMITTED[key]
        report = load_run_report(path)
        assert report["schema"] == REPORT_SCHEMA
        assert report["graph"]["n"] == 2**scale
        assert report["graph"]["name"] == f"graph500-s{scale}-ef16"
        assert report["machine"] == "Hopper (Cray XE6)"
        assert (report["algorithm"], report["nranks"]) == ("2d", 16)
        assert "faults" not in report and report["query"] is None

    def test_sections_agree(self, key):
        path, _scale = COMMITTED[key]
        report = load_run_report(path)
        time = report["time"]
        # comm and comp are each the slowest rank's share of the makespan.
        assert 0 < time["comm"] <= time["total"] and 0 < time["comp"] <= time["total"]
        assert sum(report["phases"].values()) == pytest.approx(
            time["total"], rel=1e-12
        )
        graph = report["graph"]
        # One critical-path entry per expanded level, numbered from 1.
        assert [lv["level"] for lv in report["levels"]] == list(
            range(1, graph["nlevels"] + 1)
        )
        assert report["gteps"] == pytest.approx(
            graph["m_traversed"] / time["total"] / 1e9, rel=1e-12
        )
        assert report["comm"]["total_wire_words"] > 0

"""The perf gate over a series of run reports and the ``trajectory`` CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.core import run_bfs
from repro.obs import (
    Tracer,
    analyze_reports,
    analyze_trajectory,
    resolve_series,
    run_report,
    write_run_report,
)
from repro.obs.regress import _sparkline


@pytest.fixture(scope="module")
def report(rmat_small):
    result = run_bfs(
        rmat_small, 5, "1d-dirop", nprocs=4, machine="hopper", tracer=Tracer()
    )
    return run_report(result)


def _series(report, factors):
    """Clone the report with time.total scaled by each factor (gteps /=)."""
    out = []
    for i, factor in enumerate(factors):
        r = copy.deepcopy(report)
        r["time"]["total"] *= factor
        r["gteps"] /= factor
        out.append((f"BENCH_{i:02d}", r))
    return out


class TestAnalyzeReports:
    def test_flat_series_passes(self, report):
        traj = analyze_reports(_series(report, [1, 1, 1, 1]))
        assert traj.ok and not traj.regressions
        trend = traj.trend("time.total")
        assert trend.gated and trend.rel_change == 0.0
        assert trend.reference == report["time"]["total"]
        assert "PASS" in traj.render()

    def test_regressed_latest_point_fails(self, report):
        traj = analyze_reports(_series(report, [1, 1, 1, 1.2]))
        assert not traj.ok
        names = {t.metric for t in traj.regressions}
        assert names == {"time.total", "gteps"}  # gteps is lower-is-worse
        assert "FAIL" in traj.render()

    def test_median_reference_shrugs_off_one_outlier(self, report):
        # One historical spike must not drag the reference the way a
        # mean would: the final on-trend point still passes.
        traj = analyze_reports(_series(report, [1, 5.0, 1, 1, 1]))
        assert traj.ok

    def test_changepoints_localize_the_jump(self, report):
        traj = analyze_reports(_series(report, [1, 1, 1.5, 1.5, 1.5]))
        trend = traj.trend("time.total")
        assert [label for label, _ in trend.changepoints] == ["BENCH_02"]
        jump = trend.changepoints[0][1]
        assert jump == pytest.approx(0.5)
        assert "changepoint" in traj.render()

    def test_improvement_is_a_changepoint_but_not_a_failure(self, report):
        traj = analyze_reports(_series(report, [1.5, 1.5, 1, 1]))
        assert traj.ok
        trend = traj.trend("time.total")
        assert trend.changepoints and trend.changepoints[0][1] < 0

    def test_single_point_cannot_gate(self, report):
        traj = analyze_reports(_series(report, [1]))
        assert traj.ok
        assert traj.trend("time.total").reference is None
        assert any("single point" in note for note in traj.notes)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            analyze_reports([])
        with pytest.raises(ValueError, match="threshold"):
            analyze_reports([("a", {})], threshold=-1)

    def test_sparkline_shape(self):
        assert _sparkline([]) == ""
        assert _sparkline([1.0, 1.0]) == "▁▁"
        line = _sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3 and line[0] == "▁" and line[-1] == "█"


class TestDashboards:
    def test_markdown_contains_table_and_verdict(self, report):
        traj = analyze_reports(_series(report, [1, 1, 1.2]))
        md = traj.render_markdown()
        assert "| metric |" in md
        assert "`time.total`" in md and "**FAIL**" in md
        assert "## Changepoints" in md

    def test_html_is_self_contained(self, report):
        traj = analyze_reports(_series(report, [1, 1, 1]))
        html = traj.render_html()
        assert html.startswith("<!doctype html>")
        assert "<table>" in html and "PASS" in html
        assert "http" not in html  # no external assets


class TestResolveSeries:
    def test_expands_directories_and_globs_in_order(self, report, tmp_path):
        for name, r in _series(report, [1, 1, 1]):
            write_run_report(tmp_path / f"{name}.json", r)
        series = resolve_series(tmp_path)
        assert [p.name for p in series] == [
            "BENCH_00.json", "BENCH_01.json", "BENCH_02.json",
        ]
        assert resolve_series(tmp_path / "BENCH_0*.json") == series
        with pytest.raises(FileNotFoundError):
            resolve_series(tmp_path / "nothing_*.json")


class TestTrajectoryCli:
    def _seed(self, tmp_path, report, factors):
        for name, r in _series(report, factors):
            write_run_report(tmp_path / f"{name}.json", r)
        return str(tmp_path)

    def test_clean_series_exits_zero(self, report, tmp_path, capsys):
        base = self._seed(tmp_path, report, [1, 1, 1])
        assert main(["trajectory", base]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_perturbed_candidate_exits_one(self, report, tmp_path, capsys):
        base = self._seed(tmp_path, report, [1, 1, 1])
        bad = copy.deepcopy(report)
        bad["time"]["total"] *= 1.3
        candidate = str(write_run_report(tmp_path / "candidate.json", bad))
        assert main(["trajectory", base, "--candidate", candidate]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "candidate" in out

    def test_clean_candidate_exits_zero(self, report, tmp_path):
        base = self._seed(tmp_path, report, [1, 1, 1])
        candidate = str(write_run_report(tmp_path / "candidate.json", report))
        assert main(["trajectory", base, "--candidate", candidate]) == 0

    def test_threshold_flag_widens_the_gate(self, report, tmp_path):
        base = self._seed(tmp_path, report, [1, 1, 1.2])
        assert main(["trajectory", base]) == 1
        assert main(["trajectory", base, "--threshold", "0.5"]) == 0

    def test_dashboard_outputs_are_written(self, report, tmp_path):
        base = self._seed(tmp_path, report, [1, 1, 1])
        md = tmp_path / "out" / "dash.md"
        html = tmp_path / "out" / "dash.html"
        assert main([
            "trajectory", base,
            "--markdown-out", str(md), "--html-out", str(html),
        ]) == 0
        assert "# Performance trajectory" in md.read_text()
        assert html.read_text().startswith("<!doctype html>")

    def test_bad_input_exits_two(self, tmp_path, capsys):
        assert main(["trajectory", str(tmp_path / "missing")]) == 2
        assert "trajectory:" in capsys.readouterr().err
        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text(json.dumps({"schema": "nope"}))
        assert main(["trajectory", str(tmp_path)]) == 2

    def test_committed_baselines_form_a_clean_trajectory(self):
        # The committed s13 series must load and analyze cleanly: it is
        # the one regenerable point a candidate report is gated against.
        traj = analyze_trajectory("benchmarks")
        assert traj.ok
        assert traj.names == ["BENCH_baseline"]
        assert traj.trend("time.total") is not None

    def test_committed_scale18_series_is_valid(self):
        # The scale-18 recipe opens its own series (different graph, so
        # its gated metrics must not share a trajectory with the s13
        # point).
        traj = analyze_trajectory("benchmarks/scale18")
        assert traj.ok
        assert traj.names == ["BENCH_scale18"]
        assert traj.trend("time.total") is not None
        assert "PASS" in traj.render()

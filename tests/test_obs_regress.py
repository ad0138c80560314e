"""The perf gate's two-point case: report diffs and the perf-diff CLI.

A perf-diff is the trajectory of two points (baseline, candidate), so
every check here goes through :func:`repro.obs.analyze_reports` or the
file entry point :func:`repro.obs.perf_diff`."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.core import run_bfs
from repro.obs import (
    DEFAULT_THRESHOLD,
    GATED_METRICS,
    REPORT_SCHEMA,
    Tracer,
    analyze_reports,
    analyze_trajectory,
    load_run_report,
    perf_diff,
    resolve_series,
    run_report,
    write_run_report,
)


@pytest.fixture(scope="module")
def report(rmat_small):
    tracer = Tracer()
    result = run_bfs(
        rmat_small, 5, "1d-dirop", nprocs=4, machine="hopper", tracer=tracer
    )
    return run_report(result)


def two_points(baseline, candidate, threshold=DEFAULT_THRESHOLD):
    """The two-point trajectory: ``baseline`` is the reference point."""
    return analyze_reports(
        [("baseline", baseline), ("candidate", candidate)], threshold=threshold
    )


def _slowed(report, factor):
    slow = copy.deepcopy(report)
    slow["time"]["total"] *= factor
    slow["gteps"] /= factor
    return slow


class TestCompareReports:
    def test_self_comparison_is_exact_pass(self, report):
        diff = two_points(report, report)
        assert diff.ok and not diff.regressions
        gated = {d.metric: d for d in diff.trends if d.gated}
        # BFS reports have no query section, so the query gate is absent.
        assert set(gated) == {"time.total", "gteps"}
        assert all(d.rel_change == 0.0 for d in gated.values())
        assert "PASS" in diff.render()

    def test_injected_slowdown_fails(self, report):
        diff = two_points(report, _slowed(report, 1.10), threshold=0.05)
        assert not diff.ok
        assert {d.metric for d in diff.regressions} == {"time.total", "gteps"}
        rendered = diff.render()
        assert "FAIL" in rendered and "time.total" in rendered

    def test_speedup_passes(self, report):
        diff = two_points(report, _slowed(report, 0.5))
        assert diff.ok

    def test_gteps_is_lower_is_worse(self, report):
        worse = copy.deepcopy(report)
        worse["gteps"] *= 0.8  # 20% throughput drop, times unchanged
        diff = two_points(report, worse, threshold=0.05)
        assert [d.metric for d in diff.regressions] == ["gteps"]
        assert diff.regressions[0].rel_change == pytest.approx(0.2)

    def test_threshold_bounds_the_gate(self, report):
        slow = _slowed(report, 1.04)
        assert two_points(report, slow, threshold=0.05).ok
        assert not two_points(report, slow, threshold=0.01).ok

    def test_phase_and_comm_metrics_are_informational(self, report):
        tweaked = copy.deepcopy(report)
        for phase in tweaked["phases"]:
            tweaked["phases"][phase] *= 10
        tweaked["comm"]["total_wire_words"] *= 10
        diff = two_points(report, tweaked)
        assert diff.ok  # shown, never gating
        assert any(d.metric.startswith("phase.") for d in diff.trends)

    def test_negative_threshold_rejected(self, report):
        with pytest.raises(ValueError, match="threshold"):
            two_points(report, report, threshold=-0.1)

    def test_missing_metrics_never_gate(self, report):
        bare = {"schema": report["schema"], "time": {}, "gteps": None}
        diff = two_points(report, bare)
        assert diff.ok


@pytest.fixture(scope="module")
def recovered_report(rmat_small):
    """Report of a run that crashed at level 3 and recovered."""
    tracer = Tracer()
    result = run_bfs(
        rmat_small, 5, "1d-dirop", nprocs=4, machine="hopper", tracer=tracer,
        faults="crash:rank=1,level=3", checkpoint_every=1,
    )
    return run_report(result)


class TestFaultAccounting:
    """Satellite of the resilience PR: recovery is visible, never gating."""

    def test_schema_is_v2_with_faults_section(self, report, recovered_report):
        assert report["schema"] == REPORT_SCHEMA
        assert report["faults"] is None  # fault-free run, section empty
        faults = recovered_report["faults"]
        assert faults["attempts"] == 2
        assert len(faults["restores"]) == 1
        assert faults["counters"]["restores"] == 4  # one per rank

    def test_recovered_run_is_not_gated_against_fault_free(
        self, report, recovered_report
    ):
        # Recovery overhead (checkpoints, lost work, replay) must not
        # read as a perf regression: the gate downgrades with a note.
        diff = two_points(report, recovered_report, threshold=0.05)
        assert diff.ok
        assert not any(d.gated for d in diff.trends)
        assert any("recovery profiles differ" in note for note in diff.notes)
        assert "note:" in diff.render()

    def test_fault_metrics_are_informational(self, report, recovered_report):
        diff = two_points(report, recovered_report)
        names = {d.metric for d in diff.trends}
        assert "faults.restores" in names
        assert "faults.checkpoint_words" in names
        assert not any(
            d.gated for d in diff.trends if d.metric.startswith("faults.")
        )

    def test_equal_recovery_profiles_gate_normally(self, recovered_report):
        diff = two_points(recovered_report, recovered_report)
        assert diff.ok and not diff.notes
        assert {d.metric for d in diff.trends if d.gated} == {
            "time.total",
            "gteps",
        }
        slow = _slowed(recovered_report, 1.10)
        assert not two_points(recovered_report, slow, threshold=0.05).ok

    def test_recovered_candidate_passes_both_spellings(
        self, report, recovered_report, tmp_path, capsys
    ):
        # The recovered run is modeled well past the threshold slower...
        assert recovered_report["time"]["total"] > 1.05 * report["time"]["total"]
        for name in ("BENCH_01.json", "BENCH_02.json"):
            write_run_report(tmp_path / name, report)
        cand = str(write_run_report(tmp_path / "recovered.json", recovered_report))
        # ...yet neither spelling reads recovery overhead as a regression.
        for argv in (
            ["perf-diff", str(tmp_path), cand],
            ["trajectory", str(tmp_path), "--candidate", cand],
        ):
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            assert "note: recovery profiles differ" in out and "PASS" in out

    def test_recovered_series_gates_normally_under_both_spellings(
        self, report, recovered_report, tmp_path, capsys
    ):
        for name in ("BENCH_01.json", "BENCH_02.json"):
            write_run_report(tmp_path / name, recovered_report)
        slow = _slowed(recovered_report, 1.10)
        slow_path = str(write_run_report(tmp_path / "slow.json", slow))
        for argv in (
            ["perf-diff", str(tmp_path), slow_path],
            ["trajectory", str(tmp_path), "--candidate", slow_path],
        ):
            assert main(argv) == 1, argv
            out = capsys.readouterr().out
            assert "FAIL" in out and "recovery profiles differ" not in out
        # One fault-free point among the references is enough to differ.
        mixed = analyze_reports(
            [("a", report), ("b", recovered_report), ("c", slow)]
        )
        assert mixed.ok and not any(t.gated for t in mixed.trends)
        assert "recovery profiles differ" in mixed.notes[0]

    def test_v1_reports_still_load(self, report, tmp_path):
        old = copy.deepcopy(report)
        old["schema"] = "repro.obs/run-report/v1"
        del old["faults"]
        path = write_run_report(tmp_path / "v1.json", old)
        loaded = load_run_report(path)
        # A v1 report has no faults section: profile is fault-free and
        # the comparison against a v2 fault-free report gates normally.
        diff = two_points(loaded, report)
        assert diff.ok and not diff.notes
        assert any(d.gated for d in diff.trends)


@pytest.fixture(scope="module")
def query_report(rmat_small):
    from repro.query import run_query

    result = run_query(
        rmat_small, [1, 5, 9], algorithm="msbfs-1d", nprocs=4, machine="hopper"
    )
    return run_report(result)


class TestQueryGate:
    """Satellite: perf-diff covers batched-query (QueryResult) reports."""

    def test_query_report_gates_on_throughput(self, query_report):
        diff = two_points(query_report, query_report)
        assert diff.ok
        gated = {d.metric for d in diff.trends if d.gated}
        assert "query.queries_per_second" in gated
        assert "query.queries_per_second" in GATED_METRICS

    def test_throughput_drop_fails(self, query_report):
        worse = copy.deepcopy(query_report)
        worse["query"]["queries_per_second"] *= 0.8
        diff = two_points(query_report, worse, threshold=0.05)
        assert not diff.ok
        assert [d.metric for d in diff.regressions] == ["query.queries_per_second"]
        assert diff.regressions[0].rel_change == pytest.approx(0.2)

    def test_batch_is_informational(self, query_report):
        bigger = copy.deepcopy(query_report)
        bigger["query"]["batch"] = 64
        diff = two_points(query_report, bigger)
        assert diff.ok
        assert "query.batch" in {d.metric for d in diff.trends}

    def test_bfs_vs_query_never_gates_on_query(self, report, query_report):
        # Metric present on only one side: shown at most, never gated.
        diff = two_points(report, query_report)
        assert not any(
            d.gated for d in diff.trends if d.metric.startswith("query.")
        )


class TestResolveBaseline:
    """perf-diff's baseline argument resolves to one file: the latest
    ``BENCH_*.json`` of a directory or glob (trajectory takes them all)."""

    def _seed(self, tmp_path, report, names):
        for name in names:
            write_run_report(tmp_path / name, report)
        return write_run_report(tmp_path / "cand.json", report)

    def test_plain_file_passes_through(self, report, tmp_path):
        path = write_run_report(tmp_path / "a.json", report)
        assert resolve_series(path) == [path]
        assert perf_diff(path, path).names == ["a", "a"]

    def test_directory_picks_latest_bench(self, report, tmp_path):
        cand = self._seed(
            tmp_path, report,
            ["BENCH_2026-01.json", "BENCH_2026-03.json", "BENCH_2026-02.json"],
        )
        assert perf_diff(tmp_path, cand).names == ["BENCH_2026-03", "cand"]
        # The trajectory spelling takes every file of the same directory.
        assert analyze_trajectory(tmp_path, candidate=cand).names == [
            "BENCH_2026-01", "BENCH_2026-02", "BENCH_2026-03", "cand",
        ]

    def test_glob_picks_latest_match(self, report, tmp_path):
        cand = self._seed(tmp_path, report, ["BENCH_pr1.json", "BENCH_pr2.json"])
        diff = perf_diff(tmp_path / "BENCH_pr*.json", cand)
        assert diff.names == ["BENCH_pr2", "cand"]

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="BENCH_"):
            perf_diff(tmp_path, tmp_path / "cand.json")

    def test_perf_diff_accepts_directory(self, report, tmp_path):
        cand = self._seed(tmp_path, report, ["BENCH_base.json"])
        diff = perf_diff(tmp_path, cand)
        assert diff.ok and diff.names == ["BENCH_base", "cand"]
        assert diff.trend("time.total").rel_change == 0.0


class TestPerfDiffCli:
    def _write(self, tmp_path, name, report):
        return str(write_run_report(tmp_path / name, report))

    def test_self_comparison_exits_zero(self, report, tmp_path, capsys):
        path = self._write(tmp_path, "a.json", report)
        assert main(["perf-diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and f"{DEFAULT_THRESHOLD:.1%}" in out

    def test_regression_exits_nonzero(self, report, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", report)
        b = self._write(tmp_path, "b.json", _slowed(report, 1.15))
        assert main(["perf-diff", a, b, "--threshold", "0.05"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_wide_threshold_tolerates_slowdown(self, report, tmp_path):
        a = self._write(tmp_path, "a.json", report)
        b = self._write(tmp_path, "b.json", _slowed(report, 1.15))
        assert main(["perf-diff", a, b, "--threshold", "0.5"]) == 0

    def test_bad_input_exits_two(self, report, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", report)
        missing = str(tmp_path / "nope.json")
        assert main(["perf-diff", a, missing]) == 2
        assert "perf-diff:" in capsys.readouterr().err
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "nope"}))
        assert main(["perf-diff", a, str(bogus)]) == 2

    def test_file_api_matches_cli(self, report, tmp_path):
        a = self._write(tmp_path, "a.json", report)
        b = self._write(tmp_path, "b.json", _slowed(report, 1.15))
        assert perf_diff(a, a).ok
        assert not perf_diff(a, b, threshold=0.05).ok

"""Self-tests of perfbench (``python -m pytest perfbench -q``).

Not part of the tier-1 ``testpaths``: they run the benchmark itself, in
``--quick`` size, as a user would — through ``run.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import spans
import stats
from workloads import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, applies

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_quick(out: Path, *extra: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300,
    )
    results = out / "results.json"
    return proc, json.loads(results.read_text()) if results.is_file() else {}


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One full ``--quick --trace`` run of all four workloads, seed 1."""
    proc, document = run_quick(tmp_path_factory.mktemp("quick"), "--trace", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    return proc, document


@pytest.fixture(scope="module")
def again(tmp_path_factory):
    proc, document = run_quick(tmp_path_factory.mktemp("again"), "--trace", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    return document


# -- BENCHMARK.json restates the tables ----------------------------------------------


def test_benchmark_json_matches_the_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]
    assert declared["run_seconds"] == RUN_SECONDS
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    # The driver wants every listed per-layer metric from every workload.
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
        if m.scope == "all"
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])


# -- a quick run emits everything, correctly -----------------------------------------


def test_quick_emits_every_named_metric(quick):
    proc, document = quick
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, both in document["workloads"].items():
        spec = WORKLOADS[name]
        untraced, traced = both["untraced"], both["traced"]
        assert untraced["ops_failed"] == 0 and traced["ops_failed"] == 0
        assert untraced["ops_attempted"] == 2
        assert set(untraced["metrics"]) == {m.name for m in END_TO_END}
        # Layers off the workload's path are absent, not zero.
        assert set(traced["per_layer"]) == {m.name for m in PER_LAYER if applies(m, spec)}
        for m in PER_LAYER:
            if applies(m, spec):
                assert traced["per_layer"][m.name]["unit"] == m.unit
        assert Path(traced["trace_file"]).is_file()
    for m in (*END_TO_END, *PER_LAYER):
        assert m.name in proc.stdout and m.unit in proc.stdout
    for key in ("nproc", "python", "numpy", "loadavg_start", "git_commit"):
        assert key in document["fingerprint"]


def test_acceptance_shape_is_reported_where_it_applies(quick):
    _proc, document = quick
    layers = {n: both["traced"]["per_layer"] for n, both in document["workloads"].items()}
    assert "partition.share" in layers["rmat16_2d"]
    for name in ("rmat18_1d", "crawl_1d_auto", "rmat16_msbfs64"):
        assert "partition.share" not in layers[name]
    assert "kernels.lane_prune_s" in layers["rmat16_msbfs64"]
    assert layers["crawl_1d_auto"]["comm.compression_ratio"]["value"] > 1.0
    assert layers["crawl_1d_auto"]["comm.sieve_dropped"]["value"] > 0


def test_one_seed_repeats_exactly_and_another_differs(quick, again, tmp_path):
    _proc, first = quick
    proc, other = run_quick(tmp_path, "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    modeled = [m.name for m in END_TO_END if m.exact]
    fields = ("key", "time_total", "time_comm", "m_traversed", "nlevels")
    for name, both in first["workloads"].items():
        spec = WORKLOADS[name]
        same = again["workloads"][name]
        for metric in modeled:
            value = both["untraced"]["metrics"][metric]["value"]
            assert value == same["untraced"]["metrics"][metric]["value"]
            assert value != other["workloads"][name]["untraced"]["metrics"][metric]["value"]
        assert [[s[f] for f in fields] for s in both["untraced"]["samples"]] == [
            [s[f] for f in fields] for s in same["untraced"]["samples"]
        ]
        for m in PER_LAYER:
            if m.exact and applies(m, spec):
                assert (
                    both["traced"]["per_layer"][m.name] == same["traced"]["per_layer"][m.name]
                ), m.name


def test_span_tree_is_well_formed(quick):
    _proc, document = quick
    for name, both in document["workloads"].items():
        recorded = both["traced"]["spans"]
        assert spans.tree_problems(recorded) == []
        root = recorded[0]
        assert root["name"] == "workload" and root["attrs"]["workload"] == name
        assert all(t >= 0 for t in spans.self_times(recorded).values())
        paths = {spans.path(recorded, s) for s in recorded}
        serial = "serial.msbfs" if WORKLOADS[name].batch > 1 else "serial.bfs"
        for expected in (
            "workload › setup › graphs.generate",
            "workload › setup › graphs.construct",
            "workload › search › runner.run",
            f"workload › check › {serial}",
            "workload › check › validate.validate_bfs",
            "workload › probe.kernels › kernels.dedup_max",
            "workload › probe.comm › comm.encode_wide",
            "workload › probe.runtime › runtime.spawn.sequential",
        ):
            assert expected in paths, (name, expected)
        searches = [s for s in recorded if s["name"] == "search"]
        assert [s["attrs"]["search"] for s in searches] == list(range(len(searches)))
        events = json.loads(Path(both["traced"]["trace_file"]).read_text())["traceEvents"]
        assert len(events) == len(recorded)
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_driver_line_and_corrupted_parents(tmp_path):
    proc, _doc = run_quick(tmp_path / "ok", "--workload", "rmat16_2d", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 2
    assert set(line["metrics"]) == {m.name for m in END_TO_END}

    proc, document = run_quick(
        tmp_path / "bad", "--workload", "rmat16_2d", "--trace", "0", "--corrupt"
    )
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1 and line["attempted"] == 2
    assert document["workloads"]["rmat16_2d"]["untraced"]["ops_failed"] == 1
    assert "differ from the serial oracle" in proc.stderr


def test_traced_driver_line_lists_the_shared_layers(tmp_path):
    proc, _doc = run_quick(tmp_path, "--workload", "crawl_1d_auto", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == {m.name for m in PER_LAYER if m.scope == "all"}
    assert line["correct"] is True and line["attempted"] >= 1


def test_nothing_to_measure_is_an_error(tmp_path):
    """In a directory with only the benchmark, the command must fail."""
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for source in HERE.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rmat16_2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- the small pieces ------------------------------------------------------------------


def test_stats():
    assert stats.tail(range(1, 11)) == (100.0, 10.0)  # too few: the maximum
    pct, value = stats.tail(range(1, 65))  # 64 samples: ten lie beyond p84
    assert (pct, value) == (100.0 * 54 / 64, 54.0)
    assert stats.harmonic_mean([1.0, 1.0, 4.0]) == pytest.approx(3 / 2.25)
    s = stats.summary([3.0, 1.0, 2.0])
    assert (s["value"], s["n"], s["min"], s["max"]) == (2.0, 3, 1.0, 3.0)
    assert stats.spread([10.0, 10.0, 10.0, 10.0]) == 0.0


def test_span_self_time_and_tree_checks():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("root"):
        with rec.span("child", search=0):
            pass
        with rec.span("child", search=1):
            pass
    assert spans.tree_problems(rec.spans) == []
    assert spans.self_times(rec.spans) == {0: 3.0, 1: 1.0, 2: 1.0}
    assert spans.path(rec.spans, rec.spans[2]) == "root › child"
    broken = [dict(s) for s in rec.spans]
    broken[2]["end"] = 99.0  # leaves its parent
    assert spans.tree_problems(broken)
    assert spans.tree_problems(rec.spans + [dict(rec.spans[0], id=3)])  # two roots


def _document(seed: int, **values) -> dict:
    """A results file with one workload whose metrics are ``values``."""
    cells = {
        name: {"value": v, "n": 1, "q1": v * 0.99, "q3": v * 1.01}
        for name, v in values.items()
    }
    return {
        "schema": "perfbench/v1", "seed": seed, "seconds": 10, "fingerprint": {},
        "workloads": {"rmat16_2d": {"untraced": {"metrics": cells}, "traced": None}},
    }


def test_compare_verdicts():
    base = dict(setup_s=1.0, search_wall_s=1.0, peak_rss_mb=100.0,
                modeled_gteps=2.0, modeled_comm_s=0.5)

    def verdicts(cand: dict, cand_seed: int = 1):
        rows, status = compare.compare([_document(1, **base)], [_document(cand_seed, **cand)])
        return {row[1]: row[-1] for row in rows[1:]}, status

    bound = {m.name: m.bound for m in END_TO_END}
    same, status = verdicts(base)
    assert set(same.values()) == {"within-bound"} and status == 0
    got, status = verdicts({
        **base,
        "search_wall_s": 1.0 + 2 * bound["search_wall_s"],
        "setup_s": 1.0 + 0.5 * bound["setup_s"],
        "peak_rss_mb": 100.0 * (1 - 2 * bound["peak_rss_mb"]),
    })
    assert got["search_wall_s"] == "regressed" and got["peak_rss_mb"] == "improved"
    assert got["setup_s"] == "within-bound" and status == 1
    # A modeled metric of one seed is held to rel. 1e-12 ...
    got, status = verdicts({**base, "modeled_gteps": 2.0 * (1 - 1e-9)})
    assert got["modeled_gteps"] == "regressed" and status == 1
    # ... and to its bound when the seeds differ.
    got, status = verdicts({**base, "modeled_gteps": 2.0 * (1 - 1e-9)}, cand_seed=2)
    assert got["modeled_gteps"] == "within-bound" and status == 0
    # A spread wider than the bound cannot resolve a difference.
    noisy = _document(1, **base)
    noisy["workloads"]["rmat16_2d"]["untraced"]["metrics"]["search_wall_s"].update(
        q1=1.0 - bound["search_wall_s"], q3=1.0 + bound["search_wall_s"]
    )
    rows, status = compare.compare([noisy], [_document(1, **base)])
    assert {row[1]: row[-1] for row in rows[1:]}["search_wall_s"] == "unresolved"
    assert status == 2


def test_compare_takes_spread_across_three_or_more_files():
    runs = [
        _document(seed, setup_s=1.0, search_wall_s=wall, peak_rss_mb=100.0,
                  modeled_gteps=2.0, modeled_comm_s=0.5)
        for seed, wall in ((1, 1.00), (2, 1.01), (3, 1.02), (4, 1.03))
    ]
    found = compare.summarize(runs, "rmat16_2d", "search_wall_s")
    assert found["runs"] == 4 and found["median"] == pytest.approx(1.015)
    assert (found["q1"], found["q3"]) == stats.quartiles([1.00, 1.01, 1.02, 1.03])
    assert compare.baseline(runs)["workloads"]["rmat16_2d"]["search_wall_s"]["unit"] == "s"

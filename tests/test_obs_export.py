"""Chrome-trace and run-report exporters."""

from __future__ import annotations

import json

import pytest

from repro.comm import DeltaVarintCodec
from repro.core import run_bfs
from repro.core.runner import ALGORITHMS
from repro.obs import (
    REPORT_SCHEMA,
    Tracer,
    chrome_trace,
    load_run_report,
    run_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_run_report,
)


#: Sections built from the tracer's spans; everything else comes from
#: the result and its stats.
SPAN_SECTIONS = ("phases", "levels", "comm_comp", "imbalance")


def _traced_run(graph, algorithm, **kwargs):
    tracer = Tracer()
    result = run_bfs(
        graph, 5, algorithm, nprocs=4, machine="hopper", tracer=tracer, **kwargs
    )
    return result, tracer


class TestChromeTrace:
    @pytest.mark.parametrize("algorithm", ["1d-dirop", "2d"])
    def test_schema_valid_for_bfs_runs(self, rmat_small, algorithm):
        result, tracer = _traced_run(rmat_small, algorithm)
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        events = trace["traceEvents"]
        # One thread_name metadata record per rank, tids = ranks.
        names = [e for e in events if e["ph"] == "M"]
        assert [e["tid"] for e in names] == list(range(result.nranks))
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in complete} == set(range(result.nranks))
        assert all(e["pid"] == 0 for e in events)
        # ts/dur are microseconds of the virtual clocks: the latest span
        # end equals the modeled makespan.
        latest = max(e["ts"] + e["dur"] for e in complete)
        assert latest == pytest.approx(result.time_total * 1e6)
        assert {e["name"] for e in complete} >= {"level", "sync", "allreduce"}

    def test_2d_trace_has_spmsv_kernel_instants(self, rmat_small):
        _result, tracer = _traced_run(rmat_small, "2d")
        trace = chrome_trace(tracer)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instants, "spmsv-kernel markers missing"
        assert all(e["name"] == "spmsv-kernel" for e in instants)
        assert all(e["args"]["kernel"] in ("spa", "heap") for e in instants)

    def test_level_and_meta_in_args(self, rmat_small):
        _result, tracer = _traced_run(rmat_small, "1d", codec=DeltaVarintCodec())
        trace = chrome_trace(tracer)
        exchanges = [
            e for e in trace["traceEvents"] if e.get("name") == "alltoallv"
        ]
        assert exchanges
        assert all("level" in e["args"] for e in exchanges)
        encodes = [e for e in trace["traceEvents"] if e.get("name") == "encode"]
        assert all(e["args"]["codec"] == "delta-varint" for e in encodes)

    @pytest.mark.parametrize("algorithm", ["1d-dirop", "2d-dirop"])
    def test_one_level_span_per_rank_and_level_with_direction(
        self, rmat_small, algorithm
    ):
        result, tracer = _traced_run(rmat_small, algorithm)
        levels = [
            e
            for e in chrome_trace(tracer)["traceEvents"]
            if e["ph"] == "X" and e["name"] == "level"
        ]
        keys = [(e["tid"], e["args"]["level"]) for e in levels]
        assert len(keys) == len(set(keys)) == result.nranks * result.nlevels
        assert all(
            e["args"]["direction"] in ("top-down", "bottom-up") for e in levels
        )

    @pytest.mark.parametrize("algorithm", ["1d", "1d-dirop", "2d", "2d-dirop"])
    def test_spans_nest_on_each_rank(self, rmat_small, algorithm):
        """A flame chart stacks a rank's spans: on every track they start
        in time order, and two spans either nest or are disjoint."""
        _result, tracer = _traced_run(rmat_small, algorithm)
        events = chrome_trace(tracer)["traceEvents"]
        for rank in tracer.ranks:
            spans = [e for e in events if e["ph"] == "X" and e["tid"] == rank]
            starts = [e["ts"] for e in spans]
            assert starts == sorted(starts)
            open_ends: list[float] = []
            for e in sorted(spans, key=lambda e: (e["ts"], -e["dur"])):
                end = e["ts"] + e["dur"]
                slack = 1e-9 * max(end, 1.0)
                while open_ends and open_ends[-1] <= e["ts"] + slack:
                    open_ends.pop()
                assert not open_ends or end <= open_ends[-1] + slack, e
                open_ends.append(end)

    def test_untimed_run_exports_zero_length_spans(self, rmat_small):
        tracer = Tracer()
        run_bfs(rmat_small, 5, "2d", nprocs=4, tracer=tracer)
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        timed = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert timed and {e["ph"] for e in timed} == {"X", "i"}
        assert all(e["ts"] == 0.0 for e in timed)
        assert all(e["dur"] == 0.0 for e in timed if e["ph"] == "X")

    def test_metering_leaves_the_trace_unchanged(self, rmat_small):
        from repro.obs import MetricsRegistry

        _result, plain = _traced_run(rmat_small, "2d-dirop")
        _result, metered = _traced_run(
            rmat_small, "2d-dirop", metrics=MetricsRegistry()
        )
        assert chrome_trace(metered) == chrome_trace(plain)

    def test_write_is_loadable_json(self, rmat_small, tmp_path):
        _result, tracer = _traced_run(rmat_small, "1d-dirop")
        path = write_chrome_trace(tmp_path / "sub" / "trace.json", tracer)
        validate_chrome_trace(json.loads(path.read_text()))

    def test_write_stamps_pid_on_every_event(self, rmat_small, tmp_path):
        _result, tracer = _traced_run(rmat_small, "1d")
        path = write_chrome_trace(tmp_path / "trace.json", tracer, pid=7)
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        assert {e["pid"] for e in trace["traceEvents"]} == {7}
        assert trace == json.loads(json.dumps(chrome_trace(tracer, pid=7)))

    def test_validate_rejects_bad_timestamps(self):
        span = {"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 0.0, "dur": 1.0}
        instant = {"ph": "i", "pid": 0, "tid": 0, "name": "x", "ts": 0.0, "s": "t"}
        for event, match in [
            ({**span, "ts": float("nan")}, "non-finite timestamps"),
            ({**span, "dur": float("inf")}, "non-finite timestamps"),
            ({**instant, "ts": -1.0}, "bad instant timestamp"),
            ({**instant, "ts": float("inf")}, "bad instant timestamp"),
            ({k: v for k, v in instant.items() if k != "ts"}, "missing 'ts'"),
            ({k: v for k, v in span.items() if k != "ph"}, "missing 'ph'"),
        ]:
            with pytest.raises(ValueError, match=match):
                validate_chrome_trace({"traceEvents": [event]})

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError, match="no traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="missing 'tid'"):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "pid": 0}]})
        with pytest.raises(ValueError, match="missing 'dur'"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 0}]}
            )
        bad = {"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 0.0, "dur": -1.0}
        with pytest.raises(ValueError, match="negative duration"):
            validate_chrome_trace({"traceEvents": [bad]})

    def test_validate_rejects_bad_span_metadata(self):
        ok = {"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 0.0, "dur": 1.0}
        for args, match in [
            ({"level": -1}, "non-integer level"),
            ({"level": 1.5}, "non-integer level"),
            ({"lanes": 0}, "lanes outside"),
            ({"lanes": 65}, "lanes outside"),
        ]:
            with pytest.raises(ValueError, match=match):
                validate_chrome_trace({"traceEvents": [{**ok, "args": args}]})
        validate_chrome_trace(
            {"traceEvents": [{**ok, "args": {"level": 3, "lanes": 64}}]}
        )

    def test_validate_instant_scope(self):
        instant = {"ph": "i", "pid": 0, "tid": 0, "name": "x", "ts": 0.0}
        with pytest.raises(ValueError, match="valid scope"):
            validate_chrome_trace({"traceEvents": [instant]})
        validate_chrome_trace({"traceEvents": [{**instant, "s": "t"}]})


class TestQueryChromeTrace:
    """Traces of the batched query validate too."""

    def _traced_query(self, graph, algorithm, **kwargs):
        from tests.conftest import launch_any

        tracer = Tracer()
        result = launch_any(
            graph, 5, algorithm, nprocs=4, machine="hopper",
            tracer=tracer, **kwargs,
        )
        return result, tracer

    @pytest.mark.parametrize("algorithm", ["msbfs-1d"])
    def test_query_traces_validate(self, rmat_small, algorithm):
        result, tracer = self._traced_query(rmat_small, algorithm, batch=8)
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in complete} == set(range(result.nranks))

    def test_msbfs_levels_carry_lane_metadata(self, rmat_small):
        result, tracer = self._traced_query(rmat_small, "msbfs-1d", batch=8)
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        levels = [
            e for e in trace["traceEvents"] if e.get("name") == "level"
        ]
        assert levels
        assert all(e["args"]["lanes"] == result.batch for e in levels)


class TestRunReport:
    def test_report_contents(self, rmat_small):
        result, _tracer = _traced_run(
            rmat_small, "1d-dirop", codec=DeltaVarintCodec(), sieve=True
        )
        report = run_report(result)  # tracer found in result.meta
        assert report["schema"] == REPORT_SCHEMA
        assert report["machine"] == "Hopper (Cray XE6)"
        assert report["algorithm"] == "1d-dirop"
        assert report["config"]["codec"] == "delta-varint"
        assert report["config"]["sieve"] is True
        assert report["time"]["total"] > 0
        assert report["gteps"] == pytest.approx(result.gteps())
        assert report["comm"]["total_wire_words"] > 0
        # Span-derived sections populated, and exactly one entry per level.
        assert len(report["levels"]) == result.nlevels
        assert sum(report["phases"].values()) == pytest.approx(
            result.time_total, rel=1e-9
        )
        assert report["comm_comp"]["totals"]["comm_max"] > 0
        assert report["imbalance"]

    def test_report_without_tracer_still_has_stats(self, rmat_small):
        result = run_bfs(rmat_small, 5, "1d", nprocs=4, machine="hopper")
        report = run_report(result)
        assert report["phases"] == {} and report["levels"] == []
        assert report["comm"]["total_words_sent"] > 0
        assert report["gteps"] > 0

    def test_write_load_round_trip(self, rmat_small, tmp_path):
        result, _tracer = _traced_run(rmat_small, "2d")
        report = run_report(result)
        path = write_run_report(tmp_path / "report.json", report)
        assert load_run_report(path) == json.loads(json.dumps(report))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="not a run report"):
            load_run_report(path)

    def test_older_schemas_still_load(self, rmat_small, tmp_path):
        result, _tracer = _traced_run(rmat_small, "1d")
        for old in (
            "repro.obs/run-report/v1",
            "repro.obs/run-report/v2",
            "repro.obs/run-report/v3",
        ):
            report = run_report(result)
            report["schema"] = old
            path = write_run_report(tmp_path / "old.json", report)
            assert load_run_report(path)["schema"] == old

    def test_bfs_report_has_empty_query_section(self, rmat_small):
        result, _tracer = _traced_run(rmat_small, "1d")
        report = run_report(result)
        assert report["query"] is None
        assert report["metrics"] is None  # no registry installed
        assert "faults" not in report  # dropped in v4

    def test_query_report_carries_throughput(self, rmat_small):
        from repro.query import run_query
        from tests.conftest import query_sources

        result = run_query(
            rmat_small, query_sources(rmat_small, 5, 8),
            algorithm="msbfs-1d", nprocs=4, machine="hopper", tracer=Tracer(),
        )
        report = run_report(result)
        assert report["query"]["kind"] == "msbfs"
        assert report["query"]["batch"] == 8
        assert report["query"]["queries_per_second"] == pytest.approx(
            result.queries_per_second()
        )
        assert report["graph"]["batch"] == 8
        # Vertex count stays the vertex count despite lane columns.
        assert report["graph"]["n"] == rmat_small.n

    def test_metered_report_embeds_metrics_snapshot(self, rmat_small):
        from repro.obs import METRICS_SCHEMA, MetricsRegistry

        registry = MetricsRegistry()
        result = run_bfs(
            rmat_small, 5, "1d", nprocs=4, machine="hopper", metrics=registry
        )
        report = run_report(result)
        assert report["metrics"]["schema"] == METRICS_SCHEMA
        wire = report["metrics"]["metrics"]["comm_wire_words"]
        assert wire["type"] == "counter"
        assert sum(wire["series"].values()) == result.stats.wire_words()


def _launch(graph, algorithm, **kwargs):
    from tests.conftest import launch_any

    return launch_any(graph, 5, algorithm, nprocs=4, machine="hopper", **kwargs)


def _traceable(algorithm: str) -> bool:
    return "tracer" in ALGORITHMS[algorithm].capabilities


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestRunReportEveryAlgorithm:
    """The run report of every registry entry, BFS and batched query."""

    def test_report_mirrors_the_result(self, rmat_small, algorithm):
        result = _launch(rmat_small, algorithm)
        report = run_report(result)
        assert report["schema"] == REPORT_SCHEMA
        assert report["algorithm"] == algorithm
        assert report["graph"] == {
            "n": rmat_small.n,
            "name": rmat_small.name,
            "m_traversed": result.m_traversed,
            "nlevels": result.nlevels,
            "source": result.source,
            **({"batch": result.batch} if hasattr(result, "batch") else {}),
        }
        assert (report["nranks"], report["threads"]) == (result.nranks, result.threads)
        assert report["time"] == {
            "total": result.time_total,
            "comm": result.time_comm,
            "comp": result.time_comp,
        }
        if result.time_total > 0:
            assert report["gteps"] == result.gteps()
            assert report["comm"]["total_wire_words"] == result.stats.wire_words()
        else:  # the untimed serial oracle
            assert report["gteps"] is None and report["comm"] is None
        kind = ALGORITHMS[algorithm].kind
        assert (report["query"] is None) == (kind == "bfs")

    def test_span_sections_cover_every_level(self, rmat_small, algorithm):
        if not _traceable(algorithm):
            with pytest.raises(ValueError, match="not instrumented for span tracing"):
                _launch(rmat_small, algorithm, tracer=Tracer())
            report = run_report(_launch(rmat_small, algorithm))
            assert all(not report[section] for section in SPAN_SECTIONS)
            return
        result = _launch(rmat_small, algorithm, tracer=Tracer())
        report = run_report(result)
        assert [lv["level"] for lv in report["levels"]] == list(
            range(1, result.nlevels + 1)
        )
        for lv in report["levels"]:
            assert 0 <= lv["critical_rank"] < result.nranks
            assert lv["bounding_phase"] in lv["phases"]
        assert sum(report["phases"].values()) == pytest.approx(
            result.time_total, rel=1e-9
        )
        assert report["comm_comp"]["totals"]["comm_max"] > 0
        assert report["imbalance"]

    def test_tracing_moves_only_the_span_sections(self, rmat_small, algorithm):
        """Observation must not perturb the modeled run: a traced
        report equals the untraced one outside the span sections."""
        kwargs = {"tracer": Tracer()} if _traceable(algorithm) else {}
        traced = run_report(_launch(rmat_small, algorithm, **kwargs))
        plain = run_report(_launch(rmat_small, algorithm))
        assert sorted(traced) == sorted(plain)
        for section in plain:
            if section not in SPAN_SECTIONS:
                assert traced[section] == plain[section], section

    def test_rewrite_is_byte_stable(self, rmat_small, algorithm, tmp_path):
        """Strict JSON (no NaN/inf) whose load-and-rewrite reproduces the
        file byte for byte, so ``cmp`` against a committed report
        compares content, not formatting."""
        kwargs = {"tracer": Tracer()} if _traceable(algorithm) else {}
        report = run_report(_launch(rmat_small, algorithm, **kwargs))
        first = write_run_report(tmp_path / "first.json", report)
        loaded = load_run_report(first)
        assert loaded == json.loads(json.dumps(report))
        second = write_run_report(tmp_path / "second.json", loaded)
        assert second.read_bytes() == first.read_bytes()

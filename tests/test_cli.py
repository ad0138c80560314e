"""Tests for the repro-bench command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "table2" in out

    def test_unknown_experiment(self, capsys):
        assert main(["figZZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_one_quick(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "finished in" in out

    def test_output_dir(self, tmp_path, capsys):
        assert main(["fig5", "--quick", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "fig5.txt").exists()
        assert "Figure 5" in (tmp_path / "fig5.txt").read_text()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["all"])
        assert args.experiment == "all"
        assert args.quick is False
        assert args.output_dir is None

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401 - import is the test

    def test_console_script_registered(self):
        import importlib.metadata as md

        eps = md.entry_points()
        scripts = eps.select(group="console_scripts") if hasattr(eps, "select") else eps["console_scripts"]
        names = {ep.name for ep in scripts}
        if "repro-bench" not in names:
            pytest.skip("editable install without console script metadata")

    def test_graph500_mode(self, capsys):
        assert main(["graph500", "--scale", "10", "--nbfs", "2", "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "SCALE:" in out
        assert "harmonic_mean_TEPS:" in out

    def test_graph500_threads_reach_the_run(self, capsys):
        argv = ["graph500", "--scale", "8", "--nbfs", "2", "--algorithm", "2d", "--threads", "6"]
        assert main(argv) == 0
        assert "threads_per_process (modeled):  6" in capsys.readouterr().out

    def test_query_mode_writes_an_msbfs_report(self, tmp_path, capsys):
        import json

        report, trace = tmp_path / "report.json", tmp_path / "trace.json"
        argv = ["query", "--scale", "8", "--nprocs", "4", "--batch", "8"]
        argv += ["--report-out", str(report), "--trace-out", str(trace)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "msbfs-1d (msbfs)" in out
        assert "batch=8" in out
        assert json.loads(report.read_text())["query"]["kind"] == "msbfs"
        assert json.loads(trace.read_text())["traceEvents"]

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("codec", ["raw", "auto"])
    def test_query_mode_runs_each_codec_and_width(self, codec, batch, capsys):
        argv = ["query", "--scale", "7", "--nprocs", "4", "--algorithm", "msbfs-1d"]
        assert main(argv + ["--codec", codec, "--batch", str(batch)]) == 0
        out = capsys.readouterr().out
        assert f"msbfs-1d (msbfs) on rmat-s7-ef16: batch={batch} " in out
        assert "queries/s" in out

    @pytest.mark.parametrize("algorithm", ["cc", "2d", "sssp-delta", "landmark", "1d", "serial"])
    def test_query_mode_names_the_query_algorithms(self, algorithm, capsys):
        """``2d`` is graph500's default, and an explicit one is refused,
        not silently swapped for ``msbfs-1d``; so is any other BFS entry
        and every name of the deleted query families."""
        assert main(["query", "--scale", "8", "--algorithm", algorithm]) == 2
        err = capsys.readouterr().err
        assert f"{algorithm!r} is not a batched query algorithm" in err
        assert "['msbfs-1d']" in err

    @pytest.mark.parametrize("batch", [0, -1, 65])
    def test_query_mode_refuses_batches_outside_one_word(self, batch, capsys):
        """A batch is 1..64 lanes of one uint64 word; anything else is an
        error, not a silently resized batch or a traceback."""
        assert main(["query", "--scale", "8", "--batch", str(batch)]) == 2
        captured = capsys.readouterr()
        assert f"--batch must be in [1, 64], got {batch}" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("name", ["perf-diff", "trajectory"])
    def test_deleted_gate_subcommands_are_unknown(self, name, capsys):
        """The committed reports are held by byte equality; the median
        gate's spellings are gone and fall through to the experiment
        lookup."""
        assert main([name]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--events-out", "--flamegraph-out"])
    def test_deleted_span_exports_are_usage_errors(self, flag, capsys):
        """Spans are written to a file only as a Chrome trace
        (``--trace-out``); the other two spellings are unknown options."""
        with pytest.raises(SystemExit) as exc:
            main(["graph500", flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--fault-spec", "crash:rank=1,level=3"), ("--checkpoint-every", "1"),
         ("--max-retries", "3")],
    )
    def test_deleted_fault_flags_are_usage_errors(self, flag, value, capsys):
        """The fault-injection and checkpoint-restart options are gone;
        their spellings are unknown options, refused before any work."""
        with pytest.raises(SystemExit) as exc:
            main(["graph500", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algorithm", "2d-hybrid"], "unknown algorithm '2d-hybrid'"),
            (["--threads", "0"], "threads must be >= 1, got 0"),
            (["--spmd-timeout", "0"], "spmd_timeout must be > 0, got 0.0"),
            (["--nbfs", "0"], "--nbfs must be >= 1, got 0"),
        ],
    )
    def test_graph500_config_errors_precede_kernel_1(
        self, flags, message, monkeypatch, capsys
    ):
        """A bad config is a one-line usage error before the graph is built."""

        def generate(*args, **kwargs):
            raise AssertionError("kernel 1 ran")

        monkeypatch.setattr("repro.graph500.rmat_edges", generate)
        assert main(["graph500", "--scale", "8", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"graph500: {message}")
        assert captured.err.count("\n") == 1
        assert not captured.out

    def test_algorithm_default_is_per_flow(self):
        assert build_parser().parse_args(["graph500"]).algorithm is None
        assert build_parser().parse_args(["graph500"]).threads == 1

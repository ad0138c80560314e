"""Command-line entry point: ``repro-bench`` / ``python -m repro``.

Regenerates the paper's tables and figures::

    repro-bench list                 # show available experiments
    repro-bench fig5                 # run one experiment
    repro-bench all                  # run everything
    repro-bench all --quick          # smaller graphs / fewer ranks
    repro-bench fig7 -o results/     # also write results/<id>.txt

and runs the Graph 500 benchmark flow::

    repro-bench graph500 --scale 15 --algorithm 2d-hybrid --machine hopper

and the batched-query flow (the ``repro.query`` algorithm zoo)::

    repro-bench query --scale 13 --batch 64 --machine hopper
    repro-bench query --algorithm cc --scale 13 --machine hopper

With ``--trace-out``/``--report-out`` the graph500 and query flows
additionally write a Chrome ``trace_event`` file (open in Perfetto) and
the machine-readable run report of the first search; reports feed the
perf gate, spelled for a committed series or for two reports::

    repro-bench graph500 --scale 13 --report-out base.json
    repro-bench trajectory benchmarks/ --candidate candidate.json
    repro-bench perf-diff base.json candidate.json --threshold 0.05

``--events-out``/``--flamegraph-out``/``--metrics-out`` add the JSONL
event log, the collapsed-stack flamegraph (speedscope/flamegraph.pl)
and the OpenMetrics counter exposition of the same search.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.runtime import BACKENDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Reproduce the tables and figures of Buluc & Madduri, "
            "'Parallel Breadth-First Search on Distributed Memory Systems' "
            "(SC 2011)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (see 'list'), 'all', 'list', 'graph500', or "
            "'query'"
        ),
    )
    group = parser.add_argument_group("graph500 options")
    group.add_argument("--scale", type=int, default=14)
    group.add_argument("--edgefactor", type=float, default=16)
    group.add_argument("--algorithm", default="2d")
    group.add_argument("--nprocs", type=int, default=16)
    group.add_argument("--machine", default="hopper")
    group.add_argument("--nbfs", type=int, default=8)
    group.add_argument("--seed", type=int, default=0)
    group.add_argument(
        "--codec",
        default="raw",
        choices=["raw", "delta-varint", "bitmap", "auto"],
        help=(
            "wire format for the exchange buffers; the alpha-beta model "
            "prices the encoded size, so compression is modeled speedup "
            "(default: raw)"
        ),
    )
    group.add_argument(
        "--sieve",
        action="store_true",
        help=(
            "drop candidates whose target the sender already shipped at an "
            "earlier level (exact; parents stay bit-identical)"
        ),
    )
    group.add_argument(
        "--dirop-alpha",
        type=float,
        default=None,
        help=(
            "dirop top-down->bottom-up threshold: switch when frontier "
            "edges exceed 1/alpha of the unexplored edges (default: the "
            "tuned DIROP_ALPHA)"
        ),
    )
    group.add_argument(
        "--dirop-beta",
        type=float,
        default=None,
        help=(
            "dirop bottom-up->top-down threshold: switch back when the "
            "frontier shrinks below n/beta vertices (default: DIROP_BETA)"
        ),
    )
    group.add_argument(
        "--runtime",
        default=None,
        choices=BACKENDS,
        help=(
            "execution backend for the SPMD ranks: sequential "
            "(deterministic round-robin, no timeouts; the default), "
            "threads (preemptive rank threads), or processes (forked "
            "workers, real parallelism); modeled outputs are "
            "bit-identical across backends"
        ),
    )
    group.add_argument(
        "--spmd-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "seconds a rank may wait at a rendezvous before the run "
            "aborts as deadlocked (default: REPRO_SPMD_TIMEOUT or 600)"
        ),
    )
    group.add_argument(
        "--fault-spec",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault schedule, ';'-separated "
            "kind:key=value,... events, e.g. "
            "'crash:rank=1,level=3;timeout:level=2;seed=7' "
            "(kinds: crash, timeout, corrupt, delay)"
        ),
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "snapshot traversal state every N levels so an injected crash "
            "recovers from the last complete checkpoint (cost-modeled; "
            "default: checkpointing off)"
        ),
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help=(
            "transient-fault retry budget per collective before the run "
            "aborts (default: 3)"
        ),
    )
    group.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write a Chrome trace_event JSON of the first search "
            "(open in Perfetto / chrome://tracing)"
        ),
    )
    group.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help=(
            "write the machine-readable run report of the first search "
            "(input to 'repro-bench perf-diff')"
        ),
    )
    group.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help=(
            "write the schema-versioned JSONL event log of the first "
            "search (run/level/span/fault/checkpoint/metric events, one "
            "JSON object per line, ordered by virtual time)"
        ),
    )
    group.add_argument(
        "--flamegraph-out",
        default=None,
        metavar="FILE",
        help=(
            "write a collapsed-stack profile of the first search "
            "(virtual self-time in microseconds; load in speedscope or "
            "flamegraph.pl)"
        ),
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the metrics registry of the first search as "
            "OpenMetrics text exposition"
        ),
    )
    qgroup = parser.add_argument_group("query options")
    qgroup.add_argument(
        "--batch",
        type=int,
        default=64,
        metavar="K",
        help=(
            "sources per bit-parallel traversal (1..64 lanes of one uint64 "
            "word) for msbfs-1d/sssp-delta, or the landmark count for "
            "landmark (default: 64)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="downscale graphs/ranks for a fast smoke run",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render the experiment as an ASCII chart when it has one",
    )
    parser.add_argument(
        "-o",
        "--output-dir",
        default=None,
        help="directory to write <experiment>.txt result files into",
    )
    return parser


def build_perf_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench perf-diff",
        description=(
            "Compare two run reports (written with --report-out) and fail "
            "on performance regression."
        ),
    )
    parser.add_argument("baseline", help="baseline run-report JSON")
    parser.add_argument("candidate", help="candidate run-report JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="allowed relative slowdown on gated metrics (default: 0.05)",
    )
    return parser


def build_trajectory_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench trajectory",
        description=(
            "Aggregate a series of committed run reports (BENCH_*.json) "
            "into per-metric time series, gate the newest point against "
            "the trajectory's median, and report changepoints."
        ),
    )
    parser.add_argument(
        "baselines",
        nargs="+",
        help=(
            "run-report files, directories (their BENCH_*.json, sorted by "
            "name) or glob patterns, oldest first"
        ),
    )
    parser.add_argument(
        "--candidate",
        default=None,
        metavar="FILE",
        help=(
            "fresh run report appended as the newest point; this is what "
            "the gate judges (default: the series' last point)"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="allowed relative drift on gated metrics (default: 0.05)",
    )
    parser.add_argument(
        "--markdown-out",
        default=None,
        metavar="FILE",
        help="also write the dashboard as GitHub-flavored markdown",
    )
    parser.add_argument(
        "--html-out",
        default=None,
        metavar="FILE",
        help="also write the dashboard as a self-contained HTML page",
    )
    return parser


def _run_gate(command: str, argv: list[str]) -> int:
    """Both gate spellings: print the analysis, write any dashboards,
    exit 0 on pass, 1 on regression, 2 on unusable input."""
    from pathlib import Path

    from repro.obs.regress import DEFAULT_THRESHOLD, analyze_trajectory, perf_diff

    perf = command == "perf-diff"
    parser = build_perf_diff_parser() if perf else build_trajectory_parser()
    args = parser.parse_args(argv)
    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    try:
        if perf:
            trajectory = perf_diff(args.baseline, args.candidate, threshold=threshold)
        else:
            trajectory = analyze_trajectory(
                args.baselines, candidate=args.candidate, threshold=threshold
            )
    except (OSError, ValueError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    print(trajectory.render())
    dashboards = (
        (getattr(args, "markdown_out", None), trajectory.render_markdown),
        (getattr(args, "html_out", None), trajectory.render_html),
    )
    for out, render in dashboards:
        if out:
            path = Path(out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(render())
            print(f"wrote {path}")
    return 0 if trajectory.ok else 1


def _obs_handles(args):
    """Tracer/metrics-registry pair implied by the requested outputs.

    Spans feed the trace/report/events/flamegraph files; the metrics
    registry feeds the OpenMetrics file and the report/event-log
    snapshots.  Neither costs anything when no output asks for it.
    """
    tracer = registry = None
    if args.trace_out or args.report_out or args.events_out or args.flamegraph_out:
        from repro.obs import Tracer

        tracer = Tracer()
    if args.metrics_out or args.report_out or args.events_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    return tracer, registry


def _write_obs_artifacts(args, result, tracer, registry) -> None:
    """Write every requested observability artifact of one run."""
    if args.trace_out:
        from repro.obs import write_chrome_trace

        print(f"wrote {write_chrome_trace(args.trace_out, tracer)}")
    if args.report_out:
        from repro.obs import run_report, write_run_report

        print(f"wrote {write_run_report(args.report_out, run_report(result))}")
    if args.events_out:
        from repro.obs import write_events_jsonl

        count = write_events_jsonl(args.events_out, result)
        print(f"wrote {args.events_out} ({count} events)")
    if args.flamegraph_out:
        from repro.obs import write_flamegraph

        count = write_flamegraph(args.flamegraph_out, result)
        print(f"wrote {args.flamegraph_out} ({count} stacks)")
    if args.metrics_out:
        from pathlib import Path

        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(registry.render_openmetrics())
        print(f"wrote {path}")


def _run_query_flow(args) -> int:
    """Run one batched query (``repro.query`` zoo) from the CLI."""
    from repro.bench.harness import pick_sources
    from repro.core.runner import ALGORITHMS
    from repro.graphs import rmat_graph
    from repro.query import run_query

    # "2d" is the graph500 default; the query flow's is the MS-BFS.
    algorithm = "msbfs-1d" if args.algorithm == "2d" else args.algorithm
    spec = ALGORITHMS.get(algorithm)
    if spec is None or spec.kind == "bfs":
        kinds = sorted(
            name for name, s in ALGORITHMS.items() if s.kind != "bfs"
        )
        print(
            f"query: {algorithm!r} is not a batched query algorithm; "
            f"known: {kinds}",
            file=sys.stderr,
        )
        return 2

    tracer, registry = _obs_handles(args)
    graph = rmat_graph(args.scale, args.edgefactor, seed=args.seed)
    kwargs: dict = {}
    if spec.kind in ("msbfs", "sssp"):
        kwargs["sources"] = pick_sources(graph, args.batch, seed=args.seed + 1)
    elif spec.kind == "landmark":
        kwargs["landmarks"] = args.batch
    result = run_query(
        graph,
        algorithm=algorithm,
        nprocs=args.nprocs,
        machine=args.machine,
        codec=args.codec,
        trace=True,
        tracer=tracer,
        metrics=registry,
        faults=args.fault_spec,
        checkpoint_every=args.checkpoint_every,
        max_retries=args.max_retries,
        runtime=args.runtime,
        spmd_timeout=args.spmd_timeout,
        validate=True,
        **kwargs,
    )
    print(
        f"{algorithm} ({result.kind}) on {graph.name}: "
        f"batch={result.batch} nlevels={result.nlevels} "
        f"ranks={result.nranks}"
    )
    print(
        f"  modeled time {result.time_total * 1e3:.3f} ms  "
        f"({result.queries_per_second():.0f} queries/s, "
        f"{result.gteps():.3f} GTEPS)"
    )
    if result.kind == "cc":
        print(f"  components: {result.meta['components']}")
    _write_obs_artifacts(args, result, tracer, registry)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The main parser's positional would swallow the report paths, so the
    # perf-diff/trajectory gate spellings are dispatched before it.
    if argv and argv[0] in ("perf-diff", "trajectory"):
        return _run_gate(argv[0], argv[1:])
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for exp_id, (_fn, desc) in EXPERIMENTS.items():
            print(f"{exp_id.ljust(width)}  {desc}")
        return 0

    if args.experiment == "graph500":
        from repro.graph500 import run_graph500

        tracer, registry = _obs_handles(args)
        result = run_graph500(
            scale=args.scale,
            edgefactor=args.edgefactor,
            nprocs=args.nprocs,
            algorithm=args.algorithm,
            machine=args.machine,
            nbfs=args.nbfs,
            seed=args.seed,
            codec=args.codec,
            sieve=args.sieve,
            dirop_alpha=args.dirop_alpha,
            dirop_beta=args.dirop_beta,
            tracer=tracer,
            metrics=registry,
            faults=args.fault_spec,
            checkpoint_every=args.checkpoint_every,
            max_retries=args.max_retries,
            runtime=args.runtime,
            spmd_timeout=args.spmd_timeout,
        )
        print(result.report())
        # Observability artifacts describe the first (traced) search.
        _write_obs_artifacts(args, result.searches[0], tracer, registry)
        return 0

    if args.experiment == "query":
        return _run_query_flow(args)

    if args.experiment == "all":
        exp_ids = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        exp_ids = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'",
            file=sys.stderr,
        )
        return 2

    for exp_id in exp_ids:
        start = time.perf_counter()
        table = run_experiment(exp_id, quick=args.quick)
        elapsed = time.perf_counter() - start
        print(table.render())
        chart = None
        if args.plot or args.output_dir:
            from repro.bench.plotting import render_figure

            chart = render_figure(table, exp_id)
        if args.plot and chart:
            print()
            print(chart)
        print(f"[{exp_id} finished in {elapsed:.1f}s]\n")
        if args.output_dir:
            path = table.save(args.output_dir, exp_id)
            print(f"wrote {path}")
            if chart:
                from pathlib import Path

                chart_path = Path(args.output_dir) / f"{exp_id}.chart.txt"
                chart_path.write_text(chart + "\n")
                print(f"wrote {chart_path}")
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

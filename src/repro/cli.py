"""Command-line entry point: ``repro-bench`` / ``python -m repro``.

Regenerates the paper's tables and figures::

    repro-bench list                 # show available experiments
    repro-bench fig5                 # run one experiment
    repro-bench all                  # run everything
    repro-bench all --quick          # smaller graphs / fewer ranks
    repro-bench fig7 -o results/     # also write results/<id>.txt

and runs the Graph 500 benchmark flow; ``--threads N`` models ``N``
intra-node threads per rank on the 1d/2d families, the paper's hybrid
(it ran 6 per rank on Hopper, 4 on Franklin)::

    repro-bench graph500 --scale 15 --algorithm 2d --threads 6 --machine hopper

and the batched-query flow (``repro.query``'s 64-lane ``msbfs-1d``)::

    repro-bench query --scale 13 --batch 64 --machine hopper

With ``--trace-out``/``--report-out`` the graph500 and query flows
additionally write a Chrome ``trace_event`` file (Perfetto and
speedscope open it as a flame chart) and the machine-readable run
report of the first search.  The committed modeled baselines are such
reports, and a rerun must reproduce them byte for byte::

    repro-bench graph500 --scale 13 --nprocs 16 --nbfs 4 --seed 0 \
        --report-out fresh.json
    cmp fresh.json benchmarks/BENCH_baseline.json

``--metrics-out`` adds the OpenMetrics counter exposition of the same
search.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.comm import CODECS
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
    group.add_argument(
        "--algorithm",
        default=None,
        help="graph500: a BFS algorithm (default: 2d); query: msbfs-1d (the default)",
    )
    group.add_argument("--nprocs", type=int, default=16)
    group.add_argument(
        "--threads",
        type=int,
        default=1,
        help=(
            "intra-node threads modeled per rank; above 1 runs the paper's "
            "hybrid (1d/2d families only; default: 1)"
        ),
    )
    group.add_argument("--machine", default="hopper")
    group.add_argument("--nbfs", type=int, default=8)
    group.add_argument("--seed", type=int, default=0)
    group.add_argument(
        "--codec",
        default="raw",
        choices=sorted(CODECS),
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
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write a Chrome trace_event JSON of the first search "
            "(open in Perfetto, speedscope or chrome://tracing)"
        ),
    )
    group.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help=(
            "write the machine-readable run report of the first search "
            "(the format of the committed benchmarks/BENCH_*.json "
            "baselines)"
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
            "sources per bit-parallel msbfs-1d traversal (1..64 lanes of "
            "one uint64 word; default: 64)"
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


def _obs_handles(args):
    """Tracer/metrics-registry pair implied by the requested outputs.

    Spans feed the trace and report files; the metrics registry feeds
    the OpenMetrics file and the report's snapshot.  Neither costs
    anything when no output asks for it.
    """
    tracer = registry = None
    if args.trace_out or args.report_out:
        from repro.obs import Tracer

        tracer = Tracer()
    if args.metrics_out or args.report_out:
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
    if args.metrics_out:
        from pathlib import Path

        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(registry.render_openmetrics())
        print(f"wrote {path}")


def _run_graph500_flow(args) -> int:
    """Run the Graph 500 benchmark flow from the CLI."""
    from repro.core.runner import RunConfig
    from repro.graph500 import run_graph500

    tracer, registry = _obs_handles(args)
    options = dict(
        algorithm=args.algorithm or "2d",
        nprocs=args.nprocs,
        threads=args.threads,
        machine=args.machine,
        codec=args.codec,
        sieve=args.sieve,
        dirop_alpha=args.dirop_alpha,
        dirop_beta=args.dirop_beta,
        tracer=tracer,
        metrics=registry,
        runtime=args.runtime,
        spmd_timeout=args.spmd_timeout,
    )
    # Only the config's own checks become a usage error: a ValueError
    # raised mid-search (a CodecError, say) still propagates.
    try:
        RunConfig(**options).resolve()
        if args.nbfs < 1:
            raise ValueError(f"--nbfs must be >= 1, got {args.nbfs}")
    except ValueError as exc:
        print(f"graph500: {exc}", file=sys.stderr)
        return 2
    result = run_graph500(
        scale=args.scale,
        edgefactor=args.edgefactor,
        nbfs=args.nbfs,
        seed=args.seed,
        **options,
    )
    print(result.report())
    # Observability artifacts describe the first (traced) search.
    _write_obs_artifacts(args, result.searches[0], tracer, registry)
    return 0


def _run_query_flow(args) -> int:
    """Run one batched ``msbfs-1d`` query from the CLI."""
    from repro.bench.harness import pick_sources
    from repro.core.runner import ALGORITHMS
    from repro.graphs import rmat_graph
    from repro.query import run_query
    from repro.query.msbfs import WORD_LANES

    algorithm = args.algorithm or "msbfs-1d"
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
    if not 1 <= args.batch <= WORD_LANES:
        print(
            f"query: --batch must be in [1, {WORD_LANES}], got {args.batch}",
            file=sys.stderr,
        )
        return 2

    tracer, registry = _obs_handles(args)
    graph = rmat_graph(args.scale, args.edgefactor, seed=args.seed)
    result = run_query(
        graph,
        pick_sources(graph, args.batch, seed=args.seed + 1),
        algorithm=algorithm,
        nprocs=args.nprocs,
        threads=args.threads,
        machine=args.machine,
        codec=args.codec,
        trace=True,
        tracer=tracer,
        metrics=registry,
        runtime=args.runtime,
        spmd_timeout=args.spmd_timeout,
        validate=True,
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
    _write_obs_artifacts(args, result, tracer, registry)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for exp_id, (_fn, desc) in EXPERIMENTS.items():
            print(f"{exp_id.ljust(width)}  {desc}")
        return 0

    if args.experiment == "graph500":
        return _run_graph500_flow(args)

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

"""Peak memory of one perfbench workload, stage by stage.

Replays the shape of a ``perfbench`` workload — set-up, a warm-up on
the tiny fixed graph, then one search through ``Session.query`` (or
``Session.bfs``) — in this process, and prints after each stage:

* ``ru_maxrss``: the process's peak resident set so far, what perfbench
  reports as ``peak_rss_mb``;
* the ``tracemalloc`` peak *within* the stage and the traced bytes live
  at its end (numpy reports its buffers to ``tracemalloc``).

Stages: ``generate`` (edges), ``construct`` (CSR + relabeling),
``keys`` (with the edge list still alive, as in ``worker.set_up``),
``warm-up``, ``partition`` (``runner.prepare``: a 2D workload's DCSC
blocks), ``launch`` (the SPMD run; rank slices live), ``stitch``
(slices written into the caller-label outputs), ``result`` (edge count
and the result object).  ``--no-tracemalloc`` reads ``ru_maxrss``
without the tracer's own overhead.  Run from the repository root::

    PYTHONPATH=src python benchmarks/memory_stages.py --workload rmat16_msbfs64 --seed 1
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import worker  # noqa: E402
from workloads import EDGEFACTOR, WORKLOADS  # noqa: E402

from repro.core import runner  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402
from repro.graphs.rmat import rmat_edges  # noqa: E402
from repro.graphs.webcrawl import webcrawl_edges  # noqa: E402

MIB = float(1 << 20)


class Stages:
    """Prints one line per stage mark."""

    def __init__(self, traced: bool):
        self.traced = traced
        heads = ("ru_maxrss MiB", "traced peak MiB", "traced live MiB")
        print(f"{'stage':<10} {heads[0]:>14} {heads[1]:>16} {heads[2]:>16}")

    def mark(self, stage: str) -> None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak = live = float("nan")
        if self.traced:
            live, peak = (b / MIB for b in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        print(f"{stage:<10} {rss:>14.1f} {peak:>16.1f} {live:>16.1f}", flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="rmat16_msbfs64", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-tracemalloc", dest="traced", action="store_false")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.traced:
        tracemalloc.start()
    stages = Stages(args.traced)

    n = 1 << spec.scale
    if spec.graph == "rmat":
        src, dst = rmat_edges(spec.scale, EDGEFACTOR, seed=args.seed)
    else:
        src, dst = webcrawl_edges(n, n_hosts=spec.n_hosts, host_reach=1, seed=args.seed)
    stages.mark("generate")
    graph = Graph.from_edges(n, src, dst, seed=args.seed, name=spec.name)
    stages.mark("construct")
    # ``worker.set_up`` holds the edge list until it returns, through key
    # sampling and its serial search.
    key_row = worker.search_keys(spec, graph, args.seed)[0]
    del src, dst
    stages.mark("keys")
    config = worker.make_config(spec)
    worker.search(spec, *worker.fixed_inputs(spec), config)
    stages.mark("warm-up")

    # Mark the driver's own seams: after the SPMD launch, after the stitch.
    launch, stitch = runner.Session.launch, runner.Session.stitch

    def marked_launch(self, *seed):
        out = launch(self, *seed)
        stages.mark("launch")
        return out

    def marked_stitch(self, *a, **kw):
        out = stitch(self, *a, **kw)
        stages.mark("stitch")
        return out

    runner.Session.launch, runner.Session.stitch = marked_launch, marked_stitch
    session = runner.prepare(graph, config)
    stages.mark("partition")
    if spec.batch == 1:
        result = session.bfs(int(key_row[0]))
    else:
        result = session.query(np.asarray(key_row))
    stages.mark("result")
    print(
        f"# {spec.name} seed {args.seed}: n={graph.n}, output "
        f"{(result.levels.nbytes + result.parents.nbytes) / MIB:.1f} MiB, "
        f"m_traversed={result.m_traversed}"
    )


if __name__ == "__main__":
    main()

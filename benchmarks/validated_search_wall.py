"""Wall time of a validated ``Session.bfs``: two checkouts, alternating pairs.

Each run is a fresh interpreter on one checkout's ``src`` directory.  It
builds ``rmat_graph(scale)``, prepares ``1d`` on ``--nprocs`` ranks with
``validate=True`` (sequential runtime, Hopper model), warms up with one
search, times ``--searches`` further searches through ``Session.bfs``
and reports their median.  One more search, traced, gives the host
seconds of the ``validate`` and ``oracle`` spans from
``repro.obs.wall_table`` (a side without an oracle reads 0).  Pair ``i``
runs the base first when ``i`` is even and the candidate first when it
is odd.  Run from the repository root, e.g. against a clean copy of
another commit unpacked with ``git archive``::

    python benchmarks/validated_search_wall.py --base /tmp/parent/src --cand src --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

CHILD = """
import json, sys, time
from dataclasses import replace
import numpy as np
from repro.core.runner import RunConfig, prepare
from repro.graphs import rmat_graph
from repro.obs import Tracer, wall_table

scale, nprocs, searches = (int(a) for a in sys.argv[1:4])
graph = rmat_graph(scale, 16, seed=1)
keys = [int(k) for k in graph.random_nonisolated_vertices(searches + 2, seed=2)]
config = RunConfig(algorithm="1d", nprocs=nprocs, machine="hopper", validate=True)
session = prepare(graph, config)
session.bfs(keys[0])
walls = []
for key in keys[1:-1]:
    start = time.perf_counter()
    session.bfs(key)
    walls.append(time.perf_counter() - start)
tracer = Tracer()
prepare(graph, replace(config, tracer=tracer)).bfs(keys[-1])
table = wall_table(tracer)
print(json.dumps({"wall": float(np.median(walls)),
                  "validate": table.get("validate", 0.0),
                  "oracle": table.get("oracle", 0.0)}))
"""


def measure(src: str, scale: int, nprocs: int, searches: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(scale), str(nprocs), str(searches)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def quartiles(values) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"{q2:.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="src directory of the base side")
    parser.add_argument("--cand", required=True, help="src directory of the candidate side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scale", type=int, default=18)
    parser.add_argument("--nprocs", type=int, default=16)
    parser.add_argument("--searches", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.searches < 1:
        parser.error("--pairs and --searches must be >= 1")

    runs = {"base": [], "cand": []}
    for i in range(args.pairs):
        order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
        for side in order:
            src = args.base if side == "base" else args.cand
            runs[side].append(measure(src, args.scale, args.nprocs, args.searches))
        base, cand = runs["base"][-1], runs["cand"][-1]
        print(f"pair {i + 1}: base {base['wall']:.3f} s  cand {cand['wall']:.3f} s", flush=True)

    wins = sum(c["wall"] < b["wall"] for b, c in zip(runs["base"], runs["cand"]))
    print(f"\nvalidated Session.bfs, scale {args.scale}, 1d x{args.nprocs}, "
          f"median [q1, q3] of {args.pairs} runs, seconds")
    for side, results in runs.items():
        print(f"  {side}: wall {quartiles([r['wall'] for r in results])}  "
              f"validate {quartiles([r['validate'] for r in results])}  "
              f"oracle {quartiles([r['oracle'] for r in results])}")
    print(f"  candidate lower in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Capture golden run-report fixtures for the engine parity tests.

Runs each distributed BFS family once with every cross-cutting concern
enabled — wire codec, sender-side sieve, per-level trace profile and
span tracer — and again on the default ``raw`` wire (the ``*-raw``
fixtures), and freezes the observable outputs as JSON:

* ``parents`` / ``levels`` in the caller's labels,
* the machine-readable run report (config, modeled times, GTEPS,
  ``stats.summary()`` comm volumes, span-derived phase/level/critical
  sections),
* the merged per-level trace profile,
* the full Chrome ``trace_event`` span tree of every rank.

``tests/test_golden_parity.py`` asserts that :mod:`repro.core.engine`
reproduces the fixtures committed under ``tests/golden/``
bit-identically.  Their parents, levels, modeled times, comm volumes
and spans are those of the hand-rolled per-algorithm level loops the
engine replaced.  Regenerate (only when an intentional behavior change
is being locked in) with::

    PYTHONPATH=src python tests/golden/capture.py [fixture ...]

Passing fixture names regenerates only those fixtures, so locking in a
new algorithm (or an intentional change to one family) never rewrites
the unrelated files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.comm import DeltaVarintCodec
from repro.core import run_bfs
from repro.core.runner import ALGORITHMS
from repro.graphs import rmat_graph, webcrawl_graph
from repro.obs import Tracer, chrome_trace, run_report
from repro.query import run_query

GOLDEN_DIR = Path(__file__).resolve().parent

#: Graph + run configuration of every fixture (kwargs to ``run_bfs``).
CONFIGS: dict[str, dict] = {
    algorithm: dict(
        algorithm=algorithm,
        nprocs=4,
        machine="hopper",
        codec=DeltaVarintCodec(),
        sieve=True,
        trace=True,
        validate=True,
    )
    for algorithm in ("1d", "1d-dirop", "2d", "2d-dirop")
}

#: The batched query families ride the same harness — everything on at
#: once except the vertex sieve (structurally refused for run-shipping
#: kinds, so the key is absent rather than False; their lane sieve is
#: part of the prune, on by default).
CONFIGS["msbfs-1d"] = dict(
    algorithm="msbfs-1d",
    nprocs=4,
    machine="hopper",
    codec=DeltaVarintCodec(),
    trace=True,
    validate=True,
)

GRAPH = dict(scale=9, edgefactor=8, seed=5)
SOURCE_SEED = 3
QUERY_BATCH = 8

#: The many-levels / small-frontiers input (the paper's uk-union regime)
#: the ``auto`` fixtures run on: a chain of hosts, ~2 levels per host.
CRAWL = dict(n=512, n_hosts=16, seed=5)

#: Fixture name -> (graph spec, run kwargs).  One per family on the
#: R-MAT graph, plus ``auto`` + sieve on the crawl for both partitions:
#: the per-segment codec choice (tag and wire words of every level) is
#: otherwise pinned only between the numpy kernels and their python
#: reference, not against a file.
FIXTURES: dict[str, tuple[dict, dict]] = {
    algorithm: (GRAPH, config) for algorithm, config in CONFIGS.items()
}
for _algorithm in ("1d", "2d"):
    FIXTURES[f"{_algorithm}-auto-crawl"] = (
        CRAWL,
        dict(CONFIGS[_algorithm], codec="auto"),
    )

#: The default wire: the ``raw`` codec with the vertex sieve off, on the
#: R-MAT graph (``2d``'s raw wire is pinned by ``benchmarks/BENCH_*.json``).
#: ``msbfs-1d-raw`` ships some source runs as their destination range's
#: bitmap.
for _algorithm in ("1d", "1d-dirop", "2d-dirop", "msbfs-1d"):
    _config = dict(CONFIGS[_algorithm], codec="raw")
    if "sieve" in _config:
        _config["sieve"] = False
    FIXTURES[f"{_algorithm}-raw"] = (GRAPH, _config)


def capture(name: str) -> dict:
    """Run one fixture configuration and freeze its observables.

    Dispatches on the registry kind: single-source BFS families run
    through ``run_bfs`` and freeze flat ``parents``/``levels`` lists;
    query families run through ``run_query`` with a deterministic source
    batch and freeze the 2-D lane arrays (``source`` holds the batch).
    """
    graph_spec, config = FIXTURES[name]
    graph = (
        rmat_graph(**graph_spec) if "scale" in graph_spec else webcrawl_graph(**graph_spec)
    )
    tracer = Tracer()
    config = dict(config)
    algorithm = config.pop("algorithm")
    if ALGORITHMS[algorithm].kind == "bfs":
        source = int(graph.random_nonisolated_vertices(1, seed=SOURCE_SEED)[0])
        result = run_bfs(graph, source, algorithm, tracer=tracer, **config)
    else:
        source = [
            int(s)
            for s in graph.random_nonisolated_vertices(
                QUERY_BATCH, seed=SOURCE_SEED
            )
        ]
        result = run_query(
            graph,
            sources=source,
            algorithm=algorithm,
            tracer=tracer,
            **config,
        )
    return {
        "graph": dict(graph_spec),
        "source": source,
        "config": {"algorithm": algorithm, **config, "codec": result.meta["codec"]},
        "parents": result.parents.tolist(),
        "levels": result.levels.tolist(),
        "report": run_report(result),
        "level_profile": result.meta["level_profile"],
        "trace_events": chrome_trace(tracer)["traceEvents"],
    }


def main(argv: list[str] | None = None) -> None:
    names = argv if argv is not None else sys.argv[1:]
    names = list(names) if names else sorted(FIXTURES)
    unknown = sorted(set(names) - set(FIXTURES))
    if unknown:
        raise SystemExit(
            f"unknown fixtures {unknown}; known: {sorted(FIXTURES)}"
        )
    for name in names:
        fixture = capture(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(fixture, indent=1, allow_nan=False, sort_keys=True) + "\n"
        )
        profile = fixture["level_profile"]
        directions = {
            entry["direction"] for entry in profile if "direction" in entry
        }
        print(
            f"wrote {path.name}: nlevels={fixture['report']['graph']['nlevels']} "
            f"spans={len(fixture['trace_events'])}"
            + (f" directions={sorted(directions)}" if directions else "")
        )


if __name__ == "__main__":
    main()

"""One workload, measured inside a fresh subprocess.

``run.py`` starts this file once per workload (and once more for the
traced run) with the library's environment switches removed, so every
number is taken in a process that has run nothing else.  The last line
of standard output is the result as one JSON object; diagnostics go to
standard error.

The program under test sees only generated inputs — a graph, search keys
and a ``RunConfig`` — never a workload name.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import probes  # noqa: E402
import stats  # noqa: E402
from repro.core.runner import RunConfig, run  # noqa: E402
from repro.core.serial import bfs_serial  # noqa: E402
from repro.core.validate import ValidationError, validate_bfs  # noqa: E402
from repro.graph500 import sample_search_keys  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402
from repro.graphs.rmat import rmat_edges  # noqa: E402
from repro.graphs.webcrawl import webcrawl_edges  # noqa: E402
from repro.obs import MetricsRegistry, Tracer  # noqa: E402
from repro.query import run_query  # noqa: E402
from repro.query.serial import msbfs_serial  # noqa: E402
from spans import NullRecorder, SpanRecorder, chrome_trace, duration  # noqa: E402
from workloads import (  # noqa: E402
    EDGEFACTOR,
    MACHINE,
    PER_LAYER,
    WORKLOADS,
    Workload,
    applies,
)

#: ``setup_s`` is the median of at least MIN_SETUPS set-ups; cheap ones
#: repeat until SETUP_SECONDS are spent or MAX_SETUPS are done.
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_SECONDS = 10.0
#: Scale of the R-MAT graph behind ``runner.fixed_s`` and the import warm-up.
FIXED_SCALE = 8
#: Repetitions of each per-layer probe (one in ``--quick``); median reported.
PROBE_REPS = 3
#: Rounds of (allreduce + alltoallv) per runtime probe, full and ``--quick``.
COLLECTIVE_ROUNDS = 200
QUICK_ROUNDS = 20


# -- inputs ---------------------------------------------------------------------


def set_up(spec: Workload, seed: int, rec):
    """Generate the edges, construct the graph and draw the search keys.

    Everything random comes from ``seed``.  Returns ``(graph, keys)``
    with ``keys`` shaped ``(spec.keys, spec.batch)``.
    """
    n = 1 << spec.scale
    with rec.span("setup", seed=seed):
        with rec.span("graphs.generate"):
            if spec.graph == "rmat":
                src, dst = rmat_edges(spec.scale, EDGEFACTOR, seed=seed)
            else:
                src, dst = webcrawl_edges(
                    n, n_hosts=spec.n_hosts, host_reach=1, seed=seed
                )
        with rec.span("graphs.construct"):
            graph = Graph.from_edges(n, src, dst, seed=seed, name=f"{spec.graph}-s{spec.scale}")
        with rec.span("graphs.keys"):
            keys = search_keys(spec, graph, seed)
    return graph, keys


def search_keys(spec: Workload, graph: Graph, seed: int) -> np.ndarray:
    """Distinct search keys inside the graph's main component.

    R-MAT keys are Graph 500's (``sample_search_keys``); the crawl's are
    the first vertices of host 0, so every search walks the whole chain.
    Keys outside the component of the highest-degree vertex are skipped:
    a search confined to a two-vertex component traverses almost nothing
    and would own the harmonic mean.
    """
    need = spec.keys * spec.batch
    if spec.graph == "crawl":
        candidates = np.arange((1 << spec.scale) // spec.n_hosts, dtype=np.int64)
    else:
        candidates = sample_search_keys(graph, 2 * need, seed=seed)
    hub = int(np.argmax(graph.degrees()))
    levels, _parents = bfs_serial(graph.csr, hub)
    inside = levels[np.asarray(graph.to_internal(candidates))] >= 0
    keys = candidates[inside][:need]
    if keys.size < need:
        raise ValueError(
            f"only {keys.size} of {need} search keys lie in the main component"
        )
    return keys.reshape(spec.keys, spec.batch)


def make_config(spec: Workload) -> RunConfig:
    return RunConfig(
        algorithm=spec.algorithm,
        nprocs=spec.nprocs,
        machine=MACHINE,
        codec=spec.codec,
        sieve=spec.sieve,
    )


def fixed_inputs(spec: Workload):
    """The scale-8 graph and key row behind ``runner.fixed_s``."""
    tiny = replace(spec, graph="rmat", scale=FIXED_SCALE, keys=1)
    graph, keys = set_up(tiny, 0, NullRecorder())
    return graph, keys[0]


# -- one search -------------------------------------------------------------------


def search(spec: Workload, graph: Graph, key_row: np.ndarray, config: RunConfig):
    """The operation under test: one ``run()`` or one ``run_query()`` batch."""
    if spec.batch == 1:
        return run(graph, int(key_row[0]), config)
    return run_query(graph, key_row, config=config)


def digest(levels: np.ndarray, parents: np.ndarray) -> str:
    """Fingerprint of a search's output arrays (no copy of either)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(levels).data)
    h.update(np.ascontiguousarray(parents).data)
    return h.hexdigest()


def one_search(
    spec, graph, keys, k: int, config, rec, kind: str = "search", corrupt: bool = False
):
    """Time search ``k``; returns ``(sample, result)``.

    The sample keeps the wall seconds, the modeled numbers and the
    output's digest.  The collection and the digest are outside the
    timed region.  An exception is a failed operation, recorded with the
    time it took (``result`` is then ``None``).  ``corrupt`` damages the
    output before its digest is taken (the ``--corrupt`` self-test).
    """
    gc.collect()
    sample = {"key": k, "kind": kind, "error": None}
    with rec.span(kind, search=k):
        with rec.span("runner.run"):
            t0 = time.perf_counter()
            try:
                result = search(spec, graph, keys[k], config)
            except Exception as exc:  # noqa: BLE001 - counted, reported, never hidden
                sample["error"] = f"{type(exc).__name__}: {exc}"
                result = None
            sample["wall"] = time.perf_counter() - t0
    if result is not None:
        if corrupt:
            # A reached non-source vertex becomes its own parent: no tree edge.
            victim = tuple(np.argwhere(result.levels > 0)[0])
            result.parents[victim] = victim[0]
        sample.update(
            time_total=result.time_total,
            time_comm=result.time_comm,
            m_traversed=int(result.m_traversed),
            nlevels=int(result.nlevels),
            digest=digest(result.levels, result.parents),
        )
    return sample, result


# -- correctness ------------------------------------------------------------------


def oracle(spec: Workload, graph: Graph, key_row: np.ndarray, rec):
    """Serial reference for one search: ``(digest, defect, levels)``.

    A single-source oracle is ``bfs_serial`` whose tree must pass
    ``validate_bfs``; a batch's is ``msbfs_serial`` (one ``bfs_serial``
    per lane), with lane 0's tree validated the same way.  A timed search
    is correct when its digest equals a sound oracle's: equal levels, and
    a tree identical to one that passed validation.
    """
    sources = np.asarray(graph.to_internal(key_row), dtype=np.int64)
    if spec.batch == 1:
        with rec.span("serial.bfs"):
            levels, parents = bfs_serial(graph.csr, int(sources[0]))
        lane_levels, lane_parents = levels, parents
    else:
        with rec.span("serial.msbfs"):
            levels, parents = msbfs_serial(graph.csr, sources)
        lane_levels, lane_parents = levels[:, 0], parents[:, 0]
    defect = None
    with rec.span("validate.validate_bfs"):
        try:
            validate_bfs(
                graph.csr, int(sources[0]), lane_levels, lane_parents,
                reference_levels=lane_levels,
            )
        except ValidationError as exc:
            defect = f"oracle tree rejected by validate_bfs: {exc}"
    expected = digest(
        graph.relabel_level_array(levels), graph.relabel_vertex_array(parents)
    )
    return expected, defect, levels


def check(spec, graph, keys, samples: list[dict], rec):
    """Check every sample after timing.

    Returns ``(failures, levels)``: one entry per failed operation — a
    search that raised, one whose output differs from the oracle's, or
    one whose modeled numbers differ from another search of the same
    key — and the oracle's levels of key 0, which the traced run replays.
    """
    failures = []
    oracles = {}
    first_levels = None
    for k in sorted({s["key"] for s in samples}):
        with rec.span("check", search=k):
            expected, defect, levels = oracle(spec, graph, keys[k], rec)
        oracles[k] = (expected, defect)
        if first_levels is None:
            first_levels = levels
    first: dict[int, dict] = {}
    for i, s in enumerate(samples):
        where = f"{s['kind']} {i} (key {s['key']})"
        expected, defect = oracles[s["key"]]
        if s["error"] is not None:
            failures.append(f"{where}: raised {s['error']}")
        elif defect is not None:
            failures.append(f"{where}: {defect}")
        elif s["digest"] != expected:
            failures.append(f"{where}: levels/parents differ from the serial oracle")
        elif any(
            s[f] != first.setdefault(s["key"], s)[f]
            for f in ("time_total", "time_comm", "m_traversed", "nlevels")
        ):
            failures.append(f"{where}: modeled clock did not repeat for the same key")
    return failures, first_levels


# -- the untraced run: end-to-end metrics -----------------------------------------


def modeled_metrics(samples: list[dict]) -> dict:
    """The two simulated-clock metrics over the first search of each key."""
    first = {}
    for s in samples:
        if s["error"] is None:
            first.setdefault(s["key"], s)
    per_key = [first[k] for k in sorted(first)]
    return {
        "modeled_gteps": stats.harmonic_mean(
            s["m_traversed"] / s["time_total"] / 1e9 for s in per_key
        ),
        "modeled_comm_s": statistics.fmean(s["time_comm"] for s in per_key),
    }


def untraced_run(spec: Workload, seed: int, seconds: float, corrupt: bool) -> dict:
    rec = NullRecorder()
    setups = []
    graph = keys = None
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and sum(setups) < SETUP_SECONDS
    ):
        del graph, keys  # fresh objects: the previous set-up is gone first
        gc.collect()
        t0 = time.perf_counter()
        graph, keys = set_up(spec, seed, rec)
        setups.append(time.perf_counter() - t0)
    config = make_config(spec)

    # Lazy imports and first-call paths finish on a tiny graph; the
    # sub-second workloads also warm up on their own input.
    tiny_graph, tiny_row = fixed_inputs(spec)
    search(spec, tiny_graph, tiny_row, config)
    for k in range(spec.warmups):
        search(spec, graph, keys[k % spec.keys], config)

    samples = []
    started = time.perf_counter()
    while len(samples) < spec.min_samples or time.perf_counter() - started < seconds:
        sample, _result = one_search(
            spec, graph, keys, len(samples) % spec.keys, config, rec,
            corrupt=corrupt and not samples,
        )
        samples.append(sample)
    measured = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, _levels = check(spec, graph, keys, samples, rec)

    walls = stats.summary(s["wall"] for s in samples)
    metrics = {
        "setup_s": stats.summary(setups),
        # The fastest of all timed searches: the host's slow spells last
        # 10-20 s, whole rounds of keys, and only ever add time.  The
        # median, quartiles, count and tail are recorded beside it.
        "search_wall_s": {**walls, "value": walls["min"]},
        "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
    }
    if any(s["error"] is None for s in samples):
        metrics.update(
            (name, {"value": value, "n": spec.keys})
            for name, value in modeled_metrics(samples).items()
        )
    return {
        "workload": spec.name,
        "seed": seed,
        "traced": False,
        "measured_s": measured,
        "ops_attempted": len(samples),
        "ops_failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "samples": [
            {k: v for k, v in s.items() if k != "digest"} for s in samples
        ],
    }


# -- the traced run: per-layer metrics ----------------------------------------------


def traced_searches(spec, graph, keys, config, rec) -> dict:
    """Search a quarter of the keys three ways each: untraced, under
    spans, and with ``repro.obs`` attached.

    The three searches of a key run back to back and the order rotates
    from key to key, so no variant always inherits warm caches or always
    meets the host's slow minute.
    """
    null = NullRecorder()
    found = {"untraced": [], "search": [], "attached": [], "span_counts": [], "stats": None}

    def untraced(k):
        found["untraced"].append(one_search(spec, graph, keys, k, config, null, "untraced")[0])

    def traced(k):
        sample, result = one_search(spec, graph, keys, k, config, rec)
        found["search"].append(sample)
        if found["stats"] is None and result is not None:
            found["stats"] = result.stats

    def attached(k):
        watched = replace(config, tracer=Tracer(), metrics=MetricsRegistry())
        with rec.span("probe.obs"):
            sample, _result = one_search(spec, graph, keys, k, watched, rec, "attached")
        found["attached"].append(sample)
        found["span_counts"].append(len(watched.tracer.all_spans()))

    variants = [untraced, traced, attached]
    for k in range(max(1, spec.keys // 4)):
        for variant in variants[k % 3:] + variants[: k % 3]:
            variant(k)
    return found


def search_metrics(spec, graph, rec, found: dict) -> dict:
    """The per-layer metrics that come from the searches and their checks."""
    traced = found["search"]
    ok = [s for s in traced if s["error"] is None]
    sim = found["stats"]
    if not ok or sim is None:
        raise RuntimeError("no traced search succeeded")

    def wall(group):
        return statistics.median(s["wall"] for s in group)

    def span_seconds(name):
        return statistics.median(duration(s) for s in rec.spans if s["name"] == name)

    search_s = wall(traced)
    nlevels = statistics.median(s["nlevels"] for s in ok)
    time_total = statistics.median(s["time_total"] for s in ok)
    # Serial seconds per source: one bfs_serial, or a batch's oracle
    # divided by its lanes.
    serial_s = span_seconds("serial.bfs" if spec.batch == 1 else "serial.msbfs") / spec.batch
    kinds = set().union(*(rank.calls for rank in sim.comm))
    layer = {
        "graphs.generate_s": span_seconds("graphs.generate"),
        "graphs.construct_s": span_seconds("graphs.construct"),
        "graphs.edges": graph.m_input,
        "runner.search_s": search_s,
        "runner.search_tail_s": stats.tail([s["wall"] for s in traced])[1],
        "runner.trace_overhead_ratio": search_s / wall(found["untraced"]),
        "runner.level_s": search_s / nlevels,
        "runner.host_mteps": statistics.median(s["m_traversed"] for s in ok) / search_s / 1e6,
        "runner.slowdown_vs_serial": search_s / (serial_s * spec.batch),
        "serial.search_s": serial_s,
        "validate.wall_s": span_seconds("validate.validate_bfs"),
        "obs.attached_overhead_ratio": wall(found["attached"]) / wall(found["untraced"]),
        "obs.spans_per_search": statistics.median(found["span_counts"]),
        "model.time_total_s": time_total,
        "model.comm_fraction": statistics.median(s["time_comm"] / s["time_total"] for s in ok),
        "comm.wire_words": sim.wire_words(),
        "comm.payload_words": sim.payload_words(),
        "comm.compression_ratio": sim.compression_ratio(),
        "mpsim.collectives_per_search": sum(sim.calls(kind) for kind in kinds),
        "mpsim.levels": nlevels,
    }
    if spec.sieve:
        layer["comm.sieve_dropped"] = sim.sieve_dropped
    if spec.batch > 1:
        layer["query.queries_per_s_host"] = spec.batch / search_s
        layer["query.modeled_queries_per_s"] = spec.batch / time_total
    return layer


def probe_metrics(spec, graph, levels_int, search_s, fixed_search, rec, quick: bool):
    """The per-layer metrics that come from probing each layer directly.

    ``levels_int`` is the first key's oracle, which the replayed levels
    are cut from.  Returns ``(metrics, informational names)``.
    """
    reps = 1 if quick else PROBE_REPS
    rounds = QUICK_ROUNDS if quick else COLLECTIVE_ROUNDS
    layer = {}
    with rec.span("probe.runner"):
        layer["runner.fixed_s"], _ = probes.timed(rec, "runner.fixed", fixed_search, reps)
    layer["runner.traverse_s"] = search_s
    decomp = blocks = None
    if spec.family == "2d":
        with rec.span("probe.partition"):
            found, decomp, blocks = probes.probe_partition(rec, spec, graph.csr, reps)
        layer.update(found)
        layer["partition.share"] = layer["partition.build_2d_s"] / search_s
        layer["runner.traverse_s"] = search_s - layer["partition.build_2d_s"]

    wide, narrow = probes.pick_levels(graph.csr, levels_int)

    def replay(index):
        if spec.family == "2d":
            return probes.replay_2d(graph.csr, levels_int, index, decomp, blocks)
        return probes.replay_1d(spec, graph.csr, levels_int, index)

    with rec.span("probe.replay", wide=wide, narrow=narrow):
        wide_level, narrow_level = replay(wide), replay(narrow)
    with rec.span("probe.kernels"):
        layer.update(probes.probe_kernels(rec, spec, graph.csr, wide_level, reps))
    if spec.family == "2d":
        with rec.span("probe.sparse"):
            layer.update(probes.probe_sparse(rec, wide_level, blocks, reps))
    with rec.span("probe.comm"):
        layer.update(probes.probe_codec(rec, spec, wide_level, "wide", reps))
        layer.update(probes.probe_codec(rec, spec, narrow_level, "narrow", reps))
    with rec.span("probe.runtime"):
        found, informational = probes.probe_runtime(rec, spec.nprocs, reps, rounds)
    layer.update(found)
    return layer, informational


def traced_run(spec: Workload, seed: int, out_dir: Path, quick: bool) -> dict:
    rec = SpanRecorder()
    with rec.span("workload", workload=spec.name, seed=seed):
        graph, keys = set_up(spec, seed, rec)
        config = make_config(spec)
        tiny_graph, tiny_row = fixed_inputs(spec)

        def fixed_search():
            return search(spec, tiny_graph, tiny_row, config)

        fixed_search()
        for k in range(spec.warmups):
            search(spec, graph, keys[k % spec.keys], config)

        found = traced_searches(spec, graph, keys, config, rec)
        # check() also holds the traced and attached searches' modeled
        # numbers to the untraced search of the same key, bit for bit.
        samples = found["untraced"] + found["search"] + found["attached"]
        failures, levels_int = check(spec, graph, keys, samples, rec)
        layer = search_metrics(spec, graph, rec, found)
        probed, informational = probe_metrics(
            spec, graph, levels_int, layer["runner.search_s"], fixed_search, rec, quick,
        )
        layer.update(probed)

    expected = {m.name for m in PER_LAYER if applies(m, spec)}
    if set(layer) != expected:
        raise RuntimeError(
            f"per-layer metrics out of step with workloads.PER_LAYER: "
            f"missing {sorted(expected - set(layer))}, extra {sorted(set(layer) - expected)}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{spec.name}.json"
    trace_path.write_text(json.dumps(chrome_trace(rec.spans, spec.name)))
    units = {m.name: m.unit for m in PER_LAYER}
    return {
        "workload": spec.name,
        "seed": seed,
        "traced": True,
        "ops_attempted": len(samples),
        "ops_failed": len(failures),
        "failures": failures,
        "per_layer": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in layer.items()
        },
        "informational": informational,
        "modeled_per_key": {
            s["key"]: {f: s[f] for f in ("time_total", "time_comm", "m_traversed")}
            for s in found["untraced"]
            if s["error"] is None
        },
        "trace_file": str(trace_path),
        "spans": rec.spans,
    }


# -- entry point ----------------------------------------------------------------------


def pin_to_one_cpu() -> int | None:
    """Restrict this process, and all it starts, to one of its CPUs.

    The default ``threads`` runtime runs one OS thread per simulated
    rank.  With two CPUs to spread over, those threads hand the
    interpreter lock from CPU to CPU, and a collective round costs 2 ms
    or 10-30 ms depending on where the scheduler happened to put them:
    host times of one commit then differ by 30 % from run to run.  On
    one CPU they differ by a few per cent, so that is what is measured:
    the host seconds the simulator's work takes on a single core.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    if args.quick:
        spec = spec.quick()
    pinned = pin_to_one_cpu()
    if args.traced:
        result = traced_run(spec, args.seed, args.out, args.quick)
    else:
        result = untraced_run(spec, args.seed, args.seconds, args.corrupt)
    result["numpy"] = np.__version__
    result["pinned_cpu"] = pinned
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

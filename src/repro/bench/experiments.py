"""Per-figure/table experiment definitions.

Each function regenerates one paper artifact and returns a
:class:`~repro.bench.report.Table` with the same rows/series the paper
reports.  Two kinds of experiments:

* **functional** (Figures 3, 4, 11; Table 2; Section 6 comparisons):
  run the real algorithms on the simulated MPI substrate at laptop-scale
  rank counts and downscaled graphs — volumes are exact, times come from
  the machine model;
* **projected** (Figures 5-10, Table 1): evaluate the calibrated
  closed-form Section 5 model at the paper's exact core counts and graph
  scales (scale-29..32 graphs cannot be materialized on a laptop, but the
  volume model was validated against functional runs — see
  ``tests/test_projection_calibration.py``).

Absolute numbers carry the machine-model calibration error; the *shape*
(orderings, crossovers, ratios) is the reproduction target and is checked
by ``tests/test_experiments.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.bench import harness
from repro.bench.report import Table
from repro.comm import DeltaVarintCodec, get_codec
from repro.core.runner import run_bfs
from repro.graphs.rmat import rmat_graph
from repro.graphs.webcrawl import webcrawl_graph
from repro.model.analytic import spmsv_merge_cost
from repro.model.machine import FRANKLIN, HOPPER
from repro.model.projection import RmatVolumeModel
from repro.sparse.dcsc import DCSC
from repro.sparse.spmsv import spmsv_heap, spmsv_spa

# ---------------------------------------------------------------------------
# Figure 3 — SPA vs heap local SpMSV
# ---------------------------------------------------------------------------


def fig3_spa_vs_heap(quick: bool = False) -> Table:
    """Figure 3: speedup of the SPA kernel over the heap kernel vs cores.

    The modeled column evaluates the Section 4.2 cost terms for a scale-33
    R-MAT on Hopper (the paper's setting); the measured column runs the
    *actual* kernels on a downscaled local block with the same hypersparse
    shape and reports real wall-clock.
    """
    model = RmatVolumeModel()
    scale, ef = 33, 16
    n, m = 1 << scale, 16 << scale
    table = Table(
        title="Figure 3: SPA over heap speedup for the local SpMSV (Hopper, scale 33)",
        headers=["cores", "modeled speedup", "measured speedup (downscaled)"],
    )
    core_counts = [2116, 5041, 10000, 20164, 40000]
    rng = np.random.default_rng(7)
    for cores in core_counts:
        vol = model.volumes_2d(n, m, cores)
        t_spa = spmsv_merge_cost(vol, HOPPER, "spa")
        t_heap = spmsv_merge_cost(vol, HOPPER, "heap")
        modeled = t_heap / t_spa

        # Downscaled measured kernel run: one block with the right shape.
        down = 14 if quick else 18
        side = math.isqrt(cores)
        nloc = max(64, (1 << down) // side)
        nnz_local = max(64, (16 << down) // cores)
        rows = rng.integers(0, nloc, nnz_local)
        cols = rng.integers(0, nloc, nnz_local)
        block = DCSC.from_coo(nloc, nloc, rows, cols)
        frontier = np.unique(rng.integers(0, nloc, max(8, nloc // 8)))
        values = frontier + 1
        reps = 3
        t0 = time.perf_counter()
        for _ in range(reps):
            spmsv_spa(block, frontier, values)
        spa_wall = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        for _ in range(reps):
            spmsv_heap(block, frontier, values)
        heap_wall = (time.perf_counter() - t0) / reps
        table.add_row(cores, modeled, heap_wall / max(spa_wall, 1e-12))
    table.notes.append(
        "paper: SPA wins below ~10K cores; 'after 10K processors the "
        "difference becomes marginal and heap becomes preferable'"
    )
    table.notes.append(
        "modeled speedup > 1 means SPA faster; the crossover to <= ~1 "
        "should fall near 10,000 cores"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 4 — 1D vs 2D vector distribution load balance
# ---------------------------------------------------------------------------


def fig4_vector_distribution(quick: bool = False) -> Table:
    """Figure 4: time in MPI with diagonal-only vs 2D vector distribution.

    Functional simulation on a 16x16 processor grid (the paper's 256
    ranks).  The paper's heat map isolates the *load-imbalance* effect —
    SpMSV iterations followed by a globally synchronizing Allreduce — so
    the machine variant here zeroes the per-message latency (which at
    laptop graph sizes would otherwise drown the imbalance signal) and
    keeps the bandwidth and memory models.
    """
    side = 8 if quick else 16
    scale = 13 if quick else 16
    machine = FRANKLIN.with_overrides(net_latency=1e-9)
    graph = rmat_graph(scale, 16, seed=3)
    source = harness.pick_sources(graph, 1)[0]
    table = Table(
        title=f"Figure 4: MPI time share on a {side}x{side} grid (R-MAT scale {scale}, Franklin model)",
        headers=[
            "vector distribution",
            "diag MPI% (norm)",
            "off-diag MPI% (norm)",
            "off-diag idle/transfer ratio",
        ],
    )
    for dist in ("1d", "2d"):
        res = run_bfs(
            graph,
            source,
            "2d",
            nprocs=side * side,
            machine=machine,
            vector_dist=dist,
        )
        stats = res.stats
        assert stats is not None
        diag = [i * side + i for i in range(side)]
        off = [r for r in range(side * side) if r not in diag]
        mpi = np.array(
            [100.0 * stats.mpi_fraction(r) for r in range(side * side)]
        )
        mpi_norm = 100.0 * mpi / mpi.max()
        wait = np.array([stats.clocks[r].mpi_wait_time for r in off])
        xfer = np.array([stats.clocks[r].mpi_transfer_time for r in off])
        table.add_row(
            "diagonal only (1D)" if dist == "1d" else "2D (all ranks)",
            float(mpi_norm[diag].mean()),
            float(mpi_norm[off].mean()),
            float(wait.sum() / max(xfer.sum(), 1e-15)),
        )
    table.notes.append(
        "paper: with diagonal-only vectors the off-diagonal ranks idle "
        "3-4x longer than they communicate; the 2D distribution shows "
        "almost no load imbalance"
    )
    return table


# ---------------------------------------------------------------------------
# Table 1 — communication decomposition of the flat 2D algorithm
# ---------------------------------------------------------------------------


def table1_comm_decomposition(quick: bool = False) -> Table:
    """Table 1: Allgatherv vs Alltoallv share of flat 2D BFS on Franklin."""
    table = Table(
        title="Table 1: flat 2D communication decomposition (Franklin, fixed edge count)",
        headers=[
            "cores",
            "scale",
            "edgefactor",
            "BFS time (s)",
            "Allgatherv %",
            "Alltoallv %",
        ],
    )
    for cores in (1024, 2025, 4096):
        for scale, ef in ((27, 64), (29, 16), (31, 4)):
            costs = harness.projected_costs("2d", scale, ef, cores, FRANKLIN)
            table.add_row(
                cores,
                scale,
                ef,
                costs.total,
                100.0 * costs.ag / costs.total,
                100.0 * costs.a2a / costs.total,
            )
    table.notes.append(
        "paper (1024 cores): 2.67s/7.0%/6.8% at scale 27 -> 7.18s/16.6%/9.1% "
        "at scale 31; Allgatherv share grows with sparsity and cores while "
        "Alltoallv stays roughly flat"
    )
    return table


# ---------------------------------------------------------------------------
# Figures 5-8 — strong scaling (performance and communication time)
# ---------------------------------------------------------------------------

def _series(machine) -> tuple:
    """The four series of Figures 5-10 as ``(label, algorithm, threads)``:
    flat MPI and the paper's hybrid (its threads per rank on ``machine``)
    of the 1D and 2D algorithms."""
    threads = harness.paper_threads(machine)
    return (
        ("1d", "1d", 1),
        ("1d-hybrid", "1d", threads),
        ("2d", "2d", 1),
        ("2d-hybrid", "2d", threads),
    )


def _strong_scaling(
    machine, panels: list[tuple[int, int, list[int]]], metric: str, title: str
) -> Table:
    series = _series(machine)
    headers = ["scale", "edgefactor", "cores"] + [
        {"gteps": label, "comm": f"{label} comm(s)"}[metric] for label, _, _ in series
    ]
    table = Table(title=title, headers=headers)
    for scale, ef, cores_list in panels:
        for cores in cores_list:
            row: list = [scale, ef, cores]
            for _, algo, threads in series:
                if metric == "gteps":
                    row.append(
                        harness.projected_gteps(
                            algo, scale, ef, cores, machine, threads=threads
                        )
                    )
                else:
                    row.append(
                        harness.projected_costs(
                            algo, scale, ef, cores, machine, threads=threads
                        ).comm
                    )
            table.add_row(*row)
    return table


def fig5_franklin_strong(quick: bool = False) -> Table:
    table = _strong_scaling(
        FRANKLIN,
        [
            (29, 16, [512, 1024, 2048, 4096]),
            (32, 16, [4096, 6400, 8192]),
        ],
        "gteps",
        "Figure 5: strong scaling on Franklin (GTEPS, higher is better)",
    )
    table.notes.append(
        "paper: flat 1D 1.5-1.8x faster than 2D on Franklin; 1D-hybrid "
        "overtakes flat 1D at the largest concurrencies"
    )
    return table


def fig6_franklin_comm(quick: bool = False) -> Table:
    table = _strong_scaling(
        FRANKLIN,
        [
            (29, 16, [512, 1024, 2048, 4096]),
            (32, 16, [4096, 6400, 8192]),
        ],
        "comm",
        "Figure 6: MPI communication time on Franklin (seconds, lower is better)",
    )
    table.notes.append(
        "paper: 2D algorithms consistently spend 30-60% less time in "
        "communication than their 1D counterparts"
    )
    return table


def fig7_hopper_strong(quick: bool = False) -> Table:
    table = _strong_scaling(
        HOPPER,
        [
            (30, 16, [1224, 2500, 5040, 10008]),
            (32, 16, [5040, 10008, 20000, 40000]),
        ],
        "gteps",
        "Figure 7: strong scaling on Hopper (GTEPS, higher is better)",
    )
    table.notes.append(
        "paper: on Hopper the 2D algorithms beat their 1D counterparts; "
        "2D-hybrid reaches 17.8 GTEPS at 40,000 cores (scale 32)"
    )
    return table


def fig8_hopper_comm(quick: bool = False) -> Table:
    table = _strong_scaling(
        HOPPER,
        [
            (30, 16, [1224, 2500, 5040, 10008]),
            (32, 16, [5040, 10008, 20000, 40000]),
        ],
        "comm",
        "Figure 8: MPI communication time on Hopper (seconds, lower is better)",
    )
    # Comm fraction notes (the paper's flat-1D-at-20K observation).
    c1 = harness.projected_costs("1d", 32, 16, 20000, HOPPER)
    c2h = harness.projected_costs(
        "2d", 32, 16, 20000, HOPPER, threads=harness.paper_threads(HOPPER)
    )
    table.notes.append(
        f"measured comm fraction at 20,000 cores: flat 1D "
        f"{100 * c1.comm / c1.total:.0f}% (paper: >90%), 2D hybrid "
        f"{100 * c2h.comm / c2h.total:.0f}% (paper: <50%)"
    )
    table.notes.append(
        "the paper did not run flat 1D at 40K cores because communication "
        "already consumed >90% of execution at 20K"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 9 — weak scaling on Franklin
# ---------------------------------------------------------------------------


def fig9_weak_scaling(quick: bool = False) -> Table:
    """Figure 9: weak scaling at ~17M edges per core on Franklin."""
    edges_per_core = 17_000_000
    series = _series(FRANKLIN)
    table = Table(
        title="Figure 9: weak scaling on Franklin (~17M edges/core)",
        headers=["cores", "scale(approx)"]
        + [f"{label} time(s)" for label, _, _ in series]
        + [f"{label} comm(s)" for label, _, _ in series],
    )
    for cores in (512, 1024, 2048, 4096):
        m = cores * edges_per_core
        n = m // 16
        scale = math.log2(n)
        times, comms = [], []
        for _, algo, threads in series:
            costs = harness._projected_costs(algo, n, m, cores, FRANKLIN, threads=threads)
            times.append(costs.total)
            comms.append(costs.comm)
        table.add_row(cores, round(scale, 1), *times, *comms)
    table.notes.append(
        "paper: in the weak-scaling regime flat 1D beats hybrid 1D both "
        "overall and in communication; 2D communicates least but loses "
        "overall on Franklin due to higher computation"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 10 — sensitivity to graph density
# ---------------------------------------------------------------------------


def fig10_density(quick: bool = False) -> Table:
    series = _series(FRANKLIN)
    table = Table(
        title="Figure 10: GTEPS vs average degree (Franklin, fixed edges/core)",
        headers=["cores", "scale", "degree"] + [label for label, _, _ in series],
    )
    for cores in (1024, 4096):
        for scale, degree in ((31, 4), (29, 16), (27, 64)):
            row: list = [cores, scale, degree]
            for _, algo, threads in series:
                row.append(
                    harness.projected_gteps(
                        algo, scale, degree, cores, FRANKLIN, threads=threads
                    )
                )
            table.add_row(*row)
    table.notes.append(
        "paper: the 1D advantage grows as the graph sparsifies; flat 2D "
        "beats flat 1D for the first time at degree 64"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 11 — high-diameter web crawl (uk-union stand-in)
# ---------------------------------------------------------------------------


def fig11_ukunion(quick: bool = False) -> Table:
    """Figure 11: 2D flat vs hybrid on the high-diameter crawl.

    Functional simulation on the synthetic uk-union stand-in (~140 BFS
    iterations).  Rank counts are laptop-scale; the modeled-cores column
    maps each run onto the Hopper model's accounting.
    """
    n = 30_000 if quick else 100_000
    hosts = 60 if quick else 138
    # The graph is ~1000x smaller than uk-union, so per-level volumes are
    # ~1000x smaller too; scale the per-message latency and the network
    # bandwidth so the machine serves the downscaled problem the way the
    # full-size Hopper serves uk-union (otherwise fixed-size effects of
    # the tiny per-level frontiers distort the compute/comm balance).
    machine = HOPPER.with_overrides(
        net_latency=HOPPER.net_latency / 1000.0,
        nic_words_per_sec=HOPPER.nic_words_per_sec * 50.0,
    )
    graph = webcrawl_graph(n, n_hosts=hosts, host_reach=1, seed=5)
    # Traverse from the crawl seed (host 0) so the BFS walks the whole
    # host chain — that is what gives uk-union its ~140 iterations.
    sources = [0]
    table = Table(
        title="Figure 11: synthetic uk-union crawl, 2D flat vs hybrid (Hopper model)",
        headers=[
            "algorithm",
            "ranks",
            "modeled cores",
            "mean time (s)",
            "computation (s)",
            "communication (s)",
            "comm %",
            "iterations",
        ],
    )
    # Matched *core* budgets, the paper's axis: the hybrid runs 6 threads
    # per rank, so it gets ~6x fewer ranks at the same core count.
    flat_ranks = [16, 49] if quick else [25, 49, 100]
    hybrid_ranks = [4, 9] if quick else [4, 9, 16]
    for label, threads, rank_list in (
        ("2d", 1, flat_ranks),
        ("2d-hybrid", 6, hybrid_ranks),
    ):
        for ranks in rank_list:
            run = harness.average_bfs(
                graph, "2d", ranks, machine, sources=sources, threads=threads
            )
            # Communication here is data movement (transfer); the paper's
            # bars split "Computa./Communi." the same way.  Wait time at
            # this downscale is dominated by the tiny per-rank work's
            # relative jitter, which vanishes at full problem size.
            comp = run.time_comp
            comm = float(
                np.mean(
                    [
                        max(c.mpi_transfer_time for c in r.stats.clocks)
                        for r in run.results
                    ]
                )
            )
            table.add_row(
                label,
                run.nranks,
                run.nranks * run.threads,
                comp + comm,
                comp,
                comm,
                100.0 * comm / (comp + comm),
                run.nlevels,
            )
    table.notes.append(
        "paper: ~140 iterations; communication is a small fraction of the "
        "total even at 4K cores, so the hybrid is slower than flat MPI "
        "(intra-node overheads with no comm to save); ~4x speedup from "
        "500 to 4000 cores"
    )
    return table


# ---------------------------------------------------------------------------
# Table 2 — PBGL comparison
# ---------------------------------------------------------------------------


def table2_pbgl(quick: bool = False) -> Table:
    """Table 2: flat 2D vs PBGL-style BFS (Carver model), MTEPS.

    Graphs are downscaled (scale 15/17 instead of 22/24) so the functional
    simulation stays laptop-sized; the comparison ratio is the target.
    Quick mode keeps the 64-core rows only — the 121-rank half is
    two thirds of the run and carries the same ratio.
    """
    scales = (13, 15) if quick else (15, 17)
    core_counts = (64,) if quick else (64, 121)
    table = Table(
        title="Table 2: PBGL-style baseline vs flat 2D on Carver (MTEPS)",
        headers=["cores", "code"] + [f"scale {s}" for s in scales],
    )
    graphs = {s: rmat_graph(s, 16, seed=21 + s) for s in scales}
    sources = {s: harness.pick_sources(graphs[s], 2, seed=3) for s in scales}
    for cores in core_counts:
        for code, algo in (("PBGL(-like)", "pbgl"), ("Flat 2D", "2d")):
            row: list = [cores, code]
            for s in scales:
                run = harness.average_bfs(
                    graphs[s], algo, cores, "carver", sources=sources[s]
                )
                row.append(run.mteps)
            table.add_row(*row)
    table.notes.append(
        "paper (scale 22/24 at 128/256 cores): PBGL 22-39 MTEPS vs flat 2D "
        "267-604 MTEPS, i.e. 10-16x; the ratio is the reproduction target"
    )
    return table


# ---------------------------------------------------------------------------
# Section 6 text comparisons
# ---------------------------------------------------------------------------


def sec6_reference_mpi(quick: bool = False) -> Table:
    """Flat 1D vs the Graph 500 reference-style code (Franklin model).

    Functional rows run both codes on the simulator; projected rows apply
    the same cost arithmetic at the paper's scale (scale-29 graph,
    512-2048 cores), where the reference code's per-level visited-bitmap
    allreduce — whose ``n/64``-word volume does not shrink with ``p`` —
    and its duplicate traffic dominate.
    """
    scale = 13 if quick else 16
    graph = rmat_graph(scale, 16, seed=9)
    sources = harness.pick_sources(graph, 2, seed=4)
    table = Table(
        title="Section 6: tuned flat 1D vs Graph500 reference-style code (Franklin)",
        headers=["setting", "cores", "tuned GTEPS", "reference GTEPS", "speedup"],
    )
    for ranks in (8, 16, 32):
        tuned = harness.average_bfs(graph, "1d", ranks, FRANKLIN, sources=sources)
        ref = harness.average_bfs(
            graph, "graph500-ref", ranks, FRANKLIN, sources=sources
        )
        table.add_row(
            f"functional s{scale}", ranks, tuned.gteps, ref.gteps,
            tuned.gteps / ref.gteps,
        )

    # Projected at paper scale (scale 29, edgefactor 16).
    from repro.baselines.graph500_ref import QUEUE_OPS_PER_PAIR
    from repro.model import network
    from repro.model.analytic import cost_1d, gteps
    from repro.model.memory import int_op_cost

    n, m = 1 << 29, 16 << 29
    model = harness.VOLUME_MODEL
    no_dedup = RmatVolumeModel(dedup_s1=1e6)  # survival == 1 everywhere
    for cores in (512, 1024, 2048):
        tuned_costs = cost_1d(model.volumes_1d(n, m, cores), cores, FRANKLIN)
        ref_vol = no_dedup.volumes_1d(n, m, cores)
        ref_costs = cost_1d(ref_vol, cores, FRANKLIN)
        nlev = ref_vol.nlevels
        # Scalar per-edge queue handling...
        extra = int_op_cost(QUEUE_OPS_PER_PAIR * ref_vol.random_checks, FRANKLIN)
        # ... and the full-bitmap allreduce every level (2 V words moved,
        # flat MPI: 4 ranks share each Franklin NIC).
        extra += nlev * 2.0 * (n / 64) * network.beta_p2p(
            FRANKLIN, FRANKLIN.cores_per_node
        )
        ref_total = ref_costs.total + extra
        table.add_row(
            "projected s29",
            cores,
            gteps(m, tuned_costs.total),
            gteps(m, ref_total),
            ref_total / tuned_costs.total,
        )
    table.notes.append(
        "paper (512/1024/2048 cores): 2.72x / 3.43x / 4.13x, *growing* "
        "with scale; the growth comes from the reference code's "
        "constant-volume bitmap synchronization meeting per-core bandwidth "
        "that shrinks with p"
    )
    return table


def sec6_single_node(quick: bool = False) -> Table:
    """Single-node multithreaded BFS vs a queue-per-edge baseline.

    The paper compares against Agarwal et al. (R-MAT, 32M vertices) and
    Leiserson-Schardl on the SuiteSparse instances KKt_power, Freescale1
    and Cage14; neither code nor the matrices are redistributable, so the
    workloads are structural stand-ins (see ``repro.graphs.meshes``) and
    the baseline is the untuned queue discipline.
    """
    from repro.graphs.meshes import mesh_graph

    scale = 13 if quick else 16
    mesh_n = 30_000 if quick else 400_000
    workloads = [
        ("R-MAT (Agarwal et al. setting)", rmat_graph(scale, 16, seed=31)),
        ("power-grid (KKt_power-like)", mesh_graph("power", mesh_n, seed=32)),
        ("near-planar (Freescale1-like)", mesh_graph("grid2d", mesh_n, seed=33)),
        ("banded (Cage14-like)", mesh_graph("banded", mesh_n, seed=34)),
    ]
    table = Table(
        title="Section 6: single-node BFS (Carver/Nehalem model, MTEPS)",
        headers=["workload", "this work (8 threads)", "baseline", "speedup"],
    )
    for name, graph in workloads:
        sources = harness.pick_sources(graph, 2, seed=5)
        ours = harness.average_bfs(
            graph, "1d", 1, "carver", sources=sources, threads=8
        )
        baseline = harness.average_bfs(
            graph, "graph500-ref", 1, "carver", sources=sources
        )
        table.add_row(name, ours.mteps, baseline.mteps, ours.mteps / baseline.mteps)
    table.notes.append(
        "paper: ~1.30x Agarwal et al. on R-MAT and up to 1.47x "
        "Leiserson-Schardl on KKt_power/Freescale1/Cage14; against the "
        "*untuned* queue baseline available here the gaps are larger, and "
        "they shrink on the structured meshes (fewer duplicate candidates "
        "for dedup to win on)"
    )
    return table


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md section 7)
# ---------------------------------------------------------------------------


def ablation_dedup(quick: bool = False) -> Table:
    """Send-side deduplication on/off: volumes and modeled time."""
    scale = 13 if quick else 15
    graph = rmat_graph(scale, 16, seed=17)
    sources = harness.pick_sources(graph, 2, seed=6)
    table = Table(
        title="Ablation: 1D send-side deduplication (Franklin model)",
        headers=["ranks", "dedup", "a2a words", "GTEPS"],
    )
    for ranks in (8, 32):
        for dedup in (True, False):
            run = harness.average_bfs(
                graph, "1d", ranks, FRANKLIN, sources=sources, dedup_sends=dedup
            )
            words = np.mean(
                [r.stats.words_sent("alltoallv") for r in run.results]
            )
            table.add_row(ranks, "on" if dedup else "off", float(words), run.gteps)
    table.notes.append(
        "dedup is the tuned code's main volume saving over the reference "
        "implementation (Section 4); its benefit shrinks as ranks grow"
    )
    return table


def comm_compress(quick: bool = False) -> Table:
    """Wire-format ablation: codec x sieve volumes and modeled time.

    The compression + sieve layer of Lv et al. (arXiv:1208.5542) on this
    repo's exchanges: each codec re-runs the same traversals (parents are
    verified bit-identical by the property harness) while the alpha-beta
    model prices the *encoded* buffers — so the a2a ratio column is
    modeled speedup, not an estimate.  ``delta-varint`` (an instance of
    ``auto``'s main inner form) compresses the sparse top-down levels
    severalfold; ``auto`` picks per buffer and should trail it by at most
    its one-word tag.
    """
    scale = 14 if quick else 16
    nprocs = 8
    graph = rmat_graph(scale, 16, seed=1)
    sources = harness.pick_sources(graph, 1 if quick else 2, seed=8)
    algos = ["1d"] if quick else ["1d", "1d-dirop", "2d"]
    configs = [
        ("raw", False),
        (DeltaVarintCodec(), False),
        ("auto", False),
        (DeltaVarintCodec(), True),
        ("auto", True),
    ]
    table = Table(
        title=(
            f"Frontier compression + sieve (R-MAT scale {scale}, "
            f"{nprocs} ranks, Hopper model)"
        ),
        headers=[
            "algorithm",
            "codec",
            "sieve",
            "a2a payload",
            "a2a wire",
            "a2a ratio",
            "total wire",
            "time (ms)",
            "speedup vs raw",
        ],
    )
    for algo in algos:
        raw_time = None
        for codec, sieve in configs:
            run = harness.average_bfs(
                graph, algo, nprocs, HOPPER,
                sources=sources, codec=codec, sieve=sieve,
            )
            payload = float(np.mean(
                [r.stats.payload_words("alltoallv") for r in run.results]
            ))
            wire = float(np.mean(
                [r.stats.wire_words("alltoallv") for r in run.results]
            ))
            total_wire = float(np.mean(
                [r.stats.words_sent() for r in run.results]
            ))
            if raw_time is None:
                raw_time = run.time_total
            table.add_row(
                algo,
                get_codec(codec).name,
                "on" if sieve else "off",
                payload,
                wire,
                payload / wire if wire > 0 else 1.0,
                total_wire,
                run.time_total * 1e3,
                raw_time / run.time_total if run.time_total > 0 else 1.0,
            )
    table.notes.append(
        "parents/levels are bit-identical to the serial oracle for every "
        "row; only the wire volume (and therefore the modeled time) moves"
    )
    table.notes.append(
        "compression trades codec compute for wire words, so it speeds up "
        "the comm-bound flat 1D at these rank counts while the "
        "compute-bound 2D/dirop rows only break even — the paper-scale "
        "regime (thousands of ranks, beta_N-dominated) is where every "
        "algorithm pays"
    )
    return table


def ablation_shuffle(quick: bool = False) -> Table:
    """Random vertex relabeling on/off: load balance (Section 4.4)."""
    scale = 13 if quick else 15
    table = Table(
        title="Ablation: random vertex shuffling (Section 4.4, 16 ranks)",
        headers=["shuffle", "max/mean edges per rank", "max/mean compute time"],
    )
    for shuffle in (True, False):
        graph = rmat_graph(scale, 16, seed=23, shuffle=shuffle)
        source = harness.pick_sources(graph, 1, seed=7)[0]
        res = run_bfs(graph, source, "1d", nprocs=16, machine=FRANKLIN)
        stats = res.stats
        assert stats is not None
        from repro.core.partition import Partition1D

        part = Partition1D(graph.n, 16)
        deg = graph.degrees()
        edges = np.array(
            [deg[part.range_of(r)[0] : part.range_of(r)[1]].sum() for r in range(16)]
        )
        comp = np.array([stats.clocks[r].compute_time for r in range(16)])
        table.add_row(
            "on" if shuffle else "off",
            float(edges.max() / max(edges.mean(), 1)),
            float(comp.max() / max(comp.mean(), 1e-12)),
        )
    table.notes.append(
        "paper: random relabeling gives every process roughly the same "
        "number of vertices and edges regardless of the skewed degrees"
    )
    return table


def ablation_ordering(quick: bool = False) -> Table:
    """Locality relabeling vs the paper's randomization (Sections 4.4, 7).

    Measures the 1D edge cut (the fraction of candidates that must cross
    the network) and the per-rank load balance under three orderings, on
    a structured crawl and on R-MAT — reproducing the paper's reasoning:
    randomization trades communication volume for load balance, and on
    R-MAT there is no locality to recover anyway.
    """
    import numpy as np

    from repro.graphs import build_csr
    from repro.graphs.ordering import edge_cut, rcm_ordering
    from repro.graphs.permutation import apply_permutation

    n_crawl = 4000 if quick else 20_000
    scale = 12 if quick else 14
    nparts = 16
    table = Table(
        title=f"Ablation: vertex ordering vs edge cut and balance ({nparts} ranks)",
        headers=["graph", "ordering", "edge cut", "max/mean edges per rank"],
    )

    def relabel(csr, perm):
        rows = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
        src, dst = apply_permutation(perm, rows, csr.indices)
        return build_csr(csr.n, src, dst, symmetrize=False, dedup=False)

    def balance(csr):
        from repro.core.partition import Partition1D

        part = Partition1D(csr.n, nparts)
        deg = csr.degrees()
        per_rank = np.array(
            [deg[part.range_of(r)[0] : part.range_of(r)[1]].sum() for r in range(nparts)]
        )
        return float(per_rank.max() / max(per_rank.mean(), 1.0))

    cases = [
        ("web crawl", webcrawl_graph(n_crawl, n_hosts=20, seed=1, shuffle=False)),
        ("R-MAT", rmat_graph(scale, 16, seed=1, shuffle=False)),
    ]
    for name, natural in cases:
        orderings = {
            "natural": natural.csr,
            "random (paper)": relabel(
                natural.csr,
                np.random.default_rng(0).permutation(natural.n).astype(np.int64),
            ),
            "RCM": relabel(natural.csr, rcm_ordering(natural.csr)),
        }
        for label, csr in orderings.items():
            table.add_row(name, label, edge_cut(csr, nparts), balance(csr))
    table.notes.append(
        "paper (Sections 4.4, 6): randomization evens the load at the "
        "price of a worst-case cut; relabeling heuristics help little on "
        "R-MAT because 'the graphs lack good separators'"
    )
    return table


def ablation_collectives(quick: bool = False) -> Table:
    """Collective-algorithm selection (Section 7 future work).

    Shows the pairwise/Bruck all-to-all crossover and where each BFS
    workload sits: bandwidth-bound R-MAT exchanges stay pairwise, the
    tiny per-level messages of a high-diameter traversal at scale prefer
    Bruck's log(p)-round schedule.
    """
    from repro.model import network

    parties, rpn, nodes = 4096, 4, 1024
    table = Table(
        title=f"Ablation: all-to-all algorithm selection (Hopper, {parties} ranks)",
        headers=[
            "words/rank/level",
            "pairwise (s)",
            "bruck (s)",
            "auto picks",
        ],
    )
    for words in (10, 100, 1_000, 10_000, 100_000, 1_000_000):
        pairwise, _ = network.a2a_time(
            HOPPER, parties, words, rpn, nodes, algorithm="pairwise"
        )
        bruck, _ = network.a2a_time(
            HOPPER, parties, words, rpn, nodes, algorithm="bruck"
        )
        _, chosen = network.a2a_time(HOPPER, parties, words, rpn, nodes)
        table.add_row(words, pairwise, bruck, chosen)
    # Where the two BFS workloads actually sit.
    model = RmatVolumeModel()
    vol = model.volumes_1d(1 << 32, 16 << 32, parties)
    rmat_words = vol.a2a_words / vol.nlevels
    _, rmat_algo = network.a2a_time(HOPPER, parties, rmat_words, rpn, nodes)
    crawl_words = 2 * 0.9 * (1 << 27) / 140 / parties  # uk-union-like level
    _, crawl_algo = network.a2a_time(HOPPER, parties, crawl_words, rpn, nodes)
    table.notes.append(
        f"R-MAT scale 32 sends ~{rmat_words:.3g} words/rank/level -> "
        f"{rmat_algo}; a 140-level crawl sends ~{crawl_words:.3g} -> "
        f"{crawl_algo}"
    )
    table.notes.append(
        "the paper's Section 7 names collective algorithm tuning as an "
        "open direction; the crossover sits where Bruck's log2(p)/2 "
        "forwarding overhead equals the saved p-round latency"
    )
    return table


def ablation_symmetric(quick: bool = False) -> Table:
    """Triangle-only storage (Section 7: "Exploiting symmetry").

    Quantifies the trade the paper flags as open: storing only the lower
    triangle halves the index memory, but serving the mirrored direction
    of every SpMSV costs one full scan of the stored nonzeros *per
    level* — cheap for a 7-level R-MAT traversal's ~2 extractions per
    nonzero, ruinous for a 140-level crawl.
    """
    from repro.core import bfs_serial
    from repro.sparse.symmetric import SymmetricDCSC, spmsv_symmetric
    from repro.sparse.spmsv import spmsv_heap

    scale = 11 if quick else 13
    crawl_n = 3000 if quick else 8000
    table = Table(
        title="Ablation: triangle-only symmetric storage (Section 7)",
        headers=[
            "workload",
            "levels",
            "memory saving %",
            "extra streamed words / stored nnz",
            "measured kernel slowdown",
        ],
    )
    workloads = [
        ("R-MAT", rmat_graph(scale, 16, seed=5)),
        (
            "web crawl",
            webcrawl_graph(crawl_n, n_hosts=40, host_reach=1, seed=5),
        ),
    ]
    for name, graph in workloads:
        csr = graph.csr
        rows = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
        from repro.sparse.dcsc import DCSC as _DCSC

        # build_csr's output is A^T column-major, sorted and deduplicated.
        full = _DCSC.from_sorted_coo(csr.n, csr.n, csr.indices, rows)
        sym = SymmetricDCSC.from_full(full)
        full_words = full.ir.size + full.jc.size + full.cp.size
        saving = 100.0 * (1.0 - sym.memory_words / full_words)

        # Replay the real BFS frontier sequence through both kernels.
        source = int(
            np.asarray(graph.to_internal(graph.random_nonisolated_vertices(1, 0)[0]))
        )
        levels, _ = bfs_serial(csr, source)
        nlevels = int(levels.max())
        frontiers = [
            np.flatnonzero(levels == lvl).astype(np.int64)
            for lvl in range(nlevels)
        ]
        t0 = time.perf_counter()
        for f in frontiers:
            spmsv_heap(full, f, f + 1)
        t_full = time.perf_counter() - t0
        t0 = time.perf_counter()
        for f in frontiers:
            spmsv_symmetric(sym, f, f + 1)
        t_sym = time.perf_counter() - t0
        # The mirror pass streams every stored nonzero once per level.
        table.add_row(name, nlevels, saving, nlevels, t_sym / max(t_full, 1e-12))
    table.notes.append(
        "paper: 'one can save 50% space by storing only the upper (or "
        "lower) triangle ... the algorithmic modifications needed to save "
        "a comparable amount in communication is not well-studied' — the "
        "mirror pass scans every stored nonzero once per level, so the "
        "overhead grows with the traversal's level count"
    )
    return table


# ---------------------------------------------------------------------------
# Direction-optimizing 1D — bottom-up/top-down switching (follow-up work)
# ---------------------------------------------------------------------------


def dirop_vs_topdown(quick: bool = False) -> Table:
    """Direction-optimizing 1D vs the paper's top-down 1D on R-MAT.

    Functional runs on Hopper's machine model: the ``edges scanned``
    column is the modeled early-exit edge-scan count (the paper's
    dominant local term), ``time`` the modeled traversal makespan.  The
    follow-up work reports an order-of-magnitude reduction in edges
    scanned on the hub-dominated middle levels; the ratios here are the
    reproduction target.
    """
    scales = [12] if quick else [14, 15, 16]
    nprocs = 4 if quick else 8
    table = Table(
        title="Direction-optimizing 1D vs top-down 1D (Hopper, R-MAT)",
        headers=[
            "scale", "edges 1d", "edges 1d-dirop", "scan ratio",
            "time 1d (ms)", "time 1d-dirop (ms)", "speedup",
        ],
    )
    for scale in scales:
        graph = rmat_graph(scale, 16, seed=1)
        source = int(graph.random_nonisolated_vertices(1, seed=2)[0])
        td = run_bfs(graph, source, "1d", nprocs=nprocs, machine=HOPPER)
        do = run_bfs(graph, source, "1d-dirop", nprocs=nprocs, machine=HOPPER)
        e_td = td.stats.counter("edges_scanned")
        e_do = do.stats.counter("edges_scanned")
        table.add_row(
            scale, int(e_td), int(e_do), e_td / max(e_do, 1.0),
            td.time_total * 1e3, do.time_total * 1e3,
            td.time_total / do.time_total,
        )
    table.notes.append(
        "bottom-up sweeps on the dense middle levels early-exit at the "
        "maximum frontier neighbour, so the scan ratio tracks the "
        "follow-up work's order-of-magnitude reduction while parents stay "
        "bit-identical to the serial oracle"
    )
    return table


def ablation_dirop_thresholds(quick: bool = False) -> Table:
    """Switching-threshold ablation for the direction-optimizing 1D.

    Sweeps ``alpha`` (top-down -> bottom-up) with ``beta`` fixed, plus a
    never-switch row (``alpha`` tiny) that degenerates to pure top-down.
    """
    scale = 12 if quick else 14
    nprocs = 4 if quick else 8
    graph = rmat_graph(scale, 16, seed=1)
    source = int(graph.random_nonisolated_vertices(1, seed=2)[0])
    table = Table(
        title=f"Direction-optimizing thresholds (Hopper, R-MAT scale {scale})",
        headers=[
            "alpha", "beta", "bottom-up levels", "edges scanned", "time (ms)",
        ],
    )
    from repro.model.costmodel import DIROP_BETA

    for alpha in (1e-9, 2.0, 14.0, 100.0):
        res = run_bfs(
            graph, source, "1d-dirop", nprocs=nprocs, machine=HOPPER,
            dirop_alpha=alpha, dirop_beta=DIROP_BETA, trace=True,
        )
        bottom_up = sum(
            1 for lvl in res.meta["level_profile"]
            if lvl.get("direction") == "bottom-up"
        )
        table.add_row(
            alpha, DIROP_BETA, bottom_up,
            int(res.stats.counter("edges_scanned")), res.time_total * 1e3,
        )
    table.notes.append(
        "alpha -> 0 never leaves top-down (the 1d baseline); overly eager "
        "switching (large alpha) flips before the frontier is dense enough "
        "and rescans sparse levels bottom-up"
    )
    return table


def ablation_dirop2d(quick: bool = False) -> Table:
    """2D + direction-optimization vs plain 2D and 1D + dirop.

    The follow-up work (arXiv:1705.04590) folds Beamer's bottom-up sweep
    into the 2D SpMSV loop and reports that the combination wins the
    end-to-end comparison on R-MAT: the 2D decomposition caps the
    collective cost at ``sqrt(p)`` participants while the bottom-up
    middle levels slash the scan and fold volume.  This table reproduces
    that modeled claim on Hopper at ``p >= 16`` (at small ``p`` the
    expand/transpose overhead of 2D still dominates and 1D + dirop can
    win; the crossover is the point of the comparison).
    """
    cases = [(12, 16)] if quick else [(13, 16), (13, 36), (14, 64)]
    table = Table(
        title="2D direction-optimizing BFS vs 2D and 1D-dirop (Hopper, R-MAT)",
        headers=[
            "scale", "nprocs",
            "time 2d (ms)", "time 1d-dirop (ms)", "time 2d-dirop (ms)",
            "speedup vs 2d", "speedup vs 1d-dirop", "scan ratio vs 2d",
        ],
    )
    for scale, nprocs in cases:
        graph = rmat_graph(scale, 16, seed=1)
        source = int(graph.random_nonisolated_vertices(1, seed=2)[0])
        td2d = run_bfs(graph, source, "2d", nprocs=nprocs, machine=HOPPER)
        do1d = run_bfs(graph, source, "1d-dirop", nprocs=nprocs, machine=HOPPER)
        do2d = run_bfs(graph, source, "2d-dirop", nprocs=nprocs, machine=HOPPER)
        table.add_row(
            scale, nprocs,
            td2d.time_total * 1e3, do1d.time_total * 1e3,
            do2d.time_total * 1e3,
            td2d.time_total / do2d.time_total,
            do1d.time_total / do2d.time_total,
            td2d.stats.counter("edges_scanned")
            / max(do2d.stats.counter("edges_scanned"), 1.0),
        )
    table.notes.append(
        "all three runs produce bit-identical parents; 2d-dirop combines "
        "the sqrt(p) collective participants of the 2D decomposition with "
        "the bottom-up early-exit scans, so it wins the modeled end-to-end "
        "comparison at every (scale, p) point above the small-p crossover"
    )
    return table


def query_throughput(quick: bool = False) -> Table:
    """Batched multi-source query throughput: modeled queries/sec vs batch.

    The ``repro.query`` subsystem packs up to 64 sources into one
    bit-parallel traversal (one ``uint64`` lane word per vertex), so the
    per-level latency terms — the Alltoallv startup and the termination
    Allreduce — are paid once per *batch* instead of once per query.
    This sweep runs the same source pool at batches 1..64 and reports
    the modeled queries/sec and the speedup over unbatched operation;
    every run validates each lane against its serial oracle, so the
    throughput column never trades away exactness.
    """
    from repro.query import run_query

    scale = 11 if quick else 13
    nprocs = 4 if quick else 8
    graph = rmat_graph(scale, 16, seed=31)
    pool = harness.pick_sources(graph, 64, seed=6)
    batches = [1, 4, 16, 64] if quick else [1, 2, 4, 8, 16, 32, 64]
    table = Table(
        title=(
            f"Batched query throughput, msbfs-1d "
            f"(R-MAT scale {scale}, {nprocs} ranks, Hopper model)"
        ),
        headers=[
            "batch",
            "nlevels",
            "time/traversal (ms)",
            "time/query (ms)",
            "queries/s",
            "speedup",
            "a2a words/cand",
        ],
    )
    baseline_qps = None
    for batch in batches:
        res = run_query(
            graph,
            sources=pool[:batch],
            algorithm="msbfs-1d",
            nprocs=nprocs,
            machine=HOPPER,
            validate=True,
        )
        qps = res.queries_per_second()
        if baseline_qps is None:
            baseline_qps = qps
        table.add_row(
            batch,
            res.nlevels,
            res.time_total * 1e3,
            res.time_total / batch * 1e3,
            qps,
            qps / baseline_qps,
            res.stats.words_sent("alltoallv") / res.stats.counter("unique_sends"),
        )
    table.notes.append(
        "one traversal advances all lanes at once: the frontier union of "
        "the batch is scanned once per level and the per-level collectives "
        "amortize across lanes, so time/traversal grows sublinearly in the "
        "batch while time/query collapses; every lane is validated "
        "bit-identical to its single-source serial oracle"
    )
    table.notes.append(
        "a2a words/cand: alltoallv wire words per candidate the senders "
        "ship (self-addressed ones included); a candidate ships as a target "
        "word, and each (destination, source) run adds a (source, length) "
        "pair and one lane word; a run longer than its destination range's "
        "bitmap ships as that bitmap instead of its targets; the lane sieve "
        "ships no candidate whose lanes its sender already shipped to that "
        "target"
    )
    return table


#: Experiment registry: id -> (function, description).
EXPERIMENTS: dict[str, tuple] = {
    "fig3": (fig3_spa_vs_heap, "SPA vs heap SpMSV crossover"),
    "fig4": (fig4_vector_distribution, "1D vs 2D vector distribution balance"),
    "table1": (table1_comm_decomposition, "2D communication decomposition"),
    "fig5": (fig5_franklin_strong, "Franklin strong scaling (GTEPS)"),
    "fig6": (fig6_franklin_comm, "Franklin communication times"),
    "fig7": (fig7_hopper_strong, "Hopper strong scaling (GTEPS)"),
    "fig8": (fig8_hopper_comm, "Hopper communication times"),
    "fig9": (fig9_weak_scaling, "Franklin weak scaling"),
    "fig10": (fig10_density, "Sensitivity to graph density"),
    "fig11": (fig11_ukunion, "High-diameter web crawl (uk-union stand-in)"),
    "table2": (table2_pbgl, "PBGL comparison"),
    "sec6-ref": (sec6_reference_mpi, "vs Graph500 reference code"),
    "sec6-node": (sec6_single_node, "single-node multithreaded BFS"),
    "dirop": (dirop_vs_topdown, "direction-optimizing 1D vs top-down 1D"),
    "comm-compress": (comm_compress, "frontier compression codecs + sieve dedup"),
    "abl-dirop": (ablation_dirop_thresholds, "ablation: dirop switching thresholds"),
    "abl-dirop2d": (ablation_dirop2d, "ablation: 2D + direction-optimization vs 2D and 1D-dirop"),
    "abl-dedup": (ablation_dedup, "ablation: send-side dedup"),
    "abl-shuffle": (ablation_shuffle, "ablation: vertex shuffling"),
    "abl-ordering": (ablation_ordering, "ablation: locality relabeling vs randomization"),
    "abl-collectives": (ablation_collectives, "ablation: collective algorithm selection"),
    "abl-symmetric": (ablation_symmetric, "ablation: triangle-only symmetric storage"),
    "query-throughput": (query_throughput, "batched multi-source query throughput (1..64 lanes)"),
}


def run_experiment(exp_id: str, quick: bool = False) -> Table:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    try:
        fn, _desc = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(quick=quick)

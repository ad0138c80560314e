#!/usr/bin/env python
"""Project BFS performance onto the paper's supercomputers.

Uses the calibrated Section 5 alpha-beta model to answer the questions the
paper's evaluation asks: which algorithm should I run on this machine at
this scale, where is the 1D/2D crossover, and what does the 40,000-core
headline configuration look like?

Run::

    python examples/machine_projection.py
"""

from repro.bench.harness import paper_threads, projected_costs, projected_gteps
from repro.model import FRANKLIN, HOPPER


def sweep(machine, name, scale, edgefactor, cores_list):
    # Flat MPI and the hybrid at the paper's threads per rank on ``machine``.
    threads = paper_threads(machine)
    series = {
        "1d": ("1d", 1),
        "1d-hybrid": ("1d", threads),
        "2d": ("2d", 1),
        "2d-hybrid": ("2d", threads),
    }
    print(f"\n{name} — R-MAT scale {scale}, edgefactor {edgefactor} (GTEPS)")
    print(f"{'cores':>7}  " + "  ".join(f"{a:>10}" for a in series) + "   best")
    for cores in cores_list:
        rates = {
            label: projected_gteps(algo, scale, edgefactor, cores, machine, threads=t)
            for label, (algo, t) in series.items()
        }
        best = max(rates, key=rates.get)
        print(
            f"{cores:>7}  "
            + "  ".join(f"{rates[a]:>10.2f}" for a in series)
            + f"   {best}"
        )


def main() -> None:
    sweep(FRANKLIN, "Franklin (Cray XT4)", 29, 16, [512, 1024, 2048, 4096])
    sweep(HOPPER, "Hopper (Cray XE6)", 32, 16, [5040, 10008, 20000, 40000])

    print("\nheadline configuration: 2D-hybrid, scale 32, 40,000 Hopper cores")
    costs = projected_costs("2d", 32, 16, 40000, HOPPER, threads=6)
    rate = projected_gteps("2d", 32, 16, 40000, HOPPER, threads=6)
    print(f"  modeled traversal time: {costs.total:.2f} s")
    print(f"  computation      : {costs.comp:.2f} s")
    print(f"  expand (Allgather): {costs.ag:.2f} s")
    print(f"  fold (Alltoall)  : {costs.a2a:.2f} s")
    print(f"  transpose + sync : {costs.transpose + costs.sync:.2f} s")
    print(f"  rate             : {rate:.1f} GTEPS   (paper: 17.8 GTEPS)")

    print("\nwhy 2D wins on Hopper but not Franklin: the flat 1D all-to-all")
    for machine, name, scale, cores in (
        (FRANKLIN, "Franklin", 29, 4096),
        (HOPPER, "Hopper", 32, 20000),
    ):
        c = projected_costs("1d", scale, 16, cores, machine)
        print(
            f"  {name:>8} @ {cores:>6} cores: "
            f"{100 * c.comm / c.total:5.1f}% of flat-1D time is MPI"
        )


if __name__ == "__main__":
    main()

"""perfbench: the repository's two-clock benchmark.

    python perfbench/run.py [--workload NAME]... [--seed N] [--seconds S]
                            [--trace [0|1]] [--quick [--corrupt]] [--out DIR]

One closed-loop client: each workload runs in a fresh subprocess
(``worker.py``) with ``REPRO_KERNELS`` / ``REPRO_RUNTIME`` /
``REPRO_SPMD_TIMEOUT`` removed from its environment, issues its next
search when the previous one returns, and checks every result.  The
seed is the only source of randomness.

``--trace 0`` (the default) is the untraced run and prints the
end-to-end metrics; ``--trace 1`` is the traced run alone and prints the
per-layer metrics; a bare ``--trace`` does both and also holds the
traced run's modeled numbers to the untraced run's, bit for bit.  With
exactly one ``--workload`` the last line of output is the driver's JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).

Exit status: 0 when every operation of every workload passed its check,
1 when one failed, 2 when a workload could not be measured at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

from workloads import (
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    SCRUBBED_ENV,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The driver allows a run 180 s; a worker that needs more is stopped.
WORKER_TIMEOUT_S = 170
SCHEMA = "perfbench/v1"


def fingerprint() -> dict:
    """The host facts recorded beside every result."""
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    commit = "unknown"  # the driver's checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(load),
        "load_warning": load[0] > nproc,
        "git_commit": commit,
    }


def run_worker(name: str, args, traced: bool) -> dict:
    """Measure one workload in a fresh subprocess; returns its result.

    Raises ``RuntimeError`` when the worker produced none.  The worker
    leads its own process group, so a timeout also stops the rank
    processes the ``processes`` runtime probe forks.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(args.out),
    ]
    command += ["--quick"] if args.quick else []
    command += ["--traced"] if traced else []
    command += ["--corrupt"] if args.corrupt and not traced else []
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def cross_check(untraced: dict, traced: dict) -> list[str]:
    """Traced and untraced modeled numbers of one key must be identical."""
    first = {}
    for sample in untraced["samples"]:
        first.setdefault(sample["key"], sample)
    problems = []
    for key, values in traced["modeled_per_key"].items():
        mine = first[int(key)]
        if any(mine.get(field) != value for field, value in values.items()):
            problems.append(
                f"key {key}: traced run's modeled numbers differ from the untraced run's"
            )
    return problems


# -- printing ---------------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.4g}"


def print_end_to_end(results: dict) -> None:
    print("\nend-to-end metrics (untraced run; n = samples behind each number)")
    header = ["workload"] + [f"{m.name} [{m.unit}]" for m in END_TO_END]
    rows = [header + ["ops_attempted", "ops_failed"]]
    for name, both in results.items():
        r = both["untraced"]
        cells = [name]
        for m in END_TO_END:
            got = r["metrics"].get(m.name)
            cells.append(f"{fmt(got['value'])} (n={got['n']})" if got else "absent")
        rows.append(cells + [str(r["ops_attempted"]), str(r["ops_failed"])])
    print_table(rows)
    for m in END_TO_END:
        print(f"  {m.name}: {m.statistic}")
    print("\nall timed searches, beside search_wall_s [s]")
    rows = [["workload", "median", "q1", "q3", "min", "max", "n", "tail"]]
    for name, both in results.items():
        s = both["untraced"]["metrics"]["search_wall_s"]
        rows.append(
            [name, fmt(s["median"]), fmt(s["q1"]), fmt(s["q3"]), fmt(s["min"]), fmt(s["max"]),
             str(s["n"]), f"p{s['tail_percentile']:.0f} = {fmt(s['tail_value'])}"]
        )
    print_table(rows)


def print_per_layer(results: dict) -> None:
    print("\nper-layer metrics (traced run; 'absent' = layer not on the workload's path)")
    rows = [["metric", "unit"] + list(results)]
    for m in PER_LAYER:
        cells = [m.name, m.unit]
        for both in results.values():
            r = both["traced"]
            got = r["per_layer"].get(m.name)
            mark = "*" if m.name in r["informational"] else ""
            cells.append(fmt(got["value"]) + mark if got else "absent")
        rows.append(cells)
    print_table(rows)
    print("* informational: more ranks than CPUs on the processes runtime")
    for name, both in results.items():
        print(f"trace of {name}: {both['traced']['trace_file']}")


def print_table(rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def driver_line(both: dict, traced: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    if traced:
        r = both["traced"]
        metrics = {
            m.name: r["per_layer"][m.name] for m in PER_LAYER if m.scope == "all"
        }
    else:
        r = both["untraced"]
        metrics = {
            m.name: {"value": r["metrics"][m.name]["value"], "unit": m.unit}
            for m in END_TO_END
        }
    return json.dumps(
        {
            "correct": r["ops_failed"] == 0,
            "attempted": r["ops_attempted"],
            "failed": r["ops_failed"],
            "metrics": metrics,
        }
    )


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run; repeat for several (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"seconds the timed loop measures (default {RUN_SECONDS}; 0 with --quick)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
        help="0: untraced run; 1: traced run alone; bare flag: both",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test size: scale 10, two searches",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test (needs --quick): damage the first search's parents array; "
        "the run must count it in ops_failed and exit 1",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for results.json and trace-<workload>.json",
    )
    args = parser.parse_args(argv)
    if args.corrupt and not args.quick:
        parser.error("--corrupt is a self-test of --quick runs")
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(RUN_SECONDS)
    args.out = args.out.resolve()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = fingerprint()
    if host["load_warning"]:
        print(
            f"perfbench: warning: 1-minute load average {host['loadavg_start'][0]:.2f} "
            f"exceeds nproc {host['nproc']}; host times will be noisy",
            file=sys.stderr,
        )
    names = args.workload or list(WORKLOADS)
    results: dict[str, dict] = {}
    failed = False
    for name in names:
        both = {"untraced": None, "traced": None}
        try:
            if args.trace in ("0", "both"):
                both["untraced"] = run_worker(name, args, traced=False)
            if args.trace in ("1", "both"):
                both["traced"] = run_worker(name, args, traced=True)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        if args.trace == "both":
            problems = cross_check(both["untraced"], both["traced"])
            both["traced"]["failures"] += problems
            both["traced"]["ops_failed"] += len(problems)
        for r in filter(None, both.values()):
            host.setdefault("numpy", r.pop("numpy"))
            host.setdefault("pinned_cpu", r.pop("pinned_cpu"))
            for line in r["failures"]:
                print(f"perfbench: {name}: FAILED: {line}", file=sys.stderr)
            failed |= bool(r["ops_failed"])
        results[name] = both

    print(f"perfbench seed={args.seed} quick={args.quick} seconds={args.seconds:g} "
          f"nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"load={host['loadavg_start'][0]:.2f} pinned_cpu={host['pinned_cpu']} "
          f"commit={host['git_commit'][:12]}")
    if args.trace in ("0", "both"):
        print_end_to_end(results)
    if args.trace in ("1", "both"):
        print_per_layer(results)

    args.out.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "fingerprint": host,
        "workloads": results,
    }
    (args.out / "results.json").write_text(json.dumps(document, indent=1))
    print(f"\nresults: {args.out / 'results.json'}")
    if len(names) == 1 and args.trace != "both":
        print(driver_line(results[names[0]], args.trace == "1"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

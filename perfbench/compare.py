"""Compare perfbench result files: A/A runs, or a before/after pair.

    python perfbench/compare.py BASE.json CAND.json
    python perfbench/compare.py --base B1.json B2.json ... --cand C1.json C2.json ...
    python perfbench/compare.py --baseline R1.json R2.json ...   > BASELINE.json

Each file is a ``results.json`` written by ``run.py``.  One row is
printed per (workload, end-to-end metric): each side's median and
quartiles, the ratio candidate / base, and a verdict:

* ``within-bound`` — the candidate is no worse, and no better, than the
  base by more than the metric's bound;
* ``regressed`` / ``improved`` — it is worse / better by more than that;
* ``unresolved`` — a side's spread (q3 - q1 over its median) is wider
  than the bound, so the runs cannot tell.

With three or more files on a side its quartiles are taken across the
files' medians (``statistics.quantiles(n=4)``, as the driver does); with
fewer, the first file's within-run quartiles stand in.  The two modeled
metrics repeat bit for bit for one seed, so when both sides ran the same
seeds they must agree to rel. 1e-12 instead.

Exit status: 0 when no row is ``regressed`` or ``unresolved``, 1 when
one is ``regressed``, 2 when one is ``unresolved`` (and none regressed)
or the input cannot be read.  ``--baseline`` prints one side's summary
with the host fingerprint as JSON; it is how ``BASELINE.json`` is made.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import stats
from run import print_table
from workloads import END_TO_END, WORKLOADS

EXACT_REL = 1e-12
#: Files a side needs before its spread is taken across files.
MIN_FILES_FOR_SPREAD = 3


def load(paths: list[Path]) -> list[dict]:
    documents = []
    for path in paths:
        document = json.loads(Path(path).read_text())
        if not str(document.get("schema", "")).startswith("perfbench/"):
            raise ValueError(f"{path} is not a perfbench results file")
        documents.append(document)
    return documents


def summarize(documents: list[dict], workload: str, metric: str) -> dict | None:
    """One side's median, quartiles and run count for one metric."""
    cells = [
        d["workloads"][workload]["untraced"]["metrics"].get(metric)
        for d in documents
        if (d["workloads"].get(workload) or {}).get("untraced")
    ]
    cells = [c for c in cells if c]
    if not cells:
        return None
    values = [c["value"] for c in cells]
    median = statistics.median(values)
    if len(values) >= MIN_FILES_FOR_SPREAD:
        q1, q3 = stats.quartiles(values)
    else:
        q1, q3 = cells[0].get("q1", median), cells[0].get("q3", median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "runs": len(values),
        "samples_per_run": statistics.median(c["n"] for c in cells),
        "spread": (q3 - q1) / median,
    }


def verdict(metric, base: dict, cand: dict, same_seeds: bool) -> str:
    ratio = cand["median"] / base["median"]
    worse_by = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if metric.exact and same_seeds:
        if math.isclose(cand["median"], base["median"], rel_tol=EXACT_REL, abs_tol=0.0):
            return "within-bound"
        return "regressed" if worse_by > 0 else "improved"
    if max(base["spread"], cand["spread"]) > metric.bound:
        return "unresolved"
    if worse_by > metric.bound:
        return "regressed"
    if worse_by < -metric.bound:
        return "improved"
    return "within-bound"


def compare(base: list[dict], cand: list[dict]) -> tuple[list[list[str]], int]:
    same_seeds = sorted(d["seed"] for d in base) == sorted(d["seed"] for d in cand)
    rows = [[
        "workload", "metric", "unit", "base median [q1, q3] (runs)",
        "cand median [q1, q3] (runs)", "cand/base", "bound", "verdict",
    ]]
    verdicts = []
    for workload in WORKLOADS:
        for metric in END_TO_END:
            b = summarize(base, workload, metric.name)
            c = summarize(cand, workload, metric.name)
            if b is None or c is None:
                continue
            v = verdict(metric, b, c, same_seeds)
            verdicts.append(v)
            bound = "exact" if metric.exact and same_seeds else f"{metric.bound:.0%}"
            rows.append([
                workload, metric.name, metric.unit, _side(b), _side(c),
                f"{c['median'] / b['median']:.4f}", bound, v,
            ])
    status = 1 if "regressed" in verdicts else 2 if "unresolved" in verdicts else 0
    return rows, status


def _side(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] ({s['runs']})"


def baseline(documents: list[dict]) -> dict:
    """The summary of one set of runs, as committed in BASELINE.json."""
    return {
        "schema": "perfbench-baseline/v1",
        "fingerprint": documents[0]["fingerprint"],
        "seeds": sorted({d["seed"] for d in documents}),
        "seconds": documents[0]["seconds"],
        "workloads": {
            workload: {
                m.name: {**found, "unit": m.unit}
                for m in END_TO_END
                if (found := summarize(documents, workload, m.name))
            }
            for workload in WORKLOADS
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("pair", nargs="*", type=Path, help="BASE.json CAND.json")
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    parser.add_argument("--cand", nargs="+", type=Path, default=[])
    parser.add_argument("--baseline", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    try:
        if args.baseline:
            print(json.dumps(baseline(load(args.baseline)), indent=1))
            return 0
        if args.pair:
            if len(args.pair) != 2 or args.base or args.cand:
                parser.error("give BASE.json CAND.json, or --base FILES and --cand FILES")
            args.base, args.cand = args.pair[:1], args.pair[1:]
        if not (args.base and args.cand):
            parser.error("give BASE.json CAND.json, or --base FILES and --cand FILES")
        rows, status = compare(load(args.base), load(args.cand))
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print_table(rows)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Quick-mode smoke tests of every experiment (shape checks live in the
full-size ``benchmarks/`` suite; here we verify each experiment runs,
returns well-formed tables, and preserves its headline signal even at the
downscaled quick settings)."""

from __future__ import annotations

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import Table

#: Experiments cheap enough to run in quick mode inside the unit suite.
QUICK_EXPERIMENTS = [
    "fig3",
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "sec6-ref",
    "sec6-node",
    "abl-dedup",
    "abl-shuffle",
    "abl-ordering",
    "abl-collectives",
    "abl-symmetric",
    "dirop",
    "abl-dirop",
]


@pytest.fixture(scope="module")
def quick_table():
    """``quick_table(exp_id)``: the experiment's quick-mode table, run
    once per module — the smoke sweep and the signal checks share it."""
    tables = {}

    def get(exp_id):
        if exp_id not in tables:
            tables[exp_id] = run_experiment(exp_id, quick=True)
        return tables[exp_id]

    return get


@pytest.mark.parametrize("exp_id", QUICK_EXPERIMENTS)
def test_experiment_runs_quick(exp_id, quick_table):
    table = quick_table(exp_id)
    assert isinstance(table, Table)
    assert table.rows, exp_id
    assert all(len(row) == len(table.headers) for row in table.rows)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


def test_registry_well_formed():
    for exp_id, (fn, desc) in EXPERIMENTS.items():
        assert callable(fn), exp_id
        assert isinstance(desc, str) and desc, exp_id


class TestQuickModeSignals:
    """Headline signals that must survive even the downscaled settings."""

    def test_fig5_flat_1d_beats_flat_2d_small_p(self, quick_table):
        table = quick_table("fig5")
        row = next(r for r in table.rows if r[0] == 29 and r[2] == 512)
        header = table.headers
        assert row[header.index("1d")] > row[header.index("2d")]

    def test_fig7_hybrid_2d_wins_at_scale(self, quick_table):
        table = quick_table("fig7")
        row = next(r for r in table.rows if r[2] == 40000)
        header = table.headers
        assert row[header.index("2d-hybrid")] == max(row[3:])

    def test_fig6_2d_communicates_less(self, quick_table):
        table = quick_table("fig6")
        header = table.headers
        for row in table.rows:
            assert row[header.index("2d comm(s)")] < row[header.index("1d comm(s)")]

    def test_table2_order_of_magnitude_gap(self, quick_table):
        table = quick_table("table2")
        by_key = {(r[0], r[1]): r[2:] for r in table.rows}
        cores = sorted({k[0] for k in by_key})[0]
        pbgl = by_key[(cores, "PBGL(-like)")]
        two_d = by_key[(cores, "Flat 2D")]
        assert all(t > 3 * p for t, p in zip(two_d, pbgl))

    def test_dedup_ablation_signal(self, quick_table):
        table = quick_table("abl-dedup")
        rows = {(r[0], r[1]): r[2] for r in table.rows}
        assert rows[(8, "on")] < rows[(8, "off")]

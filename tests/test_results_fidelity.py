"""The committed closed-form artifacts in ``results/`` regenerate byte
for byte.

These experiments evaluate the Section 5 alpha-beta model directly (no
simulated traversal), so each full-size table and chart is a pure
function of the code and regenerates in milliseconds.  The artifacts of
the functional experiments are left to their ``repro-bench <id> -o
results/`` recipes: they take seconds to tens of seconds each.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiments import run_experiment
from repro.bench.plotting import render_figure

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Experiments whose full-size run is closed-form.
CLOSED_FORM = ["fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "abl-collectives"]

#: The closed-form experiments that also commit a ``.chart.txt``.
CHARTED = ["fig5", "fig6", "fig7", "fig8", "fig10"]


@pytest.mark.parametrize("exp_id", CLOSED_FORM)
def test_table_artifact_regenerates(exp_id, tmp_path):
    fresh = run_experiment(exp_id).save(tmp_path, exp_id)
    assert fresh.read_bytes() == (RESULTS / f"{exp_id}.txt").read_bytes()


@pytest.mark.parametrize("exp_id", CHARTED)
def test_chart_artifact_regenerates(exp_id):
    chart = render_figure(run_experiment(exp_id), exp_id)
    committed = (RESULTS / f"{exp_id}.chart.txt").read_bytes()
    assert (chart + "\n").encode() == committed

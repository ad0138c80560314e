"""Figure 8: MPI communication time on Hopper."""

from repro.bench import harness
from repro.model.machine import HOPPER


def _panel(table, scale):
    return {
        row[2]: dict(zip(table.headers[3:], row[3:]))
        for row in table.rows
        if row[0] == scale
    }


def test_fig8_hopper_comm(reproduce):
    table = reproduce("fig8")
    for scale in (30, 32):
        panel = _panel(table, scale)
        for cores, row in panel.items():
            assert row["2d comm(s)"] < row["1d comm(s)"], (scale, cores)
            assert row["2d-hybrid comm(s)"] < row["2d comm(s)"], (scale, cores)

    # Flat 1D at 20K cores: communication consumes >90% of execution
    # (the reason the paper skipped the 40K flat-1D run).
    c1 = harness.projected_costs("1d", 32, 16, 20000, HOPPER)
    assert c1.comm / c1.total > 0.9
    # The 2D hybrid stays under ~50% at the same concurrency.
    c2h = harness.projected_costs("2d", 32, 16, 20000, HOPPER, threads=6)
    assert c2h.comm / c2h.total < 0.55

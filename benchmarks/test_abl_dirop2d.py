"""2D + direction-optimization vs plain 2D and 1D + dirop.

The follow-up work (arXiv:1705.04590) reports that folding Beamer's
bottom-up sweep into the 2D SpMSV loop wins the end-to-end comparison on
R-MAT; these shape assertions pin that modeled reproduction target at
every (scale, nprocs) point above the small-p crossover.
"""


def test_dirop2d_wins_end_to_end(reproduce):
    table = reproduce("abl-dirop2d")
    for row in table.rows:
        rows = dict(zip(table.headers, row))
        # Strictly faster than the plain 2D decomposition...
        assert rows["time 2d-dirop (ms)"] < rows["time 2d (ms)"], rows
        assert rows["speedup vs 2d"] > 1.0, rows
        # ... and no slower than 1D + dirop at p >= 16 (the 2D collectives
        # involve only sqrt(p) participants).
        assert rows["time 2d-dirop (ms)"] <= rows["time 1d-dirop (ms)"], rows
        # The win comes from the bottom-up early exit: materially fewer
        # modeled edge scans than the always-top-down 2D SpMSV.
        assert rows["scan ratio vs 2d"] > 2.0, rows


def test_dirop2d_quick_point_holds_the_bar():
    # The CI smoke configuration (scale 12, p = 16) satisfies the same
    # bar the full sweep does, so the quick job is a faithful gate.
    from repro.bench.experiments import run_experiment

    table = run_experiment("abl-dirop2d", quick=True)
    (row,) = table.rows
    rows = dict(zip(table.headers, row))
    assert rows["time 2d-dirop (ms)"] < rows["time 2d (ms)"], rows
    assert rows["time 2d-dirop (ms)"] <= rows["time 1d-dirop (ms)"], rows

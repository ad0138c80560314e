"""``benchmarks/memory_stages.py`` runs end to end and prints every stage."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "memory_stages.py"
STAGES = ("generate", "construct", "keys", "warm-up", "partition", "launch", "stitch", "result")


def test_prints_every_stage(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "crawl_1d_auto", "--no-tracemalloc"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows[1:-1]] == list(STAGES), proc.stdout
    assert all(float(row[1]) > 0 for row in rows[1:-1]), proc.stdout
    assert rows[-1][:2] == ["#", "crawl_1d_auto"], proc.stdout
    assert not list(tmp_path.iterdir())

"""The package runs on numpy alone.

scipy may well be installed next to the package, so the probe blocks it
(``sys.modules["scipy"] = None`` makes every ``import scipy...`` raise)
in a fresh interpreter, imports the whole public surface and runs a
validated 1D and 2D search.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None

import repro
from repro import *

modules = [repro] + [
    importlib.import_module(f"repro.{info.name}")
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]
names = 0
for module in modules:
    for name in getattr(module, "__all__", ()):
        getattr(module, name)
        names += 1

graph = repro.rmat_graph(8, 16, seed=1)
source = int(graph.random_nonisolated_vertices(1, seed=2)[0])
for algorithm in ("1d", "2d"):
    repro.run_bfs(graph, source, algorithm, nprocs=4, validate=True)
print(names)
"""


def test_public_surface_and_searches_run_with_scipy_blocked():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # The names of the subpackages were walked, not only the top level's.
    assert int(proc.stdout) > len(repro.__all__)

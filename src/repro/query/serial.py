"""Serial oracle for the batched query.

:func:`msbfs_serial` — 64 independent :func:`~repro.core.serial.bfs_serial`
runs stacked into lane columns — is the structurally independent
reference for the property tests and for ``run_query(...,
validate=True)``: the bit-parallel run must match it lane for lane, bit
for bit.  It operates on the *internal* CSR labeling, like its BFS
counterpart.
"""

from __future__ import annotations

import numpy as np

from repro.core.serial import bfs_serial
from repro.graphs.csr import CSR


def msbfs_serial(
    csr: CSR, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane serial BFS; returns ``(n, k)`` levels and parents."""
    sources = np.asarray(sources, dtype=np.int64)
    levels = np.empty((csr.n, sources.size), dtype=np.int64)
    parents = np.empty((csr.n, sources.size), dtype=np.int64)
    for b, s in enumerate(sources):
        levels[:, b], parents[:, b] = bfs_serial(csr, int(s))
    return levels, parents

"""Batched multi-source query subsystem.

One traversal, up to 64 queries: the lane word (one ``uint64`` per
vertex, bit ``b`` = source ``b``'s state) turns the paper's SpMSV into a
bit-parallel multi-source BFS (``msbfs-1d``), an
:class:`~repro.core.engine.AlgorithmStep` plugin under the unchanged
traversal engine.  :func:`run_query` is the driver entry point.
"""

from repro.query.driver import QueryResult, run_query
from repro.query.msbfs import WORD_LANES, MSBFS1D, lane_bit
from repro.query.serial import msbfs_serial

__all__ = [
    "MSBFS1D",
    "WORD_LANES",
    "QueryResult",
    "lane_bit",
    "msbfs_serial",
    "run_query",
]

"""R-MAT recursive matrix graph generator (Chakrabarti et al. [9]).

Fully vectorized: for a scale-``s`` graph every edge picks one of four
quadrants at each of the ``s`` recursion levels, contributing one bit to
the source and destination vertex ids.  The paper (and the Graph 500
benchmark) uses parameters ``a, b, c, d = 0.59, 0.19, 0.19, 0.05`` and
edgefactor 16, producing skewed degree distributions and a very low
diameter — the properties that make traversal load balancing hard.
"""

from __future__ import annotations

import sys

import numpy as np

#: Graph 500 / paper R-MAT parameters (Section 6).  The paper prints
#: a = 0.59, but 0.59 + 0.19 + 0.19 + 0.05 = 1.02; the Graph 500
#: specification the paper says it follows uses a = 0.57, which is what
#: every reference implementation generates.
GRAPH500_PARAMS: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05)


def rmat_edges(
    scale: int,
    edgefactor: float = 16,
    params: tuple[float, float, float, float] = GRAPH500_PARAMS,
    seed: int | None = 0,
    noise: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate R-MAT edges for ``n = 2**scale`` vertices.

    Parameters
    ----------
    scale:
        log2 of the vertex count.
    edgefactor:
        Directed edges generated per vertex (Graph 500 default 16).
    params:
        Quadrant probabilities ``(a, b, c, d)``; must sum to 1.
    seed:
        RNG seed for reproducibility.
    noise:
        Optional per-level multiplicative jitter on the parameters
        (the "smoothing" used by some R-MAT variants); 0 disables it.

    Returns
    -------
    (src, dst):
        ``int64`` arrays of length ``edgefactor * n``.  Self-loops and
        duplicates are *not* removed here — that is CSR construction's
        job, matching the Graph 500 pipeline.
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    a, b, c, d = params
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError(f"R-MAT params must sum to 1, got {a + b + c + d}")
    if min(a, b, c, d) < 0:
        raise ValueError(f"R-MAT params must be non-negative: {params}")
    n = 1 << scale
    m = int(round(edgefactor * n))
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Every pass reuses the same buffers: one float64 draw, three bool
    # masks and, per id, one uint8 byte that gathers eight bits before it
    # is stored into its byte plane of the int64 output.
    draw = np.empty(m)
    src_bit = np.empty(m, dtype=bool)
    dst_bit = np.empty(m, dtype=bool)
    upper = np.empty(m, dtype=bool)
    weighted = np.empty(m, dtype=np.uint8)
    gathered = [
        (bits, np.empty(m, dtype=np.uint8), ids.view(np.uint8).reshape(m, 8))
        for bits, ids in ((src_bit, src), (dst_bit, dst))
    ]
    for bit in range(scale):
        aa, bb, cc, dd = a, b, c, d
        if noise:
            jitter = 1.0 + noise * (2.0 * rng.random(4) - 1.0)
            aa, bb, cc, dd = np.array([a, b, c, d]) * jitter
            total = aa + bb + cc + dd
            aa, bb, cc, dd = aa / total, bb / total, cc / total, dd / total
        rng.random(out=draw)
        # Quadrants in row-major order: (0,0)=a, (0,1)=b, (1,0)=c, (1,1)=d,
        # drawn as [0, a), [a, a+b), [a+b, a+b+c), the rest.  The source
        # bit is set in c and d; the destination bit in b (a bool ``>``
        # is and-not) and d.
        np.greater_equal(draw, aa + bb, out=src_bit)
        np.greater_equal(draw, aa, out=dst_bit)
        np.greater(dst_bit, src_bit, out=dst_bit)
        dst_bit |= np.greater_equal(draw, aa + bb + cc, out=upper)
        shift = bit % 8
        for bits, byte, planes in gathered:
            if shift == 0:
                np.copyto(byte, bits)
            else:
                byte |= np.multiply(bits.view(np.uint8), 1 << shift, out=weighted)
            if shift == 7 or bit == scale - 1:
                plane = bit // 8
                planes[:, plane if sys.byteorder == "little" else 7 - plane] = byte
    return src, dst


def rmat_graph(
    scale: int,
    edgefactor: float = 16,
    params: tuple[float, float, float, float] = GRAPH500_PARAMS,
    seed: int | None = 0,
    symmetrize: bool = True,
    shuffle: bool = True,
):
    """Generate a ready-to-traverse :class:`~repro.graphs.graph.Graph`.

    Follows the Graph 500 pipeline the paper uses: generate directed
    R-MAT edges, randomly relabel vertices for load balance (Section 4.4),
    then symmetrize into sorted deduplicated CSR.  The *original* directed
    edge count is retained for TEPS normalization ("we only count the
    number of edges in the original directed graph").
    """
    from repro.graphs.graph import Graph

    src, dst = rmat_edges(scale, edgefactor, params, seed)
    return Graph.from_edges(
        1 << scale,
        src,
        dst,
        symmetrize=symmetrize,
        shuffle=shuffle,
        seed=seed,
        name=f"rmat-s{scale}-ef{edgefactor:g}",
    )

"""Graph container: CSR storage plus benchmark metadata.

A :class:`Graph` owns the traversal-ready CSR (symmetrized, deduplicated,
sorted, optionally randomly relabeled per Section 4.4) together with the
bookkeeping the Graph 500 methodology needs: the original directed edge
count for TEPS normalization and the relabeling permutation so results can
be reported in the caller's vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.graphs.csr import CSR, _build_csr
from repro.graphs.permutation import invert_permutation, random_permutation


@dataclass(frozen=True)
class Graph:
    """Traversal-ready graph.

    Attributes
    ----------
    csr:
        Adjacency structure in *internal* (possibly relabeled) ids.
    m_input:
        Edge count of the original directed input list — the TEPS
        denominator ("we only count the number of edges in the original
        directed graph", Section 6).
    perm:
        Relabeling applied at construction (``internal = perm[original]``),
        or ``None`` when vertices were not shuffled.
    name:
        Workload label used in reports.
    """

    csr: CSR
    m_input: int
    perm: np.ndarray | None = None
    name: str = "graph"
    directed: bool = False
    meta: dict = field(default_factory=dict)

    # -- construction -------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        symmetrize: bool = True,
        shuffle: bool = True,
        seed: int | None = 0,
        name: str = "graph",
        drop_self_loops: bool = True,
    ) -> "Graph":
        """Build from raw edges, applying the paper's preprocessing."""
        m_input = int(np.size(src))
        perm = random_permutation(n, seed) if shuffle else None
        csr = _build_csr(
            n, src, dst, perm, symmetrize=symmetrize, drop_self_loops=drop_self_loops
        )
        return cls(
            csr=csr,
            m_input=m_input,
            perm=perm,
            name=name,
            directed=not symmetrize,
        )

    # -- basic properties -----------------------------------------------------
    @property
    def n(self) -> int:
        return self.csr.n

    @property
    def nnz(self) -> int:
        """Stored adjacencies (2x the undirected edge count)."""
        return self.csr.nnz

    def degrees(self) -> np.ndarray:
        return self.csr.degrees()

    # -- label translation ----------------------------------------------------
    @cached_property
    def _inverse(self) -> np.ndarray:
        """``original = _inverse[internal]``, computed once per graph."""
        return invert_permutation(self.perm)

    def to_internal(self, vertices: np.ndarray | int) -> np.ndarray | int:
        """Translate original vertex ids to internal (relabeled) ids."""
        if self.perm is None:
            return vertices
        return self.perm[vertices]

    def to_original(self, vertices: np.ndarray | int):
        """Translate internal ids back to original ids."""
        if self.perm is None:
            return vertices
        return self._inverse[vertices]

    def original_rows(self, lo: int, hi: int) -> np.ndarray | slice:
        """Where internal vertices ``lo .. hi-1`` sit in a caller-label array."""
        if self.perm is None:
            return slice(lo, hi)
        return self._inverse[lo:hi]

    def original_ids(self, internal_ids: np.ndarray) -> np.ndarray:
        """Translate vertex-id *values* (parents, labels) to original ids;
        negative values are sentinels (unreachable) and pass through."""
        if self.perm is None:
            return internal_ids
        # One lookup translates ids and sentinels alike: index ``-j``
        # lands on the identity entry ``-j`` appended behind the inverse.
        # The table is cached and only regrows for a lower sentinel.
        lowest = min(int(internal_ids.min(initial=0)), -1)
        table = self.__dict__.get("_id_table")
        if table is None or table.size - self.n < -lowest:
            table = np.concatenate([self._inverse, np.arange(lowest, 0)])
            self.__dict__["_id_table"] = table
        return table[internal_ids]

    def relabel_vertex_array(self, internal_values: np.ndarray) -> np.ndarray:
        """Reorder a per-vertex array from internal to original indexing,
        translating vertex-id *values* (parents) as well.

        ``internal_values[w]`` describes internal vertex ``w`` (one row
        per vertex; lane columns ride along); negative values are
        sentinels (unreachable) and pass through unchanged.
        """
        if self.perm is None:
            return internal_values
        return self.original_ids(internal_values[self.perm])

    def relabel_level_array(self, internal_levels: np.ndarray) -> np.ndarray:
        """Reorder a per-vertex scalar array (levels) to original indexing."""
        if self.perm is None:
            return internal_levels
        return internal_levels[self.perm]

    # -- source sampling --------------------------------------------------
    def random_nonisolated_vertices(
        self, count: int, seed: int | None = 0
    ) -> np.ndarray:
        """Sample distinct *original-id* vertices with degree >= 1.

        The Graph 500 benchmark samples search keys among non-isolated
        vertices; component filtering (the paper restricts to the large
        component) happens in the bench harness, which can afford a BFS.
        """
        deg = self.degrees()
        candidates_internal = np.flatnonzero(deg > 0)
        if candidates_internal.size == 0:
            raise ValueError("graph has no edges; no valid BFS sources")
        rng = np.random.default_rng(seed)
        take = min(count, candidates_internal.size)
        picked = rng.choice(candidates_internal, size=take, replace=False)
        return np.asarray(self.to_original(picked), dtype=np.int64)

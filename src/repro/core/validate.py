"""Graph 500-style BFS output validation (specification section 4 of the
benchmark, which the paper's experiments follow).

Checks performed by :func:`validate_bfs`:

1. the source is its own parent at level 0;
2. reachability is consistent: a vertex has a level iff it has a parent;
3. every tree edge ``(parent[v], v)`` exists in the graph and spans
   exactly one level;
4. every graph edge connects vertices whose levels differ by at most one,
   and never a reachable to an unreachable vertex (``undirected=True``);
   on a directed graph (``undirected=False``) an edge ``u -> v`` out of a
   reached ``u`` needs only a reached ``v`` with
   ``level[v] <= level[u] + 1``;
5. levels agree with true shortest-path distances when an oracle is
   supplied.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSR


class ValidationError(AssertionError):
    """A BFS output violated the Graph 500 validation rules."""


def validate_bfs(
    csr: CSR,
    source: int,
    levels: np.ndarray,
    parents: np.ndarray,
    reference_levels: np.ndarray | None = None,
    undirected: bool = True,
) -> None:
    """Raise :class:`ValidationError` on any specification violation."""
    n = csr.n
    levels = np.asarray(levels)
    parents = np.asarray(parents)
    if levels.shape != (n,) or parents.shape != (n,):
        raise ValidationError(
            f"output arrays must have length {n}, got {levels.shape}/{parents.shape}"
        )

    # Rule 1: the source.
    if levels[source] != 0:
        raise ValidationError(f"source level is {levels[source]}, expected 0")
    if parents[source] != source:
        raise ValidationError(
            f"parents[source] = {parents[source]}, expected {source}"
        )

    # Rule 2: levels and parents agree on reachability.
    reached = levels >= 0
    if not np.array_equal(reached, parents >= 0):
        bad = int(np.flatnonzero(reached != (parents >= 0))[0])
        raise ValidationError(
            f"vertex {bad}: level {levels[bad]} vs parent {parents[bad]} disagree"
        )

    # Rule 3: tree edges exist and span exactly one level.
    tree_vertices = np.flatnonzero(reached & (np.arange(n) != source))
    if tree_vertices.size:
        tree_parents = parents[tree_vertices]
        if np.any(levels[tree_parents] + 1 != levels[tree_vertices]):
            bad = int(
                tree_vertices[
                    np.flatnonzero(levels[tree_parents] + 1 != levels[tree_vertices])[0]
                ]
            )
            raise ValidationError(
                f"vertex {bad} at level {levels[bad]} has parent "
                f"{parents[bad]} at level {levels[parents[bad]]}"
            )
        # Edge existence, vectorized: CSR stores adjacencies sorted by
        # (row, column), so the flat indices array under the composite key
        # row * n + column is globally sorted and one searchsorted answers
        # every membership query at once.  The composite key needs
        # n^2 <= 2^63; beyond ~3e9 vertices (far past anything this
        # simulator materializes) it would overflow.
        if n > (1 << 31):
            raise ValidationError(
                f"validate_bfs supports up to 2^31 vertices, got {n}"
            )
        edge_keys = (
            np.repeat(np.arange(n, dtype=np.int64), csr.degrees()) * n + csr.indices
        )
        query_keys = tree_parents * n + tree_vertices
        if edge_keys.size:
            pos = np.searchsorted(edge_keys, query_keys)
            found = (pos < edge_keys.size) & (
                edge_keys[np.minimum(pos, edge_keys.size - 1)] == query_keys
            )
        else:
            found = np.zeros(query_keys.size, dtype=bool)
        if not found.all():
            bad = int(tree_vertices[np.flatnonzero(~found)[0]])
            raise ValidationError(
                f"tree edge ({parents[bad]}, {bad}) is not a graph edge"
            )

    # Rule 4: every graph edge spans at most one level.
    edge_src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
    edge_dst = csr.indices
    if undirected:
        both = reached[edge_src] & reached[edge_dst]
        if np.any(np.abs(levels[edge_src[both]] - levels[edge_dst[both]]) > 1):
            k = int(np.flatnonzero(np.abs(levels[edge_src[both]] - levels[edge_dst[both]]) > 1)[0])
            u, v = int(edge_src[both][k]), int(edge_dst[both][k])
            raise ValidationError(
                f"edge ({u}, {v}) spans levels {levels[u]} -> {levels[v]}"
            )
        mixed = reached[edge_src] != reached[edge_dst]
        if np.any(mixed):
            k = int(np.flatnonzero(mixed)[0])
            raise ValidationError(
                f"edge ({edge_src[k]}, {edge_dst[k]}) connects reachable "
                "and unreachable vertices"
            )
    else:
        # A directed edge u -> v only bounds v from above: a back edge may
        # climb any number of levels, but a reached u reaches v by the
        # next level.
        bad = reached[edge_src] & (
            ~reached[edge_dst] | (levels[edge_dst] > levels[edge_src] + 1)
        )
        if np.any(bad):
            k = int(np.flatnonzero(bad)[0])
            u, v = int(edge_src[k]), int(edge_dst[k])
            if not reached[v]:
                raise ValidationError(
                    f"edge ({u}, {v}) leads from reachable vertex {u} to unreachable {v}"
                )
            raise ValidationError(
                f"edge ({u}, {v}) spans levels {levels[u]} -> {levels[v]}"
            )

    # Rule 5: exact distances, when an oracle is available.
    if reference_levels is not None:
        if not np.array_equal(levels, np.asarray(reference_levels)):
            bad = int(np.flatnonzero(levels != reference_levels)[0])
            raise ValidationError(
                f"vertex {bad}: level {levels[bad]} != reference "
                f"{reference_levels[bad]}"
            )


def _input_edges(within: int, csr: CSR, m_input: int | None) -> int:
    """The TEPS edge count of a component holding ``within`` stored
    adjacencies (each undirected edge is stored twice)."""
    stored = int(within) // 2
    if m_input is None:
        return stored
    # Scale by the input-to-stored ratio so duplicate input edges count as
    # the benchmark prescribes.
    total_stored = csr.nnz // 2
    if total_stored == 0:
        return 0
    return int(round(m_input * stored / total_stored))


def count_traversed_edges(csr: CSR, levels: np.ndarray, m_input: int | None = None) -> int:
    """Edges counted by the TEPS metric.

    Graph 500 (and Section 6): the number of *input* edges whose both
    endpoints lie in the traversed component; each input edge counts once
    even though the symmetric representation visits it twice.  When the
    original input multiplicity is unknown, the stored undirected edge
    count within the component is used.

    ``levels`` may mark any vertex set, so this makes the edge pass of
    :func:`count_lane_edges`; a search's own count reads the same number
    off degrees (:func:`count_closed_lane_edges`).
    """
    return count_lane_edges(csr, lane_words(np.asarray(levels) >= 0), 1, m_input)[0]


def lane_words(reached: np.ndarray) -> np.ndarray:
    """Pack ``(rows, k <= 64)`` reached flags (``(rows,)`` for one lane)
    into one word per row, bit ``b`` for lane ``b``, in the narrowest
    unsigned dtype that holds ``k`` bits."""
    if reached.ndim == 1:  # one lane: the flag byte is the word
        return reached.view(np.uint8)
    rows = reached.shape[0]
    packed = np.packbits(reached, axis=1, bitorder="little")
    width = 1 << (packed.shape[1] - 1).bit_length()
    if width != packed.shape[1]:
        packed = np.concatenate(
            [packed, np.zeros((rows, width - packed.shape[1]), dtype=np.uint8)], axis=1
        )
    return packed.view(f"<u{width}").reshape(rows)


#: ``_BYTE_BITS[v, i]`` is bit ``i`` of byte value ``v``.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)


def count_lane_edges(
    csr: CSR, words: np.ndarray, lanes: int, m_input: int | None = None
) -> list[int]:
    """The TEPS edge count of each of ``lanes`` vertex sets, from one pass
    over the edge list.

    Right for any sets, closed or not; :func:`count_closed_lane_edges`
    gives the same counts for complete traversals in O(n) and is what
    the search drivers use.

    ``words[v]`` holds :func:`lane_words` of internal vertex ``v``: an
    edge lies inside lane ``b``'s component iff bit ``b`` survives the
    AND of its endpoints' words.  One lane counts the surviving edges;
    more take per-lane totals off one histogram per 16-bit column of the
    ANDed words (per byte while the words are one byte wide), each
    folded into its low and its high byte's 256-bin histograms.
    Rounding against ``m_input`` is per lane.
    """
    # One word per edge at the lanes' width, not an int64 source id.
    within = np.repeat(words, csr.degrees())
    within &= words[csr.indices]
    if lanes == 1:  # 0/1 bytes: count them as flags
        counts = [np.count_nonzero(within.view(bool))]
    else:
        width = min(within.itemsize, 2)
        columns = within.view(f"<u{width}").reshape(-1, within.itemsize // width)
        octets = []
        for j in range(-(-lanes // (8 * width))):
            # Row = high byte, column = low byte of the column's values.
            hist = np.bincount(columns[:, j], minlength=1 << (8 * width)).reshape(-1, 256)
            octets += [hist.sum(axis=0), hist.sum(axis=1)][:width]
        counts = np.concatenate([octet @ _BYTE_BITS for octet in octets])
    return [_input_edges(c, csr, m_input) for c in counts[:lanes]]


def count_closed_lane_edges(
    csr: CSR, words: np.ndarray, lanes: int, m_input: int | None = None
) -> list[int]:
    """:func:`count_lane_edges` of sets closed under (out-)adjacency,
    read off degrees: O(n·lanes/8) instead of a pass over the edges.

    A complete BFS's reached set is closed: every out-neighbour of a
    reached vertex is reached (``validate_bfs`` rules 4-5 enforce it on
    validated runs).  Every stored adjacency leaving a reached vertex
    then lies inside the component, so the count is the degree sum of
    the reached vertices: ``degrees[reached].sum()`` for one lane, one
    degree-weighted 256-bin histogram per lane byte for more.  The
    histogram's ``float64`` weights and sums stay exact below 2^53
    stored adjacencies.  On a set that is not closed the two counts
    differ; pass such sets to :func:`count_lane_edges`.
    """
    degrees = csr.degrees()
    if lanes == 1:  # 0/1 bytes: select with them as flags
        counts = [int(degrees[words.view(bool)].sum())]
    else:
        octets = words.view(np.uint8).reshape(words.size, words.itemsize)
        counts = np.concatenate([
            np.bincount(octets[:, j], weights=degrees, minlength=256) @ _BYTE_BITS
            for j in range(-(-lanes // 8))
        ])
    return [_input_edges(c, csr, m_input) for c in counts[:lanes]]

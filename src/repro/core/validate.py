"""Graph 500-style BFS output validation (specification section 4 of the
benchmark, which the paper's experiments follow).

Checks performed by :func:`validate_bfs`:

1. the source is its own parent at level 0;
2. reachability is consistent: a vertex has a level iff it has a parent,
   an unreached vertex is marked ``-1`` in both arrays, and every parent
   is a vertex id;
3. every tree edge ``(parent[v], v)`` exists in the graph, joins two
   reached vertices and spans exactly one level;
4. every graph edge connects vertices whose levels differ by at most one,
   and never a reachable to an unreachable vertex (``undirected=True``);
   on a directed graph (``undirected=False``) an edge ``u -> v`` out of a
   reached ``u`` needs only a reached ``v`` with
   ``level[v] <= level[u] + 1``;
5. levels equal ``reference_levels`` when a caller supplies them.

Rules 1-4 imply exact levels, so rule 5 needs no second search (the
Graph 500 argument): parent chains descend one level per edge to the one
level-0 vertex, the source (``level >= dist``), and rule 4 keeps a
shortest path reached, one level per edge at most (``level <= dist``).
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
    """Raise :class:`ValidationError` on any specification violation.

    Each rule is one vectorised pass that only detects a violation; the
    failure path then names the first offender.  ``csr``'s rows must be
    sorted (as :func:`~repro.graphs.csr.build_csr` emits them).
    """
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
        raise ValidationError(f"parents[source] = {parents[source]}, expected {source}")

    # Rule 2: reachability agrees (reported first), unreached is -1 / -1.
    reached = levels >= 0
    marked = np.where(reached, (parents >= 0) & (parents < n), (levels == -1) & (parents == -1))
    if not marked.all():
        disagree = reached != (parents >= 0)
        bad = int(np.argmax(disagree) if disagree.any() else np.argmin(marked))
        if disagree[bad]:
            raise ValidationError(
                f"vertex {bad}: level {levels[bad]} vs parent {parents[bad]} disagree"
            )
        raise ValidationError(
            f"vertex {bad}: level {levels[bad]} / parent {parents[bad]}, expected "
            f"-1 / -1 or a parent in [0, {n})"
        )

    # Rule 3: tree edges span one level from a reached parent (so only the
    # source is at level 0) and exist.
    tree = np.flatnonzero(reached)
    tree = tree[tree != source]
    up = parents[tree]
    up_levels = levels[up]
    wrong = (up_levels + 1 != levels[tree]) | (up_levels < 0)
    if wrong.any():
        bad = int(tree[np.argmax(wrong)])
        raise ValidationError(
            f"vertex {bad} at level {levels[bad]} has parent "
            f"{parents[bad]} at level {levels[parents[bad]]}"
        )
    # Edge existence: each tree vertex's lower bound in its parent's
    # sorted row, all at once by binary lifting (one stride per step).
    pos, end = csr.indptr[up], csr.indptr[up + 1]
    stride = 1 << int((end - pos).max(initial=0)).bit_length()
    while stride > 1:
        stride >>= 1
        probe = pos + (stride - 1)
        below = probe < end
        below &= csr.indices.take(probe, mode="clip") < tree
        np.add(pos, stride, out=pos, where=below)
    found = pos < end
    found[found] = csr.indices[pos[found]] == tree[found]
    if not found.all():
        bad = int(tree[np.argmin(found)])
        raise ValidationError(f"tree edge ({parents[bad]}, {bad}) is not a graph edge")

    # Rule 4: one compare per stored edge, on levels narrowed to the
    # smallest unsigned dtype holding ``top``.  Unreached vertices read
    # ``top - 1``, two past the deepest level: an edge leaving the reached
    # set spans two levels, and neither ``+ 1`` nor a difference wraps.
    top = int(levels.max()) + 3
    narrow = np.where(reached, levels, top - 1).astype(np.min_scalar_type(top))
    head = np.repeat(narrow, csr.degrees())
    tail = narrow[csr.indices]
    if undirected:  # |head - tail| > 1, in wrapping arithmetic
        head -= tail
        head += 1
        bad_edges = head > 2
    else:
        # u -> v bounds only v, from above, and only from a reached u (an
        # unreached u reads top - 1); a back edge may climb any number.
        head += 1
        bad_edges = tail > head
    if bad_edges.any():
        edges = np.flatnonzero(bad_edges)
        us = np.searchsorted(csr.indptr, edges, side="right") - 1
        vs = csr.indices[edges]
        spans = reached[us] & reached[vs]
        # Undirected, an edge spanning levels is reported before a mixed one.
        k = int(np.argmax(spans)) if undirected else 0
        u, v = int(us[k]), int(vs[k])
        if spans[k]:
            raise ValidationError(f"edge ({u}, {v}) spans levels {levels[u]} -> {levels[v]}")
        raise ValidationError(
            f"edge ({u}, {v}) connects reachable and unreachable vertices" if undirected
            else f"edge ({u}, {v}) leads from reachable vertex {u} to unreachable {v}"
        )

    # Rule 5, implied by 1-4: exact distances, when a caller supplies them.
    if reference_levels is not None and not np.array_equal(levels, reference_levels):
        bad = int(np.flatnonzero(levels != reference_levels)[0])
        raise ValidationError(
            f"vertex {bad}: level {levels[bad]} != reference {reference_levels[bad]}"
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
    reached vertex is reached (``validate_bfs`` rule 4 enforces it on
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

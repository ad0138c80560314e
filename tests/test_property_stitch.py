"""The one stitch against the chain it replaced.

``Session.stitch`` writes each rank slice straight into the caller-label
outputs, translates parents through the graph's cached id table and
packs reached-lane words for the ``m_traversed`` edge pass.  The chain
it replaced is kept below as the oracle, verbatim but for names: stitch
into full internal-label arrays, ``relabel_*_array`` them, then
``count_traversed_edges*`` over the internal levels.  Every kind's
``levels``, ``parents`` and ``m_traversed`` must come out identical,
dtype included.

A ``tracemalloc`` guard pins what the rewrite is for, and negative
tests pin the validation messages.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import runner
from repro.core.runner import RunConfig, prepare
from repro.core.validate import ValidationError
from repro.graphs import rmat_graph
from repro.graphs.graph import Graph
from repro.graphs.permutation import invert_permutation

# -- the oracle --------------------------------------------------------------------


def stitch_spec(session, spmd, columns=None):
    """``Session.stitch`` as it was: full internal-label arrays."""
    n = session.graph.n
    shape = (n,) if columns is None else (n, columns)
    levels = np.empty(shape, dtype=np.int64)
    parents = np.empty(shape, dtype=np.int64)
    step = session.spec.step
    lo_key, hi_key = step.result_keys if step is not None else ("lo", "hi")
    for rank_out in spmd.returns:
        owned = slice(rank_out[lo_key], rank_out[hi_key])
        levels[owned] = rank_out["levels"]
        parents[owned] = rank_out["parents"]
    return levels, parents, max(r["nlevels"] for r in spmd.returns)


def relabel_vertex_spec(graph, internal_values):
    if graph.perm is None:
        return internal_values
    lowest = min(int(internal_values.min(initial=0)), 0)
    table = np.concatenate([invert_permutation(graph.perm), np.arange(lowest, 0)])
    return table[internal_values[graph.perm]]


def relabel_level_spec(graph, internal_levels):
    return internal_levels if graph.perm is None else internal_levels[graph.perm]


def input_edges_spec(within, csr, m_input):
    stored = int(within) // 2
    if m_input is None:
        return stored
    total_stored = csr.nnz // 2
    return 0 if total_stored == 0 else int(round(m_input * stored / total_stored))


def count_spec(csr, levels, m_input):
    reached = np.asarray(levels) >= 0
    within = np.repeat(reached, csr.degrees())
    within &= reached[csr.indices]
    return input_edges_spec(np.count_nonzero(within), csr, m_input)


_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)


def count_lanes_spec(csr, levels, m_input):
    n, k = levels.shape
    packed = np.packbits(levels >= 0, axis=1, bitorder="little")
    words = np.zeros((n, 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    words = words.view(np.uint64).reshape(n)
    within = np.repeat(words, csr.degrees())
    within &= words[csr.indices]
    lanes = within.view(np.uint8).reshape(-1, 8)
    counts = np.concatenate(
        [np.bincount(lanes[:, j], minlength=256) @ _BYTE_BITS for j in range(packed.shape[1])]
    )
    return [input_edges_spec(c, csr, m_input) for c in counts[:k]]


def query_spec(session, kind, seeds):
    """``(levels, parents, m_traversed)`` the way the driver built them."""
    graph = session.graph
    csr, m_input = graph.csr, graph.m_input
    if kind == "bfs":
        if session.plan is None:
            levels_int, parents_int = runner.bfs_serial(csr, seeds[0])
        else:
            levels_int, parents_int, _ = stitch_spec(session, session.launch(seeds[0]))
        m_traversed = count_spec(csr, levels_int, m_input)
    else:  # msbfs
        levels_int, parents_int, _ = stitch_spec(session, session.launch(seeds), seeds.size)
        m_traversed = sum(count_lanes_spec(csr, levels_int, m_input))
    return (
        relabel_level_spec(graph, levels_int),
        relabel_vertex_spec(graph, parents_int),
        m_traversed,
    )


# -- the property -----------------------------------------------------------------

KINDS = {
    "bfs": ("1d", "2d", "serial", "graph500-ref"),
    "msbfs": ("msbfs-1d",),
}


@st.composite
def graphs(draw):
    """Small graphs with and without a relabeling, duplicates and
    isolated vertices common; ``n`` may be below the rank count."""
    n = draw(st.integers(1, 48))
    m = draw(st.integers(0, 3 * n))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), np.int64)
    return Graph.from_edges(
        n, src, dst,
        symmetrize=draw(st.booleans()),
        shuffle=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=25, deadline=None)
@given(
    graph=graphs(),
    kind=st.sampled_from(sorted(KINDS)),
    nprocs=st.integers(1, 16),
    data=st.data(),
)
def test_stitch_equals_relabel_chain(graph, kind, nprocs, data):
    algorithm = data.draw(st.sampled_from(KINDS[kind]))
    batch = data.draw(st.integers(1, 64))
    sources = np.array(
        data.draw(st.lists(st.integers(0, graph.n - 1), min_size=batch, max_size=batch)),
        dtype=np.int64,
    )
    session = prepare(graph, RunConfig(algorithm=algorithm, nprocs=nprocs))
    seeds = np.asarray(graph.to_internal(sources), dtype=np.int64)
    want = query_spec(session, kind, seeds)
    if kind == "bfs":
        res = session.bfs(int(sources[0]))
    else:
        res = session.query(sources)
    for got, expected in zip((res.levels, res.parents), want[:2]):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert res.m_traversed == want[2]


# -- the footprint guard ---------------------------------------------------------

#: End-of-query peak above the post-launch baseline, in units of the two
#: ``(n, 64)`` outputs.  The replaced chain peaked at 2.0 (stitched
#: internal arrays plus their relabeled copies); the one stitch ~1.05.
MAX_QUERY_PEAK = 1.25


def test_query_peak_is_the_outputs(monkeypatch):
    graph = rmat_graph(14, 16, seed=1)
    sources = graph.random_nonisolated_vertices(64, seed=2)
    session = prepare(graph, RunConfig(algorithm="msbfs-1d", nprocs=16))
    baseline = []
    real_launch = runner.Session.launch

    def launch(self, seed):
        out = real_launch(self, seed)
        tracemalloc.reset_peak()
        baseline.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(runner.Session, "launch", launch)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        res = session.query(sources)
        peak = tracemalloc.get_traced_memory()[1] - baseline[0]
    finally:
        if started:
            tracemalloc.stop()
    outputs = res.levels.nbytes + res.parents.nbytes
    assert res.levels.shape == (graph.n, 64)
    assert peak <= MAX_QUERY_PEAK * outputs, peak / outputs


# -- validation names its first offender --------------------------------------------


def _corrupting_launch(monkeypatch, rank, key, index, delta=1):
    """Make ``Session.launch`` hand back ``rank``'s slice with one entry
    of ``key`` off by ``delta``; returns the internal vertex it hit."""
    hit = []
    real_launch = runner.Session.launch

    def launch(self, seed):
        spmd = real_launch(self, seed)
        if not hit:
            rank_out = spmd.returns[rank]
            rank_out[key][index] += delta
            hit.append(rank_out["lo"] + index[0])
        return spmd

    monkeypatch.setattr(runner.Session, "launch", launch)
    return hit


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, 8, seed=3)


def test_msbfs_names_vertex_and_lane(graph, monkeypatch):
    sources = graph.random_nonisolated_vertices(5, seed=1)
    hit = _corrupting_launch(monkeypatch, rank=2, key="levels", index=(7, 3))
    with pytest.raises(ValidationError) as err:
        prepare(graph, RunConfig(algorithm="msbfs-1d", nprocs=4, validate=True)).query(sources)
    vertex = int(graph.to_original(hit[0]))
    assert f"msbfs lanes diverge from the per-lane serial oracle at vertex {vertex} lane 3:" in (
        str(err.value)
    )


@pytest.mark.parametrize("rank", [0, 3])
@pytest.mark.parametrize("key", ["levels", "parents"])
def test_msbfs_names_each_corrupted_column(graph, monkeypatch, key, rank):
    """The one oracle check compares levels and parents together: a
    single wrong parent is caught as surely as a wrong level, in the
    first rank's slice as in the last."""
    sources = graph.random_nonisolated_vertices(5, seed=1)
    hit = _corrupting_launch(monkeypatch, rank=rank, key=key, index=(2, 4), delta=3)
    with pytest.raises(ValidationError) as err:
        prepare(graph, RunConfig(algorithm="msbfs-1d", nprocs=4, validate=True)).query(sources)
    vertex = int(graph.to_original(hit[0]))
    assert f"at vertex {vertex} lane 4:" in str(err.value)


def test_bfs_validates_the_stitched_slices(graph, monkeypatch):
    """``Session.bfs`` keeps internal copies of the slices for
    ``validate_bfs``; a corrupted one must reach it."""
    source = int(graph.random_nonisolated_vertices(1, seed=1)[0])
    _corrupting_launch(monkeypatch, rank=1, key="levels", index=(3,), delta=5)
    with pytest.raises(ValidationError):
        prepare(graph, RunConfig(algorithm="1d", nprocs=4, validate=True)).bfs(source)


def test_validated_queries_pass_unchanged(graph):
    """The checks ride the one stitch without changing its output."""
    sources = graph.random_nonisolated_vertices(5, seed=1)
    plain = prepare(graph, RunConfig(algorithm="msbfs-1d", nprocs=4)).query(sources)
    checked = prepare(graph, RunConfig(algorithm="msbfs-1d", nprocs=4, validate=True)).query(
        sources
    )
    assert np.array_equal(plain.levels, checked.levels)
    assert np.array_equal(plain.parents, checked.parents)
    assert plain.m_traversed == checked.m_traversed

"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.comm import AutoCodec, DeltaVarintCodec, RawCodec
from repro.graphs import Graph, rmat_graph, webcrawl_graph
from repro.sparse import SELECT_MAX

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The pair forms a codec argument can take, by the name each reports:
#: the two codec names and ``auto``'s main inner form, which is passed
#: as an instance.
CODEC_FORMS = {codec.name: codec for codec in (RawCodec, DeltaVarintCodec, AutoCodec)}

#: The thread count the threaded sweeps also run each ``"threads"``-capable entry at.
SWEEP_THREADS = 4

#: Added to the top of the agreed vertex range when smashing a word, so
#: the value is out of range for any real buffer.
_OUT_OF_RANGE_OFFSET = 1 << 40


def corrupt_pieces(pieces, mode: str):
    """Deterministically damage one received piece.

    ``mode="truncate"`` drops the last word of the largest piece with at
    least two words (structurally detectable by every codec's length and
    count checks); ``mode="smash"`` overwrites the *first* word of the
    largest non-empty piece with an out-of-range sentinel (detectable in
    formats whose first word is a header, tag, or range-checked id —
    the sparse vertex lists, where truncation would be silent).

    Returns ``(index, corrupted_copy)`` or ``None`` when no piece is
    large enough to damage.
    """
    sizes = [int(np.asarray(p).size) for p in pieces]
    min_size = 1 if mode == "smash" else 2
    candidates = [i for i, size in enumerate(sizes) if size >= min_size]
    if not candidates:
        return None
    index = max(candidates, key=lambda i: (sizes[i], -i))
    piece = np.array(pieces[index], dtype=np.int64, copy=True)
    if mode == "smash":
        piece[0] = np.iinfo(np.int64).max - _OUT_OF_RANGE_OFFSET
    else:
        piece = piece[:-1]
    return index, piece


def thread_cases(names) -> list[tuple[str, int]]:
    """``(algorithm, threads)`` sweep cases: every name at 1 thread, and
    each ``"threads"``-capable registry entry at :data:`SWEEP_THREADS` too."""
    from repro.core.runner import ALGORITHMS

    return [
        (name, t)
        for name in sorted(names)
        for t in (1, SWEEP_THREADS)
        if t == 1 or "threads" in ALGORITHMS[name].capabilities
    ]


def thread_params(cases) -> list:
    """``(algorithm, threads)`` cases as pytest params, ids ``1d`` / ``1d-t4``."""
    return [pytest.param(name, t, id=name if t == 1 else f"{name}-t{t}") for name, t in cases]


@pytest.fixture(scope="session", autouse=True)
def repo_root_stays_clean():
    """Fail the run if a test left a new file in the repo root (tests
    write under ``tmp_path``; a stray ``trace.json`` is the usual culprit).
    Tool cache directories (``.hypothesis/``, ``.pytest_cache/``) are not files."""

    def root_files() -> set[str]:
        return {p.name for p in REPO_ROOT.iterdir() if p.is_file()}

    before = root_files()
    yield
    leaked = sorted(root_files() - before)
    assert not leaked, f"tests left files in the repo root: {leaked}"


@pytest.fixture(scope="session")
def rmat_small() -> Graph:
    """Scale-11 R-MAT graph (2048 vertices) used across integration tests."""
    return rmat_graph(11, 16, seed=42)


@pytest.fixture(scope="session")
def rmat_medium() -> Graph:
    """Scale-13 R-MAT graph for the heavier distributed tests."""
    return rmat_graph(13, 16, seed=7)


@pytest.fixture(scope="session")
def crawl_graph() -> Graph:
    """High-diameter synthetic web crawl (uk-union stand-in)."""
    return webcrawl_graph(6000, n_hosts=30, host_reach=1, seed=3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def reference_kernels(monkeypatch) -> None:
    """Run the rest of the test on the pure-python oracle: every
    ``kernels.<name>`` points at ``repro.kernels.reference`` until
    teardown.  ``src/`` looks kernels up at call time, so this one swap
    reaches every caller.  A test that wants a numpy pass first asks for
    it mid-body with ``request.getfixturevalue("reference_kernels")``."""
    from repro import kernels
    from repro.kernels import reference

    for name in kernels.KERNELS:
        monkeypatch.setattr(kernels, name, getattr(reference, name))


@pytest.fixture
def block_builds(monkeypatch) -> list:
    """One entry per ``build_2d_blocks`` call the driver makes."""
    import repro.core.runner as runner

    calls: list = []
    real = runner.build_2d_blocks

    def counting(csr, decomp, threads=1):
        calls.append(decomp)
        return real(csr, decomp, threads=threads)

    monkeypatch.setattr(runner, "build_2d_blocks", counting)
    return calls


def make_path_graph(n: int) -> Graph:
    """Deterministic path 0-1-2-...-(n-1): known levels for exact checks."""
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    return Graph.from_edges(n, src, dst, shuffle=False, name=f"path-{n}")


def make_star_graph(n: int) -> Graph:
    """Star with center 0: every other vertex at level 1."""
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return Graph.from_edges(n, src, dst, shuffle=False, name=f"star-{n}")


def make_disconnected_graph() -> Graph:
    """Two components: a triangle {0,1,2} and an edge {3,4}; vertex 5 isolated."""
    src = np.array([0, 1, 2, 3], dtype=np.int64)
    dst = np.array([1, 2, 0, 4], dtype=np.int64)
    return Graph.from_edges(6, src, dst, shuffle=False, name="disconnected")


def query_sources(graph: Graph, source: int, k: int = 4) -> list[int]:
    """Deterministic batch anchored at ``source``: k distinct vertex ids."""
    return [(source + i) % graph.n for i in range(min(k, graph.n))]


def prepare_any(graph: Graph, algorithm: str, **kwargs):
    """``prepare`` a session for any registry entry (see :func:`launch_any`)."""
    from repro.core.runner import RunConfig, prepare

    return prepare(graph, RunConfig(algorithm=algorithm, **kwargs))


def launch_any(
    graph: Graph, source: int, algorithm: str, *, batch: int = 4, session=None, **kwargs
):
    """Kind-dispatching launcher for registry-driven sweeps.

    The harnesses parametrize over the whole ``ALGORITHMS`` registry;
    BFS entries answer ``session.bfs`` and the batched query kinds
    ``session.query`` with a deterministic source batch derived from
    ``source``, so one helper covers every entry — current and future —
    without per-name branches in the tests.  Each call prepares its own
    session (exactly what ``run_bfs``/``run_query`` do) unless one from
    :func:`prepare_any` is passed as ``session``.
    """
    from repro.core.runner import ALGORITHMS

    if session is None:
        session = prepare_any(graph, algorithm, **kwargs)
    kind = ALGORITHMS[algorithm].kind
    if kind == "bfs":
        return session.bfs(source)
    if kind == "msbfs":
        return session.query(query_sources(graph, source, batch))
    raise ValueError(f"unknown algorithm kind {kind!r}")  # pragma: no cover


def spmsv_reference(nrows, rows, cols, frontier_idx, frontier_val, semiring=SELECT_MAX):
    """Slow-but-obvious semiring SpMSV over COO entries ``(rows, cols)``,
    the oracle of the SpMSV kernels: output row ``r`` combines the
    payloads of all frontier columns ``c`` with an entry ``(r, c)``."""
    dense = np.full(nrows, semiring.identity, dtype=np.int64)
    payload = dict(zip(np.asarray(frontier_idx).tolist(), np.asarray(frontier_val).tolist()))
    for r, c in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()):
        if c in payload:
            dense[r] = semiring.combine(dense[r], np.int64(payload[c]))
    out_idx = np.flatnonzero(dense != semiring.identity).astype(np.int64)
    return out_idx, dense[out_idx]

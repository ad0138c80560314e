"""The thread-hosted runtimes share one malloc arena.

glibc gives every new thread its own arena, so under a 16-rank run a
rank's freed temporaries could only ever serve that rank again, and the
resident set grew to sixteen private heaps.  ``one_malloc_arena`` caps
the process at one arena before the first rank thread starts.  The
regression test runs in a fresh interpreter, because the cap is
process-wide and permanent and ``ru_maxrss`` never comes back down.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.runtime import base

SRC = Path(__file__).resolve().parent.parent / "src"

#: Each rank allocates, fills and frees 8 + 4 MiB three times, around an
#: allreduce.  The lock keeps one rank's buffers live at a time under the
#: preemptive ``threads`` runtime too (numpy fills drop the GIL), so any
#: growth past one rank's buffers is memory that an arena held back.
_PROBE = """
import resource, sys, threading
import numpy as np
from repro.runtime import run_spmd

MIB = 1 << 20
one_at_a_time = threading.Lock()

def body(comm):
    for _ in range(3):
        with one_at_a_time:
            big = np.ones(8 * MIB // 8)
            small = np.ones(4 * MIB // 8)
            del big, small
        comm.allreduce(1)

def peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

before = peak_mib()
run_spmd(16, body, runtime=sys.argv[1])
print(peak_mib() - before)
"""

#: One rank's buffers, in MiB.
RANK_BUFFERS_MIB = 8 + 4


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the cap is a glibc mallopt")
@pytest.mark.parametrize("runtime", ["sequential", "threads"])
def test_sixteen_ranks_reuse_one_arena(runtime):
    """Sixteen private arenas grow ``ru_maxrss`` by ~16 ranks' buffers
    (192 MiB); one shared arena by about one rank's."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, runtime],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    growth = float(proc.stdout)
    assert growth < 2 * RANK_BUFFERS_MIB, f"ru_maxrss grew {growth:.1f} MiB"


class TestCapMallocArenas:
    def test_asks_for_one_arena(self):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        assert base.cap_malloc_arenas(libc) is True
        assert calls == [(base.M_ARENA_MAX, 1)]

    def test_silent_no_op_without_mallopt(self):
        """macOS and Windows C libraries have no ``mallopt``."""
        assert base.cap_malloc_arenas(SimpleNamespace()) is False

    def test_rejected_parameter_is_not_an_error(self):
        """musl's ``mallopt`` is a stub that returns 0."""
        assert base.cap_malloc_arenas(SimpleNamespace(mallopt=lambda param, value: 0)) is False

    def test_no_symbol_table_is_a_no_op(self, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(base.ctypes, "CDLL", no_libc)
        base.one_malloc_arena.cache_clear()
        try:
            assert base.one_malloc_arena() is False
        finally:
            base.one_malloc_arena.cache_clear()

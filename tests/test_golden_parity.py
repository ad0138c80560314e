"""Golden-parity battery for the traversal engine refactor.

The fixtures under ``tests/golden/`` freeze each distributed family run
with every cross-cutting concern on at once: wire codec, sender-side
sieve, per-level trace profile and span tracer; the ``*-raw`` fixtures
freeze the default ``raw`` wire with the vertex sieve off.  Their
parents, levels, modeled times, comm volumes and spans are those of the
hand-rolled per-algorithm level loops the engine replaced.  These tests re-run the
same configurations through :class:`repro.core.engine.TraversalEngine`
and assert the observable outputs are **bit-identical** — parents and
levels, the machine-readable run report (modeled times,
``stats.summary()`` comm volumes), the merged per-level profile, and the
complete Chrome ``trace_event`` span tree of every rank.

If one of these fails, the engine's level skeleton has drifted from the
original loops; regenerating the fixtures (``python tests/golden/
capture.py``) is only legitimate when an intentional behavior change is
being locked in.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_capture", GOLDEN_DIR / "capture.py"
)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

FAMILIES = sorted(capture.FIXTURES)


@pytest.fixture(scope="module")
def fixtures():
    """One fresh capture per family, normalized through JSON like the files."""
    fresh = {}
    for algorithm in FAMILIES:
        fresh[algorithm] = json.loads(
            json.dumps(capture.capture(algorithm), allow_nan=False)
        )
    return fresh


def committed(algorithm: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{algorithm}.json").read_text())


def test_raw_run_fixture_ships_bitmap_runs():
    """The raw run fixture ships some runs as their range's bitmap.

    A raw run buffer is ``1 + 3R + sum(min(L, B))`` words against a
    ``3R + K`` payload, so its wire undercuts its payload only when runs
    of ``L > B`` targets ship as ``B`` bitmap words.
    """
    comm = committed("msbfs-1d-raw")["report"]["comm"]
    assert comm["words_by_kind"]["alltoallv"] < comm["payload_by_kind"]["alltoallv"]


@pytest.mark.parametrize("algorithm", FAMILIES)
class TestGoldenParity:
    def test_fixture_exercises_everything(self, algorithm):
        """Guard the fixtures themselves: a config drift that silently
        stops covering the codec, the sieve or both directions would
        hollow out the parity guarantee."""
        golden = committed(algorithm)
        config = golden["config"]
        raw = algorithm.endswith("-raw")
        assert config["codec"] == (
            "raw" if raw else "auto" if "auto" in algorithm else "delta-varint"
        )
        if capture.ALGORITHMS[config["algorithm"]].kind == "bfs":
            # The raw fixtures pin the default wire: vertex sieve off.
            assert config["sieve"] != raw
        else:
            # Query kinds refuse the sieve structurally; the fixture must
            # omit it (not carry sieve=False) and batch several sources.
            assert "sieve" not in config
            assert len(golden["source"]) > 1
        assert config["trace"]
        assert golden["trace_events"]
        if "dirop" in algorithm:
            directions = {
                entry["direction"] for entry in golden["level_profile"]
            }
            assert directions == {"top-down", "bottom-up"}

    def test_parents_and_levels(self, fixtures, algorithm):
        golden = committed(algorithm)
        assert fixtures[algorithm]["parents"] == golden["parents"]
        assert fixtures[algorithm]["levels"] == golden["levels"]

    def test_run_report(self, fixtures, algorithm):
        """Config, modeled times, GTEPS, comm volumes and span-derived
        phase sections — all bit-equal."""
        golden = committed(algorithm)["report"]
        fresh = fixtures[algorithm]["report"]
        assert sorted(fresh) == sorted(golden)
        for section in golden:
            assert fresh[section] == golden[section], section

    def test_level_profile(self, fixtures, algorithm):
        golden = committed(algorithm)
        assert fixtures[algorithm]["level_profile"] == golden["level_profile"]

    def test_span_tree(self, fixtures, algorithm):
        """Every rank's nested phase spans, with virtual timestamps."""
        golden = committed(algorithm)
        assert fixtures[algorithm]["trace_events"] == golden["trace_events"]

    def test_whole_fixture(self, fixtures, algorithm):
        assert fixtures[algorithm] == committed(algorithm)

"""Meta-test: every ``ALGORITHMS`` entry must be covered by the suite.

The property/trace harnesses derive their algorithm lists from
:data:`repro.core.runner.ALGORITHMS` *at import time*, and the golden
parity battery runs whatever ``tests/golden/capture.py`` configures.
These tests compare those frozen lists against the live registry, per
declared capability, as ``(algorithm, threads)`` pairs — each entry at
one thread, and in the *threaded* harnesses each ``"threads"``-capable
one at :data:`~tests.conftest.SWEEP_THREADS` too:

* every algorithm appears in the oracle-equivalence sweep (threaded);
* every ``"wire"``-capable family appears in the codec/sieve sweep;
* every ``"trace-profile"``-capable family appears in the trace
  invariants;
* every engine family has a committed golden fixture configuration;
* every algorithm appears in the kernel-backend equivalence sweep
  (numpy vs pure-python kernels, ``tests/test_property_kernels.py``;
  threaded);
* every algorithm appears in the runtime-backend equivalence sweep
  (threads vs sequential vs processes execution runtimes,
  ``tests/test_property_runtimes.py``; threaded);
* every ``"wire"``-capable family names its encode sites for the
  damaged-wire abort sweep (``tests/test_codec_robustness.py``);
* every ``"tracer"``-capable family appears in the repeated-run
  determinism sweep (``tests/test_determinism.py``; threaded).

Because the harness lists are import-time snapshots, registering an
algorithm without extending the harness predicates (or, for golden,
without a capture config) makes :func:`harness_gaps` non-empty — the
demonstration tests below prove the failure mode by injecting dummy
registry entries and asserting every gap is reported.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core.runner import ALGORITHMS, ENGINE_CAPABILITIES, THREADED_CAPABILITIES, AlgorithmSpec

from tests import (
    test_codec_robustness,
    test_determinism,
    test_property_bfs,
    test_property_kernels,
    test_property_runtimes,
    test_trace_invariants,
)
from tests.conftest import SWEEP_THREADS

_spec = importlib.util.spec_from_file_location(
    "registry_coverage_capture",
    Path(__file__).resolve().parent / "golden" / "capture.py",
)
golden_capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_capture)

#: harness name -> the capabilities that require an entry in it.
NEEDS = {
    "oracle": set(),
    "wire": {"wire"},
    "trace": {"trace-profile"},
    "golden": {"wire"},
    "kernel-backend": set(),
    "runtime-backend": set(),
    "wire-damage": {"wire"},
    "determinism": {"tracer"},
}
#: The harnesses that also run each ``"threads"``-capable entry at more threads.
THREADED_HARNESSES = {"oracle", "kernel-backend", "runtime-backend", "determinism"}


def required_coverage(registry: dict[str, AlgorithmSpec]) -> dict[str, set]:
    """harness name -> ``(algorithm, threads)`` pairs the registry says it must cover."""
    return {
        harness: {
            (name, t)
            for name, spec in registry.items()
            if needs <= spec.capabilities
            for t in ((1, SWEEP_THREADS) if harness in THREADED_HARNESSES else (1,))
            if t == 1 or "threads" in spec.capabilities
        }
        for harness, needs in NEEDS.items()
    }


def harness_coverage() -> dict[str, set]:
    """harness name -> ``(algorithm, threads)`` pairs the harness modules actually list."""

    def flat(names) -> set:
        return {(name, 1) for name in names}

    return {
        "oracle": set(test_property_bfs.ALL_CASES),
        "wire": flat(test_property_bfs.WIRE_ALGORITHMS),
        "trace": flat(test_trace_invariants.TRACE_ALGORITHMS),
        "golden": flat(golden_capture.CONFIGS),
        "kernel-backend": set(test_property_kernels.KERNEL_BACKEND_CASES),
        "runtime-backend": set(test_property_runtimes.RUNTIME_BACKEND_CASES),
        "wire-damage": flat(test_codec_robustness.DAMAGE_SITES),
        "determinism": set(test_determinism.DETERMINISM_CASES),
    }


def harness_gaps(registry: dict[str, AlgorithmSpec]) -> list[tuple[str, tuple]]:
    """(harness, (algorithm, threads)) pairs the suite fails to cover for ``registry``."""
    covered = harness_coverage()
    return sorted(
        (harness, case)
        for harness, required in required_coverage(registry).items()
        for case in required - covered[harness]
    )


def test_every_algorithm_covered():
    """The live registry has no coverage gaps; a plugin merged without
    harness coverage fails here, by name and by missing harness."""
    assert harness_gaps(ALGORITHMS) == []


def test_harness_lists_carry_no_stale_entries():
    """The harness lists never name algorithms the registry dropped, nor
    run an entry at threads it does not model."""
    for harness, covered in harness_coverage().items():
        for name, threads in covered:
            spec = ALGORITHMS.get(name)
            assert spec and (threads == 1 or "threads" in spec.capabilities), (harness, name)


def test_dummy_registration_is_caught(monkeypatch):
    """Demonstrate the failure mode: a full-capability algorithm
    registered without any harness coverage is reported as a gap in
    every harness (the import-time lists predate the registration)."""
    monkeypatch.setitem(
        ALGORITHMS, "dummy-uncovered", AlgorithmSpec(None, ENGINE_CAPABILITIES)
    )
    gaps = harness_gaps(ALGORITHMS)
    for harness in required_coverage(ALGORITHMS):
        assert (harness, ("dummy-uncovered", 1)) in gaps, harness
    # ... and nothing else is newly missing.
    assert all(case == ("dummy-uncovered", 1) for _, case in gaps)


def test_dummy_threaded_registration_is_caught(monkeypatch):
    """A threaded registration is missing at one thread in every harness,
    and at more threads in exactly the threaded harnesses."""
    monkeypatch.setitem(
        ALGORITHMS, "dummy-threaded", AlgorithmSpec(None, THREADED_CAPABILITIES)
    )
    gaps = harness_gaps(ALGORITHMS)
    assert {harness for harness, case in gaps if case == ("dummy-threaded", 1)} == set(NEEDS)
    threaded = {harness for harness, case in gaps if case == ("dummy-threaded", SWEEP_THREADS)}
    assert threaded == THREADED_HARNESSES
    assert all(name == "dummy-threaded" for _, (name, _threads) in gaps)

"""Algebraic property battery for the traversal semirings.

Every semiring registered in :data:`repro.sparse.SEMIRINGS` must be a
commutative, associative, idempotent monoid over its payload domain, and
its two reduction kernels (``reduce_at`` scatter-combine and
``reduce_sorted_runs`` run-combine) must agree with a straightforward
element-at-a-time fold of :meth:`combine` — that fold is the semantics,
the kernels are the vectorizations.  The sweep is registry-driven: a new
semiring is algebra-checked the moment it lands in ``SEMIRINGS``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.sparse import SEMIRINGS, SPA
from repro.sparse.spa import OCCUPANCY_SCAN_RATIO

NAMES = sorted(SEMIRINGS)

#: Payload domain of each semiring — values its kernels must accept.
#: (The identity is excluded where the SPA forbids accumulating it.)
_DOMAINS = {
    "select-max": st.integers(min_value=0, max_value=1 << 40),
    "bit-or": st.integers(min_value=1, max_value=(1 << 64) - 1),
}


def test_every_semiring_has_a_payload_domain():
    """A new registry entry must extend the property battery's domains."""
    assert set(_DOMAINS) == set(SEMIRINGS)


def _values(name):
    return st.lists(_DOMAINS[name], min_size=1, max_size=32)


def _array(semiring, values):
    return np.asarray(values, dtype=semiring.dtype)


@pytest.mark.parametrize("name", NAMES)
class TestMonoidLaws:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_associative_and_commutative(self, name, data):
        s = SEMIRINGS[name]
        vals = data.draw(_values(name))
        a = _array(s, vals)
        b = _array(s, data.draw(st.permutations(vals)))
        c = _array(s, data.draw(st.permutations(vals)))
        assert np.array_equal(s.combine(a, b), s.combine(b, a))
        assert np.array_equal(
            s.combine(s.combine(a, b), c), s.combine(a, s.combine(b, c))
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_identity_and_idempotence(self, name, data):
        s = SEMIRINGS[name]
        a = _array(s, data.draw(_values(name)))
        identity = np.full(a.size, s.identity, dtype=s.dtype)
        assert np.array_equal(s.combine(a, identity), a)
        assert np.array_equal(s.combine(identity, a), a)
        # All the traversal combines (max, or) are idempotent:
        # re-delivering a contribution never changes the result.
        assert np.array_equal(s.combine(a, a), a)


def _fold(semiring, keys, values):
    """The semantics: combine values key by key with a python dict."""
    acc = {}
    for k, v in zip(keys, values):
        k = int(k)
        if k in acc:
            acc[k] = semiring.combine(
                np.asarray([acc[k]], dtype=semiring.dtype),
                np.asarray([v], dtype=semiring.dtype),
            )[0]
        else:
            acc[k] = v
    out_keys = np.asarray(sorted(acc), dtype=np.int64)
    out_vals = np.asarray([acc[int(k)] for k in out_keys], dtype=semiring.dtype)
    return out_keys, out_vals


@pytest.mark.parametrize("name", NAMES)
class TestReductionKernels:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_reduce_at_matches_fold(self, name, data):
        s = SEMIRINGS[name]
        vals = data.draw(_values(name))
        n = 8
        keys = data.draw(
            st.lists(
                st.integers(0, n - 1), min_size=len(vals), max_size=len(vals)
            )
        )
        dense = np.full(n, s.identity, dtype=s.dtype)
        s.reduce_at(dense, np.asarray(keys, dtype=np.int64), _array(s, vals))
        out_keys, out_vals = _fold(s, keys, vals)
        expected = np.full(n, s.identity, dtype=s.dtype)
        expected[out_keys] = out_vals
        assert np.array_equal(dense, expected)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_reduce_sorted_runs_matches_fold_in_any_order(self, name, data):
        s = SEMIRINGS[name]
        vals = data.draw(_values(name))
        keys = data.draw(
            st.lists(
                st.integers(0, 7), min_size=len(vals), max_size=len(vals)
            )
        )
        pairs = data.draw(st.permutations(list(zip(keys, vals))))
        rk = np.asarray([k for k, _ in pairs], dtype=np.int64)
        rv = _array(s, [v for _, v in pairs])
        got_keys, got_vals = s.reduce_sorted_runs(rk, rv)
        out_keys, out_vals = _fold(s, keys, vals)
        assert np.array_equal(got_keys, out_keys)
        assert np.array_equal(got_vals, out_vals)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_spa_accumulate_agrees_with_runs(self, name, data):
        """The dense SPA and the sort-based run reduction are the same
        reduction — the kernel choice (Figure 3) must never change the
        result, whatever the semiring."""
        s = SEMIRINGS[name]
        vals = data.draw(_values(name))
        n = 16
        keys = data.draw(
            st.lists(
                st.integers(0, n - 1), min_size=len(vals), max_size=len(vals)
            )
        )
        spa = SPA(n, s)
        spa.accumulate(np.asarray(keys, dtype=np.int64), _array(s, vals))
        got_keys, got_vals = spa.extract_and_reset()
        run_keys, run_vals = s.reduce_sorted_runs(
            np.asarray(keys, dtype=np.int64), _array(s, vals)
        )
        assert np.array_equal(got_keys, run_keys)
        assert np.array_equal(got_vals, run_vals)

    @pytest.mark.parametrize("side", ["sort", "scan"])
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_spa_extract_is_the_unique_sorted_formulation(self, name, side, data):
        """The occupancy read-out and the touched-list sort on either side
        of the size crossover both return what sorting the touched list
        and gathering a scatter-combined dense vector returns — with
        duplicate positions, several batches, and again after a reset."""
        s = SEMIRINGS[name]
        length = 8 * OCCUPANCY_SCAN_RATIO
        spa = SPA(length, s)
        for _round in range(2):
            # Below 8 touched entries the SPA sorts; from 8 on it scans.
            total = data.draw(st.integers(2, 7) if side == "sort" else st.integers(8, 40))
            pool = data.draw(
                st.lists(st.integers(0, length - 1), min_size=1, max_size=4)
            )
            positions = data.draw(
                st.lists(st.sampled_from(pool), min_size=total - 1, max_size=total - 1)
            )
            positions = np.asarray([positions[0], *positions], dtype=np.int64)
            values = _array(
                s, data.draw(st.lists(_DOMAINS[name], min_size=total, max_size=total))
            )
            cut = data.draw(st.integers(0, total))
            for lo, hi in ((0, cut), (cut, total)):
                spa.accumulate(positions[lo:hi], values[lo:hi])

            dense = np.full(length, s.identity, dtype=s.dtype)
            s.reduce_at(dense, positions, values)
            want = kernels.unique_sorted(positions)
            for got in (spa.extract(), spa.extract_and_reset()):
                assert np.array_equal(got[0], want)
                assert np.array_equal(got[1], dense[want])
                assert got[0].dtype == np.int64 and got[1].dtype == s.dtype
            empty = spa.extract()
            assert empty[0].size == 0 and empty[1].size == 0

    def test_spa_reset_clears_exactly_the_occupied(self, name):
        s = SEMIRINGS[name]
        value = _array(s, [7, 9, 7])
        for length in (4, 8 * OCCUPANCY_SCAN_RATIO):  # scan side, sort side
            spa = SPA(length, s)
            spa.accumulate(np.array([3, 1, 3]), value)
            spa.reset()
            assert spa.extract()[0].size == 0
            spa.accumulate(np.array([2]), value[:1])
            idx, val = spa.extract()
            assert np.array_equal(idx, [2]) and np.array_equal(val, value[:1])

    def test_empty_runs_are_the_identity(self, name):
        s = SEMIRINGS[name]
        empty_k = np.empty(0, dtype=np.int64)
        empty_v = np.empty(0, dtype=s.dtype)
        got_keys, got_vals = s.reduce_sorted_runs(empty_k, empty_v)
        assert got_keys.size == 0 and got_vals.size == 0

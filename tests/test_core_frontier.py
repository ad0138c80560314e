"""Tests for the frontier manipulation primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import dedup_candidates
from repro.kernels import bucket_by_owner, pack_pairs, unpack_pairs


class TestDedupCandidates:
    def test_keeps_max_parent(self):
        targets = np.array([5, 3, 5, 3, 5], dtype=np.int64)
        parents = np.array([1, 9, 7, 2, 4], dtype=np.int64)
        t, p = dedup_candidates(targets, parents)
        assert np.array_equal(t, [3, 5])
        assert np.array_equal(p, [9, 7])

    def test_sorted_output(self):
        rng = np.random.default_rng(0)
        t, p = dedup_candidates(rng.integers(0, 50, 200), rng.integers(0, 50, 200))
        assert np.all(np.diff(t) > 0)

    def test_empty(self):
        t, p = dedup_candidates(np.empty(0, np.int64), np.empty(0, np.int64))
        assert t.size == p.size == 0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        t1, p1 = dedup_candidates(rng.integers(0, 20, 80), rng.integers(0, 99, 80))
        t2, p2 = dedup_candidates(t1, p1)
        assert np.array_equal(t1, t2)
        assert np.array_equal(p1, p2)


def _dedup_oracle(targets, parents):
    """Pure-Python (select, max) reference for dedup_candidates."""
    best = {}
    for t, p in zip(np.asarray(targets).tolist(), np.asarray(parents).tolist()):
        if t not in best or p > best[t]:
            best[t] = p
    keys = sorted(best)
    return (
        np.array(keys, dtype=np.int64),
        np.array([best[t] for t in keys], dtype=np.int64),
    )


class TestDedupBranches:
    """dedup_candidates has a composite-key fast path plus a lexsort
    fallback for inputs whose ``target * span + parent`` key would not
    fit an int64; both must produce identical (select, max) output."""

    def _check(self, targets, parents):
        targets = np.asarray(targets, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        t, p = dedup_candidates(targets, parents)
        want_t, want_p = _dedup_oracle(targets, parents)
        assert np.array_equal(t, want_t)
        assert np.array_equal(p, want_p)

    def test_negative_parent_forces_lexsort(self):
        # parents.min() < 0 disqualifies the composite key outright.
        self._check([7, 3, 7, 3], [-1, 5, 2, -1])

    def test_all_negative_parents(self):
        self._check([4, 4, 9], [-3, -1, -2])

    def test_huge_targets_force_lexsort(self):
        base = 1 << 61
        self._check(
            [base + 5, base + 2, base + 5, base + 2],
            [1, 9, 4, 3],
        )

    def test_huge_parent_span_forces_lexsort(self):
        # span = parents.max() + 1 > 2**62: the key would overflow even
        # for tiny targets (and parents near 2**63 would wrap span itself).
        self._check([1, 2, 1, 1], [2**62 + 3, 0, 2**62 + 9, 2**63 - 1])

    def test_branches_agree_under_target_shift(self):
        """The same logical input pushed through both branches: shifting
        every target by 2**61 flips the composite guard without changing
        the dedup structure, so results must match after unshifting."""
        rng = np.random.default_rng(7)
        targets = rng.integers(0, 100, 400)
        parents = rng.integers(0, 50, 400)
        fast_t, fast_p = dedup_candidates(targets, parents)
        shift = np.int64(1) << 61
        slow_t, slow_p = dedup_candidates(targets + shift, parents)
        assert np.array_equal(slow_t - shift, fast_t)
        assert np.array_equal(slow_p, fast_p)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**63 - 1),
                st.integers(-(2**63), 2**63 - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_oracle_agreement_full_int64_range(self, pairs):
        """Whichever branch fires, output matches the dict-max oracle —
        including spans and targets that sit right on the overflow guard."""
        targets = [t for t, _ in pairs]
        parents = [p for _, p in pairs]
        self._check(targets, parents)


class TestPackUnpack:
    def test_round_trip(self):
        v = np.array([1, 2, 3], dtype=np.int64)
        p = np.array([10, 20, 30], dtype=np.int64)
        buf = pack_pairs(v, p)
        assert buf.size == 6
        v2, p2 = unpack_pairs(buf)
        assert np.array_equal(v, v2) and np.array_equal(p, p2)

    def test_interleaved_layout(self):
        buf = pack_pairs(np.array([7]), np.array([8]))
        assert list(buf) == [7, 8]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            pack_pairs(np.array([1]), np.array([1, 2]))

    def test_odd_buffer_rejected(self):
        with pytest.raises(ValueError, match="odd length"):
            unpack_pairs(np.array([1, 2, 3]))


class TestBucketByOwner:
    def test_groups_preserve_pairing(self):
        owners = np.array([2, 0, 1, 0, 2], dtype=np.int64)
        a = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        b = np.array([20, 21, 22, 23, 24], dtype=np.int64)
        groups, counts = bucket_by_owner(owners, 3, a, b)
        assert np.array_equal(counts, [2, 1, 2])
        ga, gb = groups[0]
        assert np.array_equal(ga, [11, 13]) and np.array_equal(gb, [21, 23])
        ga, gb = groups[2]
        assert np.array_equal(ga, [10, 14]) and np.array_equal(gb, [20, 24])

    def test_empty_buckets_present(self):
        groups, counts = bucket_by_owner(
            np.array([3], dtype=np.int64), 5, np.array([9], dtype=np.int64)
        )
        assert len(groups) == 5
        assert counts.sum() == 1
        assert groups[0][0].size == 0
        assert groups[3][0][0] == 9

    def test_out_of_range_owner(self):
        with pytest.raises(ValueError, match="out of range"):
            bucket_by_owner(np.array([5]), 3, np.array([1]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 2**30)),
        max_size=80,
    )
)
def test_dedup_is_groupby_max(pairs):
    """Property: dedup == groupby(target).max(parent)."""
    targets = np.array([p[0] for p in pairs], dtype=np.int64)
    parents = np.array([p[1] for p in pairs], dtype=np.int64)
    t, p = dedup_candidates(targets, parents)
    expected = {}
    for tt, pp in pairs:
        expected[tt] = max(expected.get(tt, -1), pp)
    assert list(t) == sorted(expected)
    assert all(p[i] == expected[t[i]] for i in range(t.size))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2**40), max_size=60),
    st.lists(st.integers(0, 2**40), max_size=60),
)
def test_pack_unpack_round_trip(xs, ys):
    k = min(len(xs), len(ys))
    v = np.array(xs[:k], dtype=np.int64)
    p = np.array(ys[:k], dtype=np.int64)
    v2, p2 = unpack_pairs(pack_pairs(v, p))
    assert np.array_equal(v, v2)
    assert np.array_equal(p, p2)

"""Representation-count functions: pointwise variants, truncated counts, profiles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repbal import repfn
from repbal.builders import build_evil_odious, build_family
from repbal.intset import BoundedSet, OutOfWindowError
from repbal.repfn import (
    pairs_at,
    r1,
    r1_profile,
    r2,
    r2_prefix,
    r2_profile,
    r2_profile_naive,
    r3,
    reverse_mask,
)


def small_sets(max_bound=96):
    return st.integers(1, max_bound).flatmap(
        lambda bound: st.builds(
            BoundedSet, bound=st.just(bound), mask=st.integers(0, (1 << bound) - 1)
        )
    )


class TestPointwise:
    def test_strict_pairs_hand_enumerated(self):
        s = BoundedSet.from_elements([0, 1, 2, 3], 8)
        assert r2(s, 3) == 2  # (0,3), (1,2)

    def test_variant_split_at_two(self):
        s = BoundedSet.from_elements([0, 1, 2, 3], 8)
        assert (r1(s, 2), r2(s, 2), r3(s, 2)) == (3, 1, 2)

    def test_family_prefix_at_13(self):
        a, _, _ = build_family("s1t1", 1, 14)
        assert a.elements() == [0, 4, 7, 9, 13]
        assert r2(a, 13) == 2  # (0,13), (4,9)

    @given(small_sets(), st.data())
    def test_ordered_splits_into_strict_and_weak(self, s, data):
        n = data.draw(st.integers(0, s.bound - 1))
        assert r1(s, n) == r2(s, n) + r3(s, n)

    def test_exhaustive_split_small_bound(self):
        for mask in range(1 << 10):
            s = BoundedSet(10, mask)
            for n in range(10):
                assert r1(s, n) == r2(s, n) + r3(s, n)

    def test_window_errors(self):
        s = BoundedSet.from_elements([0, 1], 4)
        for fn in (r1, r2, r3):
            with pytest.raises(OutOfWindowError):
                fn(s, 4)

    def test_widen_permits_larger_sums(self):
        s = BoundedSet.from_elements([0, 1], 4)
        assert r2(s.widen(8), 5) == 0


class TestPrefix:
    def test_identity_when_truncation_covers_window(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        for n in range(10, 16):
            assert r2_prefix(s, 15, n) == r2(s, n)

    def test_hand_enumerated(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        assert r2_prefix(s, 5, 8) == 1  # (3,5)

    @given(small_sets(), st.data())
    def test_count_at_n_needs_only_the_prefix(self, s, data):
        n = data.draw(st.integers(0, s.bound - 1))
        assert r2_prefix(s, n, n) == r2(s, n)

    def test_truncation_beyond_sum_is_identity(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        assert r2_prefix(s, 9, 8) == r2(s, 8)

    def test_truncation_outside_window_rejected(self):
        s = BoundedSet.from_elements([0, 3], 16)
        with pytest.raises(OutOfWindowError):
            r2_prefix(s, 16, 8)


class TestProfiles:
    @given(small_sets())
    def test_kernel_matches_naive_oracle(self, s):
        n_max = s.bound - 1
        assert list(r2_profile(s, n_max)) == r2_profile_naive(s, n_max)

    @given(small_sets(), st.data())
    def test_kernel_matches_pointwise(self, s, data):
        n_max = data.draw(st.integers(0, s.bound - 1))
        profile = r2_profile(s, n_max)
        for n in range(n_max + 1):
            assert profile[n] == r2(s, n)

    @given(small_sets(), st.data())
    def test_ordered_profile_splits_into_strict_and_weak(self, s, data):
        n_max = data.draw(st.integers(0, s.bound - 1))
        p1, p2 = r1_profile(s, n_max), r2_profile(s, n_max)
        assert len(p1) == len(p2) == n_max + 1
        for n in range(n_max + 1):
            assert p1[n] == r1(s, n) == p2[n] + r3(s, n)

    def test_odd_off_diagonal_count_is_refused(self, monkeypatch):
        # ordered pairs off the diagonal come in mirrored twos; an odd count means a broken kernel
        monkeypatch.setattr(repfn, "_ordered_counts", lambda s, n_max: [1] * (n_max + 1))
        with pytest.raises(RuntimeError, match="^odd count 1 of off-diagonal ordered pairs at sum 0$"):
            r2_profile(BoundedSet.from_elements([1], 4), 3)

    def test_empty_set_all_zero(self):
        assert set(r2_profile(BoundedSet.empty(64), 63)) == {0}

    def test_zero_beyond_twice_the_maximum(self):
        s = BoundedSet.from_elements([1, 4], 64)
        profile = r2_profile(s, 63)
        assert all(profile[n] == 0 for n in range(2 * 4 + 1, 64))

    @given(small_sets())
    def test_strict_count_at_most_half_of_n(self, s):
        profile = r2_profile(s, s.bound - 1)
        for n in range(s.bound):
            assert profile[n] <= (n + 1) // 2

    def test_evil_odious_prefix_profiles_equal(self):
        # the two halves of [0, 2^l) balance exactly, for every l
        for l in range(0, 8):
            bound = max(2 ** (l + 1) - 1, 1)
            evil, odious = build_evil_odious(bound)
            pe = r2_profile(evil.truncate(2**l - 1), bound - 1)
            po = r2_profile(odious.truncate(2**l - 1), bound - 1)
            assert pe == po

    def test_window_error(self):
        with pytest.raises(OutOfWindowError):
            r2_profile(BoundedSet.empty(8), 8)


class TestPairCount:
    @given(st.integers(1, 130).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1), st.integers(0, (1 << w) - 1),
                            st.sampled_from([0, w - 1]) | st.integers(0, w - 1))
    ))
    def test_matches_direct_enumeration(self, case):
        width, x, y, n = case
        expected = sum(1 for a in range(n + 1) if (x >> a) & 1 and (y >> (n - a)) & 1)
        assert pairs_at(x, reverse_mask(y, width), width, n) == expected

    @given(st.integers(0, 1 << 80), st.integers(0, 90))
    def test_reverse_keeps_only_the_window(self, mask, width):
        rev = reverse_mask(mask, width)
        assert rev >> width == 0
        assert all((rev >> (width - 1 - a)) & 1 == (mask >> a) & 1 for a in range(width))

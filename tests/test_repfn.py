"""Representation-count functions: single sums, truncated counts, profiles."""

import decimal
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repbal import repfn
from repbal.builders import build_evil_odious, build_family
from repbal.intset import BoundedSet, OutOfWindowError
from repbal.repfn import (
    first_r2_difference,
    pairs_at,
    r1_profile,
    r2_prefix,
    r2_profile,
    r2_profile_naive,
    strict_counts,
)


def small_sets(max_bound=96):
    return st.integers(1, max_bound).flatmap(
        lambda bound: st.builds(
            BoundedSet, bound=st.just(bound), mask=st.integers(0, (1 << bound) - 1)
        )
    )


def direct_counts(s, n):
    """(ordered, strict, weak) pair counts of s at sum n, enumerated member by member."""
    members = set(s)
    partners = [a for a in members if n - a in members]
    return (
        len(partners),
        sum(1 for a in partners if a < n - a),
        sum(1 for a in partners if a <= n - a),
    )


class TestPointwise:
    """Single sums read off the profiles, against hand and member-by-member enumeration."""

    def test_strict_pairs_hand_enumerated(self):
        s = BoundedSet.from_elements([0, 1, 2, 3], 8)
        assert r2_profile(s, 3)[3] == 2  # (0,3), (1,2)

    def test_variant_split_at_two(self):
        s = BoundedSet.from_elements([0, 1, 2, 3], 8)
        assert direct_counts(s, 2) == (3, 1, 2)
        assert (r1_profile(s, 2)[2], r2_profile(s, 2)[2]) == (3, 1)

    def test_family_prefix_at_13(self):
        a, _, _ = build_family("s1t1", 1, 14)
        assert a.elements() == [0, 4, 7, 9, 13]
        assert r2_profile(a, 13)[13] == 2  # (0,13), (4,9)

    @given(small_sets(), st.data())
    def test_ordered_splits_into_strict_and_weak(self, s, data):
        n = data.draw(st.integers(0, s.bound - 1))
        ordered, strict, weak = direct_counts(s, n)
        assert ordered == strict + weak
        assert (r1_profile(s, n)[n], r2_profile(s, n)[n]) == (ordered, strict)

    def test_exhaustive_split_small_bound(self):
        for mask in range(1 << 10):
            s = BoundedSet(10, mask)
            p1, p2 = r1_profile(s, 9), r2_profile(s, 9)
            for n in range(10):
                ordered, strict, weak = direct_counts(s, n)
                assert p1[n] == ordered == strict + weak and p2[n] == strict

    def test_window_errors(self):
        s = BoundedSet.from_elements([0, 1], 4)
        for fn in (r1_profile, r2_profile, r2_profile_naive):
            with pytest.raises(OutOfWindowError):
                fn(s, 4)
        with pytest.raises(OutOfWindowError):
            r2_prefix(s, 1, 4)

    def test_larger_bound_permits_larger_sums(self):
        s = BoundedSet.from_elements([0, 1], 4)
        assert r2_profile(BoundedSet(8, s.mask), 5)[5] == 0


class TestPrefix:
    def test_identity_when_truncation_covers_window(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        for n in range(10, 16):
            assert r2_prefix(s, 15, n) == direct_counts(s, n)[1]

    def test_hand_enumerated(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        assert r2_prefix(s, 5, 8) == 1  # (3,5)

    @given(small_sets(), st.data())
    def test_count_at_n_needs_only_the_prefix(self, s, data):
        n = data.draw(st.integers(0, s.bound - 1))
        assert r2_prefix(s, n, n) == direct_counts(s, n)[1]

    def test_truncation_beyond_sum_is_identity(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        assert r2_prefix(s, 9, 8) == direct_counts(s, 8)[1]

    @given(small_sets(), st.data())
    def test_matches_pointwise_count_on_the_truncated_set(self, s, data):
        x = data.draw(st.integers(0, s.bound - 1))
        n = data.draw(st.integers(0, s.bound - 1))
        assert r2_prefix(s, x, n) == direct_counts(s.truncate(x), n)[1]

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
            assert profile[n] == direct_counts(s, n)[1]

    @given(small_sets(), st.data())
    def test_ordered_profile_splits_into_strict_and_weak(self, s, data):
        n_max = data.draw(st.integers(0, s.bound - 1))
        p1, p2 = r1_profile(s, n_max), r2_profile(s, n_max)
        assert len(p1) == len(p2) == n_max + 1
        for n in range(n_max + 1):
            ordered, _, weak = direct_counts(s, n)
            assert p1[n] == ordered == p2[n] + weak

    def test_odd_off_diagonal_count_is_refused(self, monkeypatch):
        # ordered pairs off the diagonal come in mirrored twos; an odd count means a broken kernel
        monkeypatch.setattr(repfn, "_ordered_counts", lambda s, n_max: [1] * (n_max + 1))
        with pytest.raises(RuntimeError, match="^odd count 1 of off-diagonal ordered pairs at sum 0$"):
            r2_profile(BoundedSet.from_elements([1], 4), 3)

    def test_empty_set_all_zero(self):
        assert set(r2_profile(BoundedSet(64), 63)) == {0}

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
            r2_profile(BoundedSet(8), 8)


class TestPairCount:
    @given(st.integers(0, 130), st.integers(0, 1 << 170), st.integers(0, 1 << 170))
    @example(0, 0b11, 0b11)
    @example(9, (1 << 20) - 1, (1 << 20) - 1)
    def test_matches_direct_enumeration(self, n, x, y):
        # x and y mostly hold bits above n, which must count for nothing
        expected = sum(1 for a in range(n + 1) if (x >> a) & 1 and (y >> (n - a)) & 1)
        assert pairs_at(x, y, n) == expected


def sparse_set(bound, seed, density=0.05):
    rng = random.Random(seed)
    return BoundedSet.from_elements([x for x in range(bound) if rng.random() < density], bound)


def ordered_from_oracle(s, n_max):
    # every strict pair counts twice, and an element a counts once more at 2a
    strict = r2_profile_naive(s, n_max)
    return [2 * strict[n] + (n % 2 == 0 and (s.mask >> (n // 2)) & 1) for n in range(n_max + 1)]


class TestSquarePath:
    """Every profile, at every width, squares a packed indicator instead of looping pairs_at."""

    @pytest.fixture
    def no_pairs_at(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the square path looped pairs_at")

        monkeypatch.setattr(repfn, "pairs_at", refuse)

    @pytest.mark.parametrize("width", [1, 2, 513, 1025, 2049, 8191, 8192, 8193, 1 << 14])
    def test_wide_profiles_do_not_loop_pairs_at(self, no_pairs_at, width):
        assert len(r1_profile(BoundedSet(width, (1 << width) - 1), width - 1)) == width

    @pytest.mark.parametrize("width", [8191, 8192, 9999, 10000, 10001])
    def test_full_set_closed_form(self, width):
        # in [0, width) every sum n has n + 1 ordered pairs, the largest counts a field holds;
        # the field width grows by one digit between 9999 and 10000
        full = BoundedSet(width, (1 << width) - 1)
        assert r1_profile(full, width - 1) == tuple(range(1, width + 1))
        assert r2_profile(full, width - 1) == tuple((n + 1) // 2 for n in range(width))

    @pytest.mark.parametrize("width", [(1 << 13) - 1, 1 << 13, (1 << 13) + 1, 1 << 14])
    def test_sparse_sets_match_naive_oracle(self, width):
        s = sparse_set(width, seed=width)
        assert list(r2_profile(s, width - 1)) == r2_profile_naive(s, width - 1)
        assert list(r1_profile(s, width - 1)) == ordered_from_oracle(s, width - 1)

    @pytest.mark.parametrize("n_max", [(1 << 13) - 1, 1 << 13, 9000, 3 * (1 << 13) - 2])
    def test_elements_above_n_max_take_no_part(self, n_max):
        bound = 3 * (1 << 13)
        s = sparse_set(bound, seed=n_max, density=0.03) | BoundedSet.from_elements([bound - 1], bound)
        assert list(r2_profile(s, n_max)) == r2_profile_naive(s, n_max)
        assert r1_profile(s, n_max) == r1_profile(s.truncate(n_max), n_max)

    def test_the_callers_decimal_context_is_ignored(self):
        s = sparse_set(1 << 14, seed=3, density=0.3)
        expected = r2_profile(s, (1 << 14) - 1)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = True
            assert r2_profile(s, (1 << 14) - 1) == expected
            assert decimal.getcontext().prec == 5
        assert list(expected) == r2_profile_naive(s, (1 << 14) - 1)

    @given(small_sets(), st.data())
    def test_square_matches_oracle_at_every_small_width(self, s, data):
        # every width, and every field width d it needs, goes down the square path
        n_max = data.draw(st.integers(0, s.bound - 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repfn, "pairs_at", None)
            p1, p2 = r1_profile(s, n_max), r2_profile(s, n_max)
        assert list(p2) == r2_profile_naive(s, n_max)
        assert list(p1) == ordered_from_oracle(s, n_max)


def first_profile_difference(s, t, n_max, profile=r2_profile):
    """The reference for first_r2_difference: compare two whole profiles sum by sum."""
    ps, pt = profile(s, n_max), profile(t, n_max)
    return next((n for n in range(n_max + 1) if ps[n] != pt[n]), None)


# Widths on both sides of every step in the field width d, and of the square cutover.
STEP_WIDTHS = [9, 10, 99, 100, 999, 1000, 9999, 10000, 8191, 8192, 8193]
NAIVE_WIDTH = 200  # the pair-enumeration oracle also runs up to here


@st.composite
def set_pairs(draw):
    """(s, t, n_max): s random, t related to it by the drawn kind, n_max = width - 1 <= bound - 1."""
    width = draw(st.sampled_from(STEP_WIDTHS) | st.integers(1, 130))
    kind = draw(st.sampled_from(["equal", "above", "diagonal", "flip", "random"]))
    bound = width + draw(st.integers(1 if kind == "above" else 0, 3))
    n_max = width - 1
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.02, 0.3, 0.5, 0.9]))

    def random_mask(low=0):
        return sum(1 << x for x in range(low, bound) if rng.random() < density)

    if kind == "diagonal":
        # s = {a} plus members b with a + b > n_max: up to n_max, a changes r1 at 2a alone and r2 nowhere
        a = rng.randrange(n_max // 2 + 1)
        s = BoundedSet(bound, random_mask(n_max - a + 1) | 1 << a)
        return s, BoundedSet(bound, s.mask & ~(1 << a)), n_max
    s = BoundedSet(bound, random_mask())
    if kind == "equal":
        mask = s.mask
    elif kind == "above":
        mask = s.mask ^ (random_mask(width) | 1 << rng.randrange(width, bound))
    elif kind == "flip":
        mask = s.mask ^ 1 << rng.randrange(bound)
    else:
        mask = random_mask()
    return s, BoundedSet(bound, mask), n_max


class TestFirstDifference:
    """The balance product against the two-profile comparison it replaces."""

    @settings(deadline=None)
    @given(set_pairs())
    @example((BoundedSet.from_elements([3], 8), BoundedSet(8), 7))  # the diagonal pair (3, 3)
    @example((BoundedSet(10000, (1 << 10000) - 1), BoundedSet(10000, (1 << 10000) - 1), 9999))
    def test_matches_the_first_differing_profile_entry(self, case):
        s, t, n_max = case
        found = first_r2_difference(s, t, n_max)
        assert found == first_profile_difference(s, t, n_max)
        assert found == first_r2_difference(t, s, n_max)
        if n_max < NAIVE_WIDTH:
            assert found == first_profile_difference(s, t, n_max, r2_profile_naive)

    @pytest.mark.parametrize("width", STEP_WIDTHS)
    def test_full_set_against_one_missing_element(self, width):
        # the full set fills every field to its largest count, n + 1
        full = BoundedSet(width, (1 << width) - 1)
        for x in (0, 1, width // 2, width - 1):
            t = BoundedSet(width, full.mask & ~(1 << x))
            assert first_r2_difference(full, t, width - 1) == first_profile_difference(full, t, width - 1)

    def test_a_first_difference_that_fills_a_whole_field(self):
        # found by a depth-first search: the counts agree up to 24, then read 5 and 0, so
        # the product's field 25 holds 10 and needs both of its d = 2 digits
        s = BoundedSet.from_elements([0, 3, 5, 6, 10, 11, 15, 18, 19, 20, 21, 22, 23, 25], 64)
        t = BoundedSet.from_elements([1, 2, 4, 7, 9, 13, 14, 17, 19, 20, 22], 64)
        assert (r2_profile(s, 25)[25], r2_profile(t, 25)[25]) == (5, 0)
        for n_max in (25, 63):
            assert first_r2_difference(s, t, n_max) == 25 == first_profile_difference(s, t, n_max)

    def test_differences_above_n_max_are_not_seen(self):
        # the first unequal sum is 50, and a member above n_max changes no sum up to it
        s = BoundedSet.from_elements([20, 30], 64)
        t = BoundedSet.from_elements([20, 31], 64)
        assert first_r2_difference(s, t, 49) is None
        assert first_r2_difference(s, t, 50) == 50
        assert first_r2_difference(s | BoundedSet.from_elements([55], 64), t, 49) is None

    def test_window_errors(self):
        s, t = BoundedSet.from_elements([0, 1], 8), BoundedSet.from_elements([0, 2], 4)
        assert first_r2_difference(s, t, 3) == 1
        for n_max in (4, 8, -1):
            with pytest.raises(OutOfWindowError):
                first_r2_difference(s, t, n_max)
            with pytest.raises(OutOfWindowError):
                first_r2_difference(t, s, n_max)

    def test_the_callers_decimal_context_is_ignored(self):
        s = sparse_set(1 << 14, seed=4, density=0.3)
        t = BoundedSet(s.bound, s.mask ^ 1 << 9000)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = True
            found = first_r2_difference(s, t, (1 << 14) - 1)
        assert found == first_profile_difference(s, t, (1 << 14) - 1)


class TestStrictCounts:
    def test_mask_shorter_than_half_the_profile(self):
        s = BoundedSet.from_elements([0, 1], 64)
        ordered = r1_profile(s, 63)
        assert max(s) < 63 // 2
        assert strict_counts(ordered, s.mask) == (0, 1) + (0,) * 62

    @given(small_sets(), st.data())
    def test_bits_above_half_the_profile_are_ignored(self, s, data):
        n_max = data.draw(st.integers(0, s.bound - 1))
        junk = data.draw(st.integers(0, (1 << 200) - 1)) << (n_max // 2 + 1)
        ordered = r1_profile(s, n_max)
        low_half = s.mask & ((1 << (n_max // 2 + 1)) - 1)
        assert list(strict_counts(ordered, low_half)) == r2_profile_naive(s, n_max)
        assert strict_counts(ordered, s.mask | junk) == strict_counts(ordered, low_half)

    def test_empty_profile(self):
        assert strict_counts([], 0b1011) == ()

"""Representation-count functions: single sums, truncated counts, profiles."""

import decimal
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repbal import repfn
from repbal.intset import MAX_BOUND, BoundedSet, OutOfWindowError
from repbal.repfn import (
    first_r2_difference,
    pairs_at,
    r1_profile,
    r2_prefix,
    r2_profile,
    r2_profile_naive,
    strict_counts,
)
from support import never, random_set, small_sets


def direct_counts(s, n):
    """(ordered, strict, weak) pair counts of s at sum n, enumerated member by member."""
    members = set(s)
    partners = [a for a in members if n - a in members]
    return (
        len(partners),
        sum(1 for a in partners if a < n - a),
        sum(1 for a in partners if a <= n - a),
    )


def assert_profiles_match_the_oracles(s, n_max):
    """R1, R2 and the weak counts at every sum up to n_max against member-by-member enumeration,
    R2 against the pair-enumerating oracle too; the profiles square, and never loop pairs_at."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repfn, "pairs_at", never("the square path looped pairs_at"))
        p1, p2 = r1_profile(s, n_max), r2_profile(s, n_max)
    ordered, strict, weak = zip(*(direct_counts(s, n) for n in range(n_max + 1)))
    assert p1 == ordered == tuple(map(operator.add, strict, weak))
    assert p2 == strict == tuple(r2_profile_naive(s, n_max))


class TestPointwise:
    """Single sums read off the profiles: hand-enumerated, and refused outside the window."""

    def test_strict_pairs_hand_enumerated(self):
        s = BoundedSet.from_elements([0, 1, 2, 3], 8)
        assert r2_profile(s, 3)[3] == 2  # (0,3), (1,2)
        assert direct_counts(s, 2) == (3, 1, 2)  # (0,2), (1,1), (2,0)
        assert (r1_profile(s, 2)[2], r2_profile(s, 2)[2]) == (3, 1)
        s1t1_a = BoundedSet.from_elements([0, 4, 7, 9, 13], 14)  # s1t1:1's A, pinned in test_builders
        assert r2_profile(s1t1_a, 13)[13] == 2  # (0,13), (4,9)
        assert r2_prefix(BoundedSet.from_elements([0, 3, 5, 9], 16), 5, 8) == 1  # (3,5)

    def test_exhaustive_split_small_bound(self):
        for mask in range(1 << 10):
            assert_profiles_match_the_oracles(BoundedSet(10, mask), 9)

    def test_window_errors(self):
        # a sum or a truncation at the bound is refused, and a larger window admits the sum
        s = BoundedSet.from_elements([0, 1], 4)
        for fn, args in [(r1_profile, (4,)), (r2_profile, (4,)), (r2_profile_naive, (4,)),
                         (r2_prefix, (1, 4)), (r2_prefix, (4, 1))]:
            with pytest.raises(OutOfWindowError):
                fn(s, *args)
        assert r2_profile(BoundedSet(8, s.mask), 5)[5] == 0


class TestProfiles:
    @given(small_sets(96).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s.bound - 1))))
    @example((BoundedSet(64), 63))  # the empty set: every count is 0
    @example((BoundedSet.from_elements([1, 4], 64), 63))  # no pair sums past twice the maximum
    @example((BoundedSet(96, (1 << 96) - 1), 95))  # the full set: n + 1 ordered pairs, (n + 1) // 2 strict
    def test_kernel_matches_naive_oracle(self, case):
        assert_profiles_match_the_oracles(*case)

    def test_odd_off_diagonal_count_is_refused(self, monkeypatch):
        # ordered pairs off the diagonal come in mirrored twos; an odd count means a broken kernel
        monkeypatch.setattr(repfn, "_ordered_counts", lambda s, n_max: [1] * (n_max + 1))
        with pytest.raises(RuntimeError, match="^odd count 1 of off-diagonal ordered pairs at sum 0$"):
            r2_profile(BoundedSet.from_elements([1], 4), 3)


PREFIX_SET = BoundedSet.from_elements([0, 3, 5, 9], 16)


class TestPrefix:
    @given(small_sets(96).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(0, s.bound - 1), st.integers(0, s.bound - 1))
    ))
    @example((PREFIX_SET, 9, 9))  # x = n: the count at n needs only the prefix up to n
    @example((PREFIX_SET, 9, 8))  # x > n
    @example((PREFIX_SET, 15, 10))  # x = bound - 1: truncation covers the window
    def test_matches_pointwise_count_on_the_truncated_set(self, case):
        s, x, n = case
        strict = direct_counts(s.truncate(x), n)[1]
        assert r2_prefix(s, x, n) == strict
        if x >= n:  # members above n take no part in the count at n
            assert strict == direct_counts(s, n)[1]


class TestPairCount:
    @given(st.integers(0, 130), st.integers(0, 1 << 170), st.integers(0, 1 << 170))
    @example(0, 0b11, 0b11)
    @example(9, (1 << 20) - 1, (1 << 20) - 1)
    def test_matches_direct_enumeration(self, n, x, y):
        # x and y mostly hold bits above n, which must count for nothing
        expected = sum(1 for a in range(n + 1) if (x >> a) & 1 and (y >> (n - a)) & 1)
        assert pairs_at(x, y, n) == expected


def diagonal_at(mask, n):
    """1 if the diagonal pair (n/2, n/2) is in the set with this mask, else 0."""
    return int(n % 2 == 0 and (mask >> (n // 2)) & 1)


def ordered_from_oracle(s, n_max):
    # every strict pair counts twice, and an element a counts once more at 2a
    strict = r2_profile_naive(s, n_max)
    return [2 * strict[n] + diagonal_at(s.mask, n) for n in range(n_max + 1)]


class TestSquarePath:
    """Every profile, at every width, squares a packed indicator instead of looping pairs_at."""

    @pytest.fixture
    def no_pairs_at(self, monkeypatch):
        monkeypatch.setattr(repfn, "pairs_at", never("the square path looped pairs_at"))

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
        s = random_set(random.Random(width), width, 0.05)
        assert list(r2_profile(s, width - 1)) == r2_profile_naive(s, width - 1)
        assert list(r1_profile(s, width - 1)) == ordered_from_oracle(s, width - 1)

    @pytest.mark.parametrize("n_max", [(1 << 13) - 1, 1 << 13, 9000, 3 * (1 << 13) - 2])
    def test_elements_above_n_max_take_no_part(self, n_max):
        bound = 3 * (1 << 13)
        s = random_set(random.Random(n_max), bound, 0.03)
        s = BoundedSet(bound, s.mask | 1 << (bound - 1))
        assert list(r2_profile(s, n_max)) == r2_profile_naive(s, n_max)
        assert r1_profile(s, n_max) == r1_profile(s.truncate(n_max), n_max)

    def test_the_callers_decimal_context_is_ignored(self):
        s = random_set(random.Random(3), 1 << 14, 0.3)
        expected = r2_profile(s, (1 << 14) - 1)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = True
            assert r2_profile(s, (1 << 14) - 1) == expected
            assert decimal.getcontext().prec == 5
        assert list(expected) == r2_profile_naive(s, (1 << 14) - 1)


def fields_by_int(numeral, width, d):
    """The reference for repfn._fields: one int() per d-digit field, lowest field first."""
    fields = numeral[-width * d:].zfill(width * d)
    return [int(fields[i - d:i]) for i in range(width * d, 0, -d)]


def ordered_counts_by_int(s, n_max):
    """The same square as repfn._ordered_counts, read out one int() per field."""
    width = n_max + 1
    packed, d = repfn._packed(s.mask, width)
    return fields_by_int(str(repfn._EXACT.multiply(packed, packed)), width, d)


# Widths on both sides of every step in the field width d, up to d = 5.
FIELD_STEP_WIDTHS = [1, 9, 10, 99, 100, 999, 1000, 9999, 10000]


class TestLaneReadOut:
    """The square's fields read through 32-bit lanes, against one int() per field."""

    @settings(deadline=None)
    @given(
        st.sampled_from(FIELD_STEP_WIDTHS),
        st.sampled_from([0.02, 0.3, 0.5, 0.9, 1.0]),  # 1.0 is the full set, the largest counts
        st.integers(0, 3),
        st.integers(0, 2**32),
    )
    @example(10000, 1.0, 0, 0)
    @example(1, 1.0, 0, 0)
    def test_profile_matches_one_int_per_field(self, width, density, extra, seed):
        s = random_set(random.Random(seed), width + extra, density)  # members above n_max take no part
        assert repfn._ordered_counts(s, width - 1).tolist() == ordered_counts_by_int(s, width - 1)

    @pytest.mark.parametrize("density", [0.5, 1.0])
    def test_profile_at_2_16(self, density):
        s = random_set(random.Random(16), 1 << 16, density)
        assert repfn._ordered_counts(s, (1 << 16) - 1).tolist() == ordered_counts_by_int(s, (1 << 16) - 1)

    @given(st.integers(1, 8), st.integers(1, 40), st.text("0123456789", min_size=1, max_size=400))
    @example(8, 3, "9" * 24)
    @example(3, 5, "7")  # fewer digits than fields: the missing high fields are 0
    def test_any_numeral_matches_one_int_per_field(self, d, width, numeral):
        assert repfn._fields(numeral, width, d).tolist() == fields_by_int(numeral, width, d)

    def test_the_widest_field_fits_a_lane(self):
        # a window up to MAX_BOUND has fields of len(str(MAX_BOUND)) digits
        d = len(str(MAX_BOUND))
        widest = 10**d - 1
        assert repfn._fields("9" * 3 * d, 3, d).tolist() == [widest] * 3
        assert repfn._fields(str(widest) + "0" * d + str(widest), 3, d).tolist() == [widest, 0, widest]

    def test_a_field_too_wide_for_a_lane_is_refused(self):
        with pytest.raises(OverflowError):
            repfn._fields("1" + "0" * 9, 1, 10)


def first_profile_difference(s, t, n_max, profile=r2_profile):
    """The reference for first_r2_difference: compare two whole profiles sum by sum."""
    ps, pt = profile(s, n_max), profile(t, n_max)
    return next((n for n in range(n_max + 1) if ps[n] != pt[n]), None)


# Widths on both sides of every step in the field width d, and of 2^13: no width changes the kernel.
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
        return random_set(rng, bound, density, low).mask

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
        assert first_r2_difference(BoundedSet(64, s.mask | 1 << 55), t, 49) is None

    def test_window_errors(self):
        s, t = BoundedSet.from_elements([0, 1], 8), BoundedSet.from_elements([0, 2], 4)
        assert first_r2_difference(s, t, 3) == 1
        for n_max in (4, 8, -1):
            with pytest.raises(OutOfWindowError):
                first_r2_difference(s, t, n_max)
            with pytest.raises(OutOfWindowError):
                first_r2_difference(t, s, n_max)

    def test_the_callers_decimal_context_is_ignored(self):
        s = random_set(random.Random(4), 1 << 14, 0.3)
        t = BoundedSet(s.bound, s.mask ^ 1 << 9000)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = True
            found = first_r2_difference(s, t, (1 << 14) - 1)
        assert found == first_profile_difference(s, t, (1 << 14) - 1)


# The largest count a field holds in a window up to MAX_BOUND, and so the largest ordered count.
WIDEST_FIELD = 10 ** len(str(MAX_BOUND)) - 1


@st.composite
def strict_profiles(draw):
    """(strict counts, mask, ordered counts 2 * strict + diagonal, a few sums, an even sum)
    at a width of either parity; the sums are where a fault goes in."""
    width = draw(st.integers(1, 300) | st.sampled_from(FIELD_STEP_WIDTHS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = draw(st.sampled_from([0, 1, 255, 1 << 16, (WIDEST_FIELD - 1) // 2]))
    strict = [rng.randint(0, top) for _ in range(width)]
    mask = rng.getrandbits(width + 8)  # bits past half the width are no sum's diagonal
    ordered = [2 * c + diagonal_at(mask, n) for n, c in enumerate(strict)]
    sums = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3))
    return strict, mask, ordered, sums, 2 * draw(st.integers(0, (width - 1) // 2))


class TestStrictCounts:
    @settings(deadline=None)
    @given(strict_profiles())
    @example(([WIDEST_FIELD // 2] * 3, 0b11, [WIDEST_FIELD, WIDEST_FIELD - 1, WIDEST_FIELD], [2, 1], 2))
    def test_lanes_match_the_per_sum_formula(self, case):
        strict, mask, ordered, sums, even = case
        per_sum = tuple((count - diagonal_at(mask, n)) // 2 for n, count in enumerate(ordered))
        assert strict_counts(ordered, mask) == per_sum == tuple(strict)
        # one more ordered pair at a few sums: the lowest of them is named
        odd = [count + (n in sums) for n, count in enumerate(ordered)]
        n = min(sums)
        off = odd[n] - diagonal_at(mask, n)
        with pytest.raises(RuntimeError, match=f"^odd count {off} of off-diagonal ordered pairs at sum {n}$"):
            strict_counts(odd, mask)
        # no ordered pair at an even sum whose diagonal pair is there: its lane borrows from the next
        zero = ordered[:even] + [0] + ordered[even + 1:]
        with pytest.raises(RuntimeError, match=f"^odd count -1 of off-diagonal ordered pairs at sum {even}$"):
            strict_counts(zero, mask | 1 << (even // 2))

    @pytest.mark.parametrize("count", [-1, 2**32, 2**64 + 2])
    @pytest.mark.parametrize("n", [0, 1, 4, 5])
    def test_a_count_no_lane_holds_is_refused(self, count, n):
        # a lane holds 0 to 2^32 - 1, and past that a count would spill into lane n + 1; the odd
        # check alone would pass 2^32, and -1 less a diagonal pair, which is -2
        for mask in (0, 0b111):
            with pytest.raises(OverflowError):
                strict_counts([count if i == n else 2 + diagonal_at(mask, i) for i in range(6)], mask)

    def test_mask_shorter_than_half_the_profile(self):
        s = BoundedSet.from_elements([0, 1], 64)
        ordered = r1_profile(s, 63)
        assert max(s) < 63 // 2
        assert strict_counts(ordered, s.mask) == (0, 1) + (0,) * 62

    @given(small_sets(96), st.data())
    def test_bits_above_half_the_profile_are_ignored(self, s, data):
        n_max = data.draw(st.integers(0, s.bound - 1))
        junk = data.draw(st.integers(0, (1 << 200) - 1)) << (n_max // 2 + 1)
        ordered = r1_profile(s, n_max)
        low_half = s.mask & ((1 << (n_max // 2 + 1)) - 1)
        assert list(strict_counts(ordered, low_half)) == r2_profile_naive(s, n_max)
        assert strict_counts(ordered, s.mask | junk) == strict_counts(ordered, low_half)

    def test_empty_profile(self):
        assert strict_counts([], 0b1011) == ()

    def test_the_least_of_several_odd_sums_is_named(self):
        # off the diagonal the counts are 0, 0, 3, 3, 6, 5: sums 2, 3 and 5 are odd, and
        # sum 2 only once its diagonal pair (1, 1) is taken off
        with pytest.raises(RuntimeError, match="^odd count 3 of off-diagonal ordered pairs at sum 2$"):
            strict_counts([1, 0, 4, 3, 6, 5], 0b011)

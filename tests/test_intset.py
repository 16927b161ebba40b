"""Bounded-set primitives: membership, set algebra, truncation, text format."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repbal.builders import build_evil_odious
from repbal.intset import (
    MAX_BOUND,
    BoundedSet,
    OutOfWindowError,
    ProgressionSpec,
    check_bound,
    partition_fault,
    progression_set,
)


def small_sets(max_bound=64):
    return st.integers(1, max_bound).flatmap(
        lambda bound: st.builds(
            BoundedSet,
            bound=st.just(bound),
            mask=st.integers(0, (1 << bound) - 1),
        )
    )


class TestChi:
    def test_member(self):
        s = BoundedSet.from_elements([0, 3, 5], 8)
        assert s.chi(3) == 1

    def test_non_member(self):
        s = BoundedSet.from_elements([0, 3, 5], 8)
        assert s.chi(4) == 0

    def test_evil_prefix_member(self):
        # 6 = 110 in binary, two ones
        evil, _ = build_evil_odious(16)
        assert evil.chi(6) == 1

    def test_out_of_window_raises(self):
        s = BoundedSet.from_elements([0, 3, 5], 8)
        with pytest.raises(OutOfWindowError):
            s.chi(8)
        with pytest.raises(OutOfWindowError):
            s.chi(-1)

    def test_contains_mirrors_chi(self):
        s = BoundedSet.from_elements([2], 4)
        assert 2 in s and 3 not in s
        with pytest.raises(OutOfWindowError):
            4 in s


class TestTruncate:
    def test_basic(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        assert s.truncate(5).elements() == [0, 3, 5]

    def test_identity_at_top(self):
        s = BoundedSet.from_elements([0, 3, 5, 9], 16)
        assert s.truncate(15) == s

    def test_evil_prefix(self):
        evil, _ = build_evil_odious(8)
        assert evil.truncate(3).elements() == [0, 3]

    def test_out_of_window_raises(self):
        with pytest.raises(OutOfWindowError):
            BoundedSet(8).truncate(8)

    @given(small_sets(), st.data())
    def test_subset_and_max(self, s, data):
        x = data.draw(st.integers(0, s.bound - 1))
        cut = s.truncate(x)
        assert cut.mask & ~s.mask == 0
        if cut:
            assert max(cut) <= x


class TestFromElements:
    @given(st.integers(1, 300).flatmap(
        lambda bound: st.tuples(st.just(bound), st.lists(st.integers(0, bound - 1), unique=True))
    ))
    def test_matches_the_sum_of_bits(self, case):
        bound, elements = case
        assert BoundedSet.from_elements(elements, bound).mask == sum(1 << e for e in elements)

    @pytest.mark.parametrize("element", [-1, 16, 17, 1000])
    def test_element_outside_the_window_rejected(self, element):
        with pytest.raises(ValueError, match=rf"^element {element} outside \[0, 16\)$"):
            BoundedSet.from_elements([3, element, 5], 16)

    def test_negative_bound_reports_the_element(self):
        with pytest.raises(ValueError, match=r"^element 3 outside \[0, -20\)$"):
            BoundedSet.from_elements([3], -20)


def _bit_clearing_elements(mask):
    """Reference iterator: peel the lowest set bit, one whole-mask operation per element."""
    elements = []
    while mask:
        low = mask & -mask
        elements.append(low.bit_length() - 1)
        mask ^= low
    return elements


class TestIteration:
    @given(st.integers(1, 300).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.one_of(
                st.just(0),
                st.just((1 << bound) - 1),
                st.integers(0, (1 << bound) - 1),
                st.lists(st.integers(0, bound - 1), max_size=4).map(lambda es: sum({1 << e for e in es})),
            ),
        )
    ))
    @example(case=(1, 1))  # bit 0 is also bit bound - 1
    @example(case=(17, 1))  # bit 0 alone
    @example(case=(17, 1 << 16))  # bit bound - 1 alone
    @example(case=(17, 1 | 1 << 16))
    @example(case=(5, 0))
    @example(case=(0, 0))  # the empty window
    def test_matches_the_bit_clearing_reference(self, case):
        bound, mask = case
        s = BoundedSet(bound, mask)
        assert list(s) == s.elements() == _bit_clearing_elements(mask)


class TestProgression:
    def test_odd_numbers(self):
        assert progression_set(ProgressionSpec(1, 2), 8).elements() == [1, 3, 5, 7]

    def test_offset_two_step_three(self):
        assert progression_set(ProgressionSpec(2, 3), 10).elements() == [2, 5, 8]

    def test_offset_four_step_five(self):
        assert progression_set(ProgressionSpec(4, 5), 20).elements() == [4, 9, 14, 19]

    @given(st.integers(0, 80), st.integers(2, 45), st.integers(0, 2100))
    @example(r=4, m=3, bound=5)  # only r itself fits
    @example(r=0, m=2, bound=1)
    @example(r=0, m=2, bound=0)
    @example(r=9, m=4, bound=3)  # r past the bound
    def test_matches_the_listed_elements(self, r, m, bound):
        expected = BoundedSet.from_elements(range(r, bound, m), bound)
        assert progression_set(ProgressionSpec(r, m), bound) == expected

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match=r"^bound must be >= 0, got -20$"):
            progression_set(ProgressionSpec(3, 4), -20)

    @given(st.integers(0, 50), st.integers(2, 50))
    def test_anchor_is_the_least_value_outside(self, r, m):
        excluded = set(range(r, r + 2 * m + 2, m))
        least = next(x for x in range(r + 2) if x not in excluded)
        assert ProgressionSpec(r, m).anchor == least

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ValueError):
            ProgressionSpec(0, 1)
        with pytest.raises(ValueError):
            ProgressionSpec(-1, 3)


@st.composite
def split_windows(draw):
    """(width, masks): 0-4 masks that split [0, width + 8) by a drawn owner per value, then
    up to three flipped bits, so faults fall anywhere, past the window too, or nowhere."""
    width, k = draw(st.integers(0, 70)), draw(st.integers(0, 4))
    if k == 0:
        return width, []
    owners = draw(st.lists(st.integers(0, k - 1), min_size=width + 8, max_size=width + 8))
    masks = [sum(1 << x for x, owner in enumerate(owners) if owner == i) for i in range(k)]
    for i, x in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, width + 7)), max_size=3)):
        masks[i] ^= 1 << x
    return width, masks


class TestPartitionFault:
    @given(split_windows())
    @example(case=(0, []))  # the empty window splits, even into no masks
    @example(case=(0, [0b11, 0b01]))  # every bit past the window is ignored
    @example(case=(5, []))  # no mask covers 0
    @example(case=(5, [0b1111111]))  # one mask covering the window and past it
    @example(case=(5, [0b1101111]))  # one mask with a gap at 4
    @example(case=(4, [0b0101, 0b1010, 0b0100]))  # the lowest bad value is covered twice
    def test_matches_a_per_value_count(self, case):
        width, masks = case
        counts = [sum(mask >> x & 1 for mask in masks) for x in range(width)]
        assert partition_fault(width, *masks) == next((x for x, n in enumerate(counts) if n != 1), None)


class TestSetAlgebra:
    @settings(max_examples=60)
    @given(st.integers(1, 1 << 12), st.data())
    def test_ops_agree_with_elementwise_membership(self, bound, data):
        mask_a = data.draw(st.integers(0, (1 << bound) - 1))
        mask_b = data.draw(st.integers(0, (1 << bound) - 1))
        a, b = BoundedSet(bound, mask_a), BoundedSet(bound, mask_b)
        ea, eb = set(a), set(b)
        assert set(a | b) == ea | eb
        assert set(a & b) == ea & eb

    def test_bound_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BoundedSet(4) | BoundedSet(5)


class TestTextFormat:
    def test_round_trip_example(self):
        s = BoundedSet.from_elements([0, 4, 7, 9, 13], 14)
        assert s.to_text() == "bound=14\n0,4,7,9,13\n"
        assert BoundedSet.from_text(s.to_text()) == s

    def test_empty_round_trip(self):
        s = BoundedSet(5)
        assert BoundedSet.from_text(s.to_text()) == s

    @given(small_sets())
    def test_round_trip_exact(self, s):
        assert BoundedSet.from_text(s.to_text()) == s

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            BoundedSet.from_text("bound=8\n3,1\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            BoundedSet.from_text("size=8\n1\n")

    def test_element_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            BoundedSet.from_text("bound=4\n1,9\n")

    def test_negative_bound_rejected_before_the_elements(self):
        # the constructor's message, not a complaint about the first element
        with pytest.raises(ValueError, match=r"^bound must be >= 0, got -20$"):
            BoundedSet.from_text("bound=-20\n3\n")

    def test_bound_above_max_bound_rejected(self):
        with pytest.raises(ValueError, match=f"^bound {MAX_BOUND + 1} exceeds {MAX_BOUND}$"):
            BoundedSet.from_text(f"bound={MAX_BOUND + 1}\n1,9\n")
        assert BoundedSet.from_text(f"bound={MAX_BOUND}\n\n") == BoundedSet(MAX_BOUND)


def test_check_bound_caps_the_window():
    assert check_bound(MAX_BOUND) == MAX_BOUND
    with pytest.raises(ValueError, match=r"^bound 16777217 exceeds 16777216$"):
        check_bound(MAX_BOUND + 1)


def test_mask_beyond_bound_rejected():
    with pytest.raises(ValueError):
        BoundedSet(3, 0b1000)

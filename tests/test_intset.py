"""Bounded-set primitives: the digit constructors, membership, truncation, text format."""

import dataclasses
import inspect
import random
import re

import pytest
from hypothesis import example, given
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
from support import small_sets


class TestChi:
    def test_contains_mirrors_chi(self):
        s = BoundedSet.from_elements([2], 4)
        assert 2 in s and 3 not in s
        with pytest.raises(OutOfWindowError):
            4 in s

    @given(small_sets(80), st.randoms(use_true_random=False))
    @example(BoundedSet(1, 0), random.Random(0))  # one position, absent
    @example(BoundedSet(1, 1), random.Random(0))  # one position, present
    @example(BoundedSet(9, 0b101), random.Random(0))  # the top bit clear: the view pads to the bound
    @example(BoundedSet.from_elements([0, 3, 5], 8), random.Random(0))
    def test_reads_the_mask_bit_in_any_order(self, s, rng):
        order = [*range(s.bound)] * 2
        rng.shuffle(order)
        assert [s.chi(t) for t in order] == [(s.mask >> t) & 1 for t in order]
        for t in (-1, s.bound):
            with pytest.raises(OutOfWindowError) as refused:
                s.chi(t)
            assert str(refused.value) == f"chi({t}) outside the window [0, {s.bound})"

    def test_a_read_set_is_its_fields(self):
        s = BoundedSet.from_elements([0, 3, 5], 8)
        assert s.chi(3) == 1
        fresh = BoundedSet(8, s.mask)
        assert (s, hash(s), repr(s)) == (fresh, hash(fresh), repr(fresh))
        assert [f.name for f in dataclasses.fields(BoundedSet)] == ["bound", "mask"]
        assert inspect.isfunction(vars(BoundedSet)["chi"])  # where a tracer wraps and counts it


class TestTruncate:
    def test_out_of_window_raises(self):
        with pytest.raises(OutOfWindowError):
            BoundedSet(8).truncate(8)

    @given(small_sets(64).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s.bound - 1))))
    @example((BoundedSet.from_elements([0, 3, 5, 9], 16), 5))
    @example((BoundedSet.from_elements([0, 3, 5, 9], 16), 15))  # the top of the window: s itself
    @example((build_evil_odious(8)[0], 3))
    def test_subset_and_max(self, case):
        # the subset of the members at most x, in the same window
        s, x = case
        assert s.truncate(x) == BoundedSet.from_elements([e for e in s if e <= x], s.bound)


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

    def test_negative_bound_rejected_without_elements(self):
        # the empty digit buffer must not stand in for the bound
        with pytest.raises(ValueError, match=r"^bound must be >= 0, got -3$"):
            BoundedSet.from_elements([], -3)


class TestFromDigits:
    @given(st.lists(st.sampled_from(b"01"), max_size=300).map(bytearray))
    @example(digits=bytearray())
    @example(digits=bytearray(b"1"))
    def test_matches_the_positions_holding_a_one(self, digits):
        members = [x for x, d in enumerate(digits) if d == ord("1")]
        bound = len(digits)
        assert BoundedSet.from_digits(bound, digits) == BoundedSet.from_elements(members, bound)


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
    @example(case=(17, (1 << 17) - 1))  # every bit
    @example(case=(5, 0))
    @example(case=(0, 0))  # the empty window
    def test_matches_the_bit_clearing_reference(self, case):
        bound, mask = case
        s = BoundedSet(bound, mask)
        per_bit = [i for i in range(bound) if mask >> i & 1]
        assert list(s) == s.elements() == _bit_clearing_elements(mask) == per_bit
        assert s.elements() is not s.elements()  # each caller owns its list


class TestProgression:
    @given(st.integers(0, 80), st.integers(2, 45), st.integers(0, 2100))
    @example(r=1, m=2, bound=8)  # the odd numbers
    @example(r=2, m=3, bound=10)
    @example(r=4, m=5, bound=20)
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


class TestTextFormat:
    def test_round_trip_example(self):
        s = BoundedSet.from_elements([0, 4, 7, 9, 13], 14)
        assert s.to_text() == "bound=14\n0,4,7,9,13\n"
        assert BoundedSet.from_text(s.to_text()) == s

    def test_empty_round_trip(self):
        s = BoundedSet(5)
        assert BoundedSet.from_text(s.to_text()) == s

    @given(small_sets(64))
    def test_round_trip_exact(self, s):
        assert BoundedSet.from_text(s.to_text()) == s

    @pytest.mark.parametrize("text,message", [
        ("bound=16\n1,x\n", "element 'x' is not an integer"),
        ("bound=16\n1,2,,3\n", "element '' is not an integer"),
        ("bound=16\n1, 2,3.0\n", "element '3.0' is not an integer"),
        ("bound=x\n1\n", "bound 'x' is not an integer"),
        # past 20 characters a field is shown by its head and length, and digits are out of range
        pytest.param("bound=16\n1," + "9" * 5000 + "\n",
                     "element '99999999999999999999'… (5000 characters) is out of range", id="huge-element"),
        pytest.param("bound=16\n1,-" + "9" * 4400 + "\n",
                     "element '-9999999999999999999'… (4401 characters) is out of range", id="huge-negative"),
        pytest.param("bound=" + "9" * 4400 + "\n1\n",
                     "bound '99999999999999999999'… (4400 characters) is out of range", id="huge-bound"),
        pytest.param("bound=16\n1," + "x" * 20 + "\n",
                     "element 'xxxxxxxxxxxxxxxxxxxx' is not an integer", id="twenty-word"),
        pytest.param("bound=16\n1," + "x" * 21 + "\n",
                     "element 'xxxxxxxxxxxxxxxxxxxx'… (21 characters) is not an integer", id="long-word"),
        pytest.param("bound=16\n1," + "9" * 4400 + "x\n",
                     "element '99999999999999999999'… (4401 characters) is not an integer", id="huge-word"),
    ])
    def test_field_that_is_no_integer_is_named(self, text, message):
        # the first bad field and the fixture format, not int()'s own text
        fixture = ": expected 'bound=<N>' then comma-separated integers"
        with pytest.raises(ValueError, match=f"^{re.escape(message + fixture)}$"):
            BoundedSet.from_text(text)

    def test_repr_shows_the_first_twelve_members(self):
        assert repr(BoundedSet(20, ((1 << 20) - 1) ^ 0b100)) == (
            "BoundedSet(bound=20, {0,1,3,4,5,6,7,8,9,10,11,12,...})"
        )
        assert repr(BoundedSet(5, 0b101)) == "BoundedSet(bound=5, {0,2})"

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

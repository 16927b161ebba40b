"""Family builders against brute-force subset enumeration and frozen examples."""

from itertools import combinations

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repbal import builders, cli
from repbal.builders import (
    FAMILIES,
    S1T1,
    S1T1_SHIFTED,
    S2T2,
    AmbiguousParityError,
    build_ef,
    build_evil_odious,
    build_family,
    build_parity_sets,
    build_xy,
    doubling_weights,
    family_cells,
    family_of,
    family_progression,
    family_weights,
)
from repbal.intset import BoundedSet, ProgressionSpec, partition_fault, progression_set
from repbal.repfn import r2_profile_naive

# A family whose weights are the sequence s1(l) or s2(l).
SEQUENCE_FAMILY = {"s1": S1T1, "s2": S2T2}


def digit_sum_2(n):
    """Count of 1 digits in the binary representation of n."""
    return bin(n).count("1")


def brute_parity_sums(weights, bound):
    """Oracle: enumerate every subset of the weights outright."""
    ws = [w for w in weights if w < bound]
    even, odd = set(), set()
    for k in range(len(ws) + 1):
        for combo in combinations(ws, k):
            total = sum(combo)
            if total < bound:
                (even if k % 2 == 0 else odd).add(total)
    return even, odd


def shifted_by_one(s):
    """s translated by one inside its window; the top element, if any, drops out."""
    return BoundedSet(s.bound, (s.mask << 1) & ((1 << s.bound) - 1))


# Hand-checked sets, keyed by (family token as on the command line, window); ef:<u> fixes its own
# window, 3 * 2^u + 2.
PINNED = {
    ("uv", 4): {"U": [0, 3], "V": [1, 2]},
    ("uv", 8): {"U": [0, 3, 5, 6], "V": [1, 2, 4, 7]},
    ("xy", 8): {"X": [0, 5, 6, 7], "Y": [2, 3, 4]},
    ("s1t1:0", 16): {"A": [0, 6, 10, 12], "B": [2, 4, 8, 14], "T": [1, 3, 5, 7, 9, 11, 13, 15]},  # doubled evil
    ("s1t1:1", 14): {"A": [0, 4, 7, 9, 13], "B": [1, 3, 6, 10, 12], "T": [2, 5, 8, 11]},
    ("s2t2:1", 13): {"A": [0, 5, 8, 9], "B": [2, 3, 6, 11, 12], "T": [1, 4, 7, 10]},
    ("s1t1+1:0", 8): {"A": [1, 7], "B": [3, 5], "T": [0, 2, 4, 6]},
    ("ef:0", 5): {"E": [0], "F": [2, 3, 4]},
    ("ef:1", 8): {"E": [0, 4, 6], "F": [1, 3, 5, 7]},
}


@pytest.mark.parametrize("token,bound", PINNED)
def test_pinned_sets(token, bound):
    built = cli._build_sets(token, None if token.startswith("ef:") else bound)
    assert [(label, s.bound, s.elements()) for label, s in built] == [
        (label, bound, elements) for label, elements in PINNED[token, bound].items()
    ]


class TestEvilOdious:
    def test_empty_window(self):
        evil, odious = build_evil_odious(0)
        assert evil == odious == BoundedSet(0)

    def test_matches_popcount_enumeration(self):
        # 0 is evil and the two split the window
        evil, odious = build_evil_odious(3000)
        for n in range(3000):
            assert evil.chi(n) == (1 - digit_sum_2(n) % 2)
            assert odious.chi(n) == digit_sum_2(n) % 2

    @pytest.mark.parametrize("l", range(1, 11))
    def test_prefix_density_is_exactly_half(self, l):
        evil, _ = build_evil_odious(1 << l)
        assert len(evil) == 1 << (l - 1)

    def test_only_the_evil_odious_splits_balance(self):
        # Kiss, Theorem 3, by enumeration: a split C, D of [0, m] with 0 in C has equal strict
        # counts at every sum in [1, 2m - 1] (no sum past it has a strict pair) exactly when
        # m = 2^l - 1 and C holds the evil numbers; checked by the pair-enumerating oracle
        balanced = []
        for m in range(1, 13):
            interval = (1 << (m + 1)) - 1
            for c in range(1, interval + 1, 2):  # the masks of subsets of [0, m] holding 0
                left, right = BoundedSet(2 * m, c), BoundedSet(2 * m, interval ^ c)
                if r2_profile_naive(left, 2 * m - 1) == r2_profile_naive(right, 2 * m - 1):
                    balanced.append((m, c))
        assert balanced == [(m, build_evil_odious(m + 1)[0].mask) for m in (1, 3, 7)]


class TestWeightSequences:
    def test_s1_examples(self):
        assert family_weights(S1T1, 1, 14) == [1, 3, 6, 12]
        assert family_weights(S1T1, 0, 16) == [2, 4, 8]
        assert family_weights(S1T1, 3, 40) == [1, 2, 4, 9, 18, 36]

    def test_s2_examples(self):
        assert family_weights(S2T2, 1, 13) == [2, 3, 6, 12]
        assert family_weights(S2T2, 2, 21) == [1, 3, 5, 10, 20]

    def test_s2_zero_degenerates_to_s1_zero(self):
        assert family_weights(S2T2, 0, 4096) == family_weights(S1T1, 0, 4096)

    def test_shifted_family_uses_s1(self):
        assert family_weights(S1T1_SHIFTED, 3, 40) == family_weights(S1T1, 3, 40)

    def test_xy(self):
        assert doubling_weights((2, 3), 4, 40) == [2, 3, 4, 8, 16, 32]

    def test_evil_odious_weights_are_the_powers_of_two(self):
        assert doubling_weights((), 1, 40) == [1, 2, 4, 8, 16, 32]

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("l", range(0, 7))
    def test_strictly_increasing_positive(self, kind, l):
        ws = family_weights(SEQUENCE_FAMILY[kind], l, 1 << 14)
        assert all(w > 0 for w in ws)
        assert all(ws[i] < ws[i + 1] for i in range(len(ws) - 1))

    def test_prefix_past_the_bound_is_cut(self):
        # only the powers of two below the bound survive, however long the prefix
        powers = [1, 2, 4, 8, 16, 32, 64]
        assert family_weights(S1T1, 10**6, 100) == powers
        assert family_weights(S2T2, 10**6, 100) == powers
        assert family_weights(S2T2, 10**13, 100) == powers  # 2^(10^13) would not fit in memory
        assert family_weights(S2T2, 7, 100) == powers[:-1] + [65]
        # l = bound.bit_length() + 1: the bumped 2^7 + 1 is past the bound, and 2^6 stays
        assert family_weights(S2T2, 8, 100) == powers

    def test_validation(self):
        with pytest.raises(ValueError):
            family_weights("bogus", 0, 16)
        with pytest.raises(ValueError):
            family_weights(S1T1, -1, 16)


class TestParitySets:
    def test_single_weight(self):
        even, odd = build_parity_sets([1], 4)
        assert even.elements() == [0]
        assert odd.elements() == [1]
        assert even.mask & odd.mask == 0

    def test_ambiguity_detected(self):
        # 3 = 1 + 2 (two weights) and 3 alone (one weight)
        even, odd = build_parity_sets([1, 2, 3], 8)
        assert (even.mask & odd.mask) >> 3 & 1

    def test_ambiguity_is_a_construction_error_for_pair_builders(self):
        from repbal.builders import _balanced_pair

        with pytest.raises(AmbiguousParityError):
            _balanced_pair([1, 2, 3], 8)

    @pytest.mark.parametrize("weights", [[0, 1], [3, -1]])
    def test_non_positive_weight_rejected(self, weights):
        with pytest.raises(ValueError):
            build_parity_sets(weights, 8)

    @given(st.lists(st.integers(1, 70), max_size=9), st.integers(0, 130))
    def test_random_weights_match_brute_force(self, weights, bound):
        even, odd = build_parity_sets(weights, bound)
        assert (set(even), set(odd)) == brute_parity_sums(weights, bound)

    @pytest.mark.parametrize("kind,l", [("s1", 0), ("s1", 1), ("s1", 2), ("s1", 3),
                                        ("s2", 1), ("s2", 2), ("s2", 3)])
    def test_matches_brute_force(self, kind, l):
        bound = 300
        weights = family_weights(SEQUENCE_FAMILY[kind], l, bound)
        even, odd = build_parity_sets(weights, bound)
        assert (set(even), set(odd)) == brute_parity_sums(weights, bound)


def table_weights(pair, param, bound):
    """The weights the builders module docstring lists for a pair."""
    powers = [1 << i for i in range(param or 0)]
    if pair == "evil/odious":
        prefix, start = [], 1
    elif pair == "xy":
        prefix, start = [2, 3], 4
    elif pair in (S1T1, S1T1_SHIFTED):
        prefix, start = powers, (1 << param) + 1
    elif pair == S2T2:
        prefix, start = powers, (1 << param) + 1
        if param:
            prefix[-1] += 1
    else:  # ef
        prefix, start = powers + [(1 << param) + 1], (2 << param) + 1
    return doubling_weights(prefix, start, bound)


def defined_family(family, l, bound):
    """The pair and progression straight from the table's weights, with l uncapped."""
    a, b = build_parity_sets(table_weights(family, l, bound), bound)
    if family == S1T1_SHIFTED:
        a, b = shifted_by_one(a), shifted_by_one(b)
    return a, b, progression_set(family_progression(family, l), bound)


PAIRS = ([("evil/odious", None), ("xy", None)]
         + [(family, l) for family in FAMILIES for l in range(5)]
         + [("ef", u) for u in range(9)])


@pytest.mark.parametrize("pair,param", PAIRS)
def test_every_pair_is_the_parity_split_of_its_table_weights(pair, param):
    bound = 3 * (1 << param) + 2 if pair == "ef" else 300
    even, odd = build_parity_sets(table_weights(pair, param, bound), bound)
    if pair == "evil/odious":
        built = build_evil_odious(bound)
    elif pair == "xy":
        built = build_xy(bound)
    elif pair == "ef":
        built = build_ef(param)
        odd = BoundedSet(bound, odd.mask | 1 << (bound - 1))  # the top value
    else:
        built = build_family(pair, param, bound)[:2]
        if pair == S1T1_SHIFTED:
            even, odd = shifted_by_one(even), shifted_by_one(odd)
    assert built == (even, odd)


class TestFamilyLookup:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("l", range(0, 21))
    def test_family_of_inverts_family_progression(self, family, l):
        spec = family_progression(family, l)
        first = next(f for f in FAMILIES if family_progression(f, l) == spec)
        assert family_of(spec) == (first, l)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_excluded_value_is_below_the_modulus(self, family):
        # so a grid's r <= factor * m never drops a family cell for a factor >= 1
        for l in range(65):
            spec = family_progression(family, l)
            assert spec.r < spec.m == (1 << l) + 1

    def test_shared_cell_goes_to_the_first_family(self):
        # s1t1 and s2t2 coincide at l = 0
        assert family_of(ProgressionSpec(1, 2)) == (S1T1, 0)

    def test_none_off_the_family_progressions(self):
        # no m <= 200 other than 2^l + 1 with l < 8 is a family modulus
        cells = {family_progression(f, l) for f in FAMILIES for l in range(8)}
        for m in range(2, 201):
            for r in range(0, 2 * m + 1):
                spec = ProgressionSpec(r, m)
                assert (family_of(spec) is None) == (spec not in cells), spec

    def test_cells_are_family_major_up_to_m_max(self):
        expected = [(f, l, family_progression(f, l)) for f in FAMILIES for l in range(4)]
        assert list(family_cells(9)) == expected
        assert list(family_cells(16)) == expected
        assert [(f, l) for f, l, _ in family_cells(2)] == [(f, 0) for f in FAMILIES]
        assert list(family_cells(1)) == []


class TestBuildFamily:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_family("nope", 0, 16)

    @given(st.sampled_from(FAMILIES), st.integers(1, 5000), st.integers(0, 20))
    @example(S2T2, 63, 7)  # a cap of bit_length() alone would build s2(6) here
    @example(S2T2, 65, 8)
    def test_capped_parameter_builds_the_defined_sets(self, family, bound, l):
        cap = bound.bit_length() + 1
        assume(l <= cap + 6)
        built = build_family(family, l, bound)
        assert built == defined_family(family, l, bound)
        if l > cap:
            assert built == build_family(family, cap, bound)

    def test_progression_predictions(self):
        assert family_progression(S1T1, 3).r == 8 and family_progression(S1T1, 3).m == 9
        assert family_progression(S1T1_SHIFTED, 3).r == 0
        assert family_progression(S2T2, 3).r == 4
        assert family_progression(S2T2, 0).r == 1


class TestBuildEF:
    def test_formula_against_direct_assembly(self):
        # independent assembly from evil/odious translates, via plain python sets
        for u in range(0, 13):
            block = 1 << u
            evil = {n for n in range(block) if digit_sum_2(n) % 2 == 0}
            odious = set(range(block)) - evil
            expect_e = evil | {block + 1 + v for v in odious} | {2 * block + 1 + v for v in odious}
            expect_f = (odious | {block + 1 + v for v in evil}
                        | {2 * block + 1 + v for v in evil} | {3 * block + 1})
            e, f = build_ef(u)
            assert set(e) == expect_e
            assert set(f) == expect_f

    @pytest.mark.parametrize("u", range(0, 9))
    def test_partition_postcondition(self, u):
        e, f = build_ef(u)
        block = 1 << u
        assert 0 in e
        assert partition_fault(e.bound, e.mask, f.mask, 1 << block) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_ef(-1)

    def test_a_pair_that_misses_a_value_is_refused(self, monkeypatch):
        # the cover check after the parity split: with 0 taken out of E, 0 is in neither set
        split = builders._balanced_pair

        def without_zero(weights, bound):
            e, f = split(weights, bound)
            return BoundedSet(bound, e.mask & ~1), f

        monkeypatch.setattr(builders, "_balanced_pair", without_zero)
        with pytest.raises(RuntimeError, match="^window pair for u=3 does not cover the window minus 8$"):
            build_ef(3)


class TestBuildXY:
    def test_one_is_skipped(self):
        x, y = build_xy(1024)
        assert 1 not in x and 1 not in y
        assert 0 in x
        assert partition_fault(1024, x.mask, y.mask, 1 << 1) is None

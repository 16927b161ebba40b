"""Identity checkers: valid instances pass, hypothesis violations are rejected,
single-element mutations flip the verdict, injected faults give exact reports."""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repbal import repfn, verify
from repbal.builders import build_ef, build_evil_odious
from repbal.intset import BoundedSet, ProgressionSpec, progression_set
from repbal.solver import forced_extend
from repbal.repfn import r2_prefix, r2_profile
from repbal.verify import (
    CHECK_IDS,
    FourTermBattery,
    InstanceError,
    evil_odious_battery,
    four_term_residual,
    run_suite,
    step_identity_failure,
    step_identity_residual,
    validate_four_term,
    window_pair_batteries,
)


def base_battery():
    """The (r=2, m=3) partition paired with the evil/odious split on [0, 5)."""
    spec = ProgressionSpec(2, 3)
    out = forced_extend(spec, 5)
    evil, odious = build_evil_odious(5)
    t = progression_set(spec, 5)
    return FourTermBattery(out.a, out.b, evil, odious, t, L=2, K=4)


class TestFourTerm:
    def test_base_instance_holds(self):
        battery = base_battery()
        validate_four_term(battery)
        assert four_term_residual(battery, 3, 4) == 0

    def test_epsilon_branch_at_doubled_cutoff(self):
        assert four_term_residual(base_battery(), 4, 4) == 0  # N = 2L

    def test_every_point_of_the_evil_odious_battery(self):
        for r, m in [(2, 3), (1, 3), (4, 5), (2, 5), (8, 9)]:
            battery = evil_odious_battery(ProgressionSpec(r, m))
            validate_four_term(battery)
            for n, N in battery.points():
                assert four_term_residual(battery, n, N) == 0, (r, m, n, N)

    def test_window_pair_battery(self):
        saw_points = 0
        for u, m in [(2, 8), (3, 12), (3, 14)]:
            for battery in window_pair_batteries(u, m, seeds=(0, 1, 2)):
                validate_four_term(battery)
                for n, N in battery.points():
                    assert four_term_residual(battery, n, N) == 0, (u, m, n, N)
                    saw_points += 1
        assert saw_points > 0

    def test_mutation_flips_the_verdict(self):
        # dropping 4 from the second finite set breaks the identity at (n, N) = (4, 4)
        battery = base_battery()
        mutated = dataclasses.replace(battery, d=_flip(battery.d, 4))
        assert four_term_residual(mutated, 4, 4) == 1

    def test_mutation_is_caught_by_validation(self):
        battery = base_battery()
        mutated = dataclasses.replace(battery, d=_flip(battery.d, 4))
        with pytest.raises(InstanceError):
            validate_four_term(mutated)

    def test_bad_window_shape_rejected(self):
        bad = dataclasses.replace(base_battery(), K=5)
        with pytest.raises(InstanceError):
            validate_four_term(bad)

    def test_window_pair_rejects_wrong_second_excluded_value(self):
        # u=2: L = 4 + 6 = 10 lies in the first window set
        with pytest.raises(InstanceError, match="^L=10 must lie outside c$"):
            validate_four_term(next(window_pair_batteries(2, 6)))

    def test_unsolvable_spec_rejected(self):
        with pytest.raises(InstanceError):
            evil_odious_battery(ProgressionSpec(3, 2))

    def test_points_cover_the_window_n_major(self):
        battery = base_battery()
        assert list(battery.points()) == [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]


class TestStepIdentity:
    @pytest.mark.parametrize("r,m", [(2, 3), (4, 5), (1, 2), (1, 3), (8, 9), (2, 5)])
    def test_holds_on_solved_partitions(self, r, m):
        assert step_identity_failure(ProgressionSpec(r, m)) is None

    def test_epsilon_branch_is_reached(self):
        # n = 2r - 1 = 7 sits inside the checked range for (4, 5)
        spec = ProgressionSpec(4, 5)
        out = forced_extend(spec, 9)
        evil, _ = build_evil_odious(9)
        assert step_identity_residual(out.a, progression_set(spec, 9), evil, 4, 7) == 0

    def test_smallest_window(self):
        # r = 1 checks only n = 1
        assert step_identity_failure(ProgressionSpec(1, 2)) is None

    def test_mutation_flips_the_verdict(self):
        spec = ProgressionSpec(2, 3)
        out = forced_extend(spec, 5)
        evil, _ = build_evil_odious(5)
        mutated = BoundedSet(5, evil.mask ^ (1 << 3))  # flip the parity bit of 3
        assert step_identity_residual(out.a, progression_set(spec, 5), mutated, 2, 2) == -1

    def test_zero_offset_rejected(self):
        with pytest.raises(InstanceError):
            step_identity_failure(ProgressionSpec(0, 3))

    def test_contradictory_spec_rejected(self):
        # (2, 2) dies at sum 4, inside its window [0, 5)
        with pytest.raises(InstanceError):
            step_identity_failure(ProgressionSpec(2, 2))


class TestSuite:
    def test_quick_profile_all_pass(self):
        report = run_suite("quick")
        assert report.all_passed
        assert [res.check_id for res in report.results] == list(CHECK_IDS)
        assert all(res.passed == res.instances for res in report.results)

    def test_single_check_selection(self):
        report = run_suite("quick", only="skip-one-partition")
        assert [res.check_id for res in report.results] == ["skip-one-partition"]
        assert report.all_passed

    def test_json_shape(self):
        report = run_suite("quick", only="evil-odious-prefix")
        payload = report.to_json_dict()
        assert payload["all_passed"] is True
        entry = payload["checks"][0]
        assert set(entry) == {"lemma", "instances", "passed", "first_failure"}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_suite("huge")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_suite("quick", only="nope")


class TestInstanceGeneratorsRespectWindows:
    def test_evil_odious_instances_include_the_epsilon_point(self):
        points = list(evil_odious_battery(ProgressionSpec(2, 3)).points())
        assert (4, 4) in points  # N = 2L
        assert (2, 2) in points

    @pytest.mark.parametrize("u", range(5))
    def test_window_pair_batteries_match_the_per_value_loop(self, u):
        seeds = tuple(range(5))
        r = 1 << u
        for m in range(r + 2, 2 * r + 1):  # the second excluded value r + m in [2r + 2, 3r]
            expected = list(_window_pair_batteries_by_chi(u, m, seeds))
            assert list(window_pair_batteries(u, m, seeds)) == expected, (u, m)

    def test_window_pair_prefix_agreement(self):
        battery = next(window_pair_batteries(2, 8, seeds=(0,)))
        for x in range(battery.L):
            assert battery.a.chi(x) == battery.c.chi(x)
        assert battery.t == progression_set(ProgressionSpec(4, 8), battery.t.bound)


def _flip(s, x):
    return BoundedSet(s.bound, s.mask ^ (1 << x))


def _window_pair_batteries_by_chi(u, m, seeds):
    """Reference for window_pair_batteries: place every value of the window one at a time,
    copying c below L and drawing a side for each free value from L up."""
    r = 1 << u
    cutoff, K = r + m, 3 * r + 1
    c, d = build_ef(u)
    t = progression_set(ProgressionSpec(r, m), K + 1)
    for seed in seeds:
        rng = random.Random(seed)
        mask_a = mask_b = 0
        for x in range(K + 1):
            if t.chi(x):
                continue
            side_a = c.chi(x) if x < cutoff else rng.randrange(2)
            if side_a:
                mask_a |= 1 << x
            else:
                mask_b |= 1 << x
        yield FourTermBattery(BoundedSet(K + 1, mask_a), BoundedSet(K + 1, mask_b), c, d, t, cutoff, K)


def _faulty(name, corrupt):
    """A replacement for ``verify.<name>`` that corrupts the original's result."""
    original = getattr(verify, name)
    return lambda *args: corrupt(original(*args), *args)


A_LOSES_40 = ("build_family", lambda abt, *_: (_flip(abt[0], 40),) + abt[1:])

# (injected fault, check run at the quick profile, its exact report entry)
FAULTS = [
    (
        A_LOSES_40,
        "family-balance",
        {"instances": 12, "passed": 0, "first_failure": {
            "inputs": {"family": "s1t1", "l": 0, "n": 40}, "lhs": 2, "rhs": 3}},
    ),
    (
        A_LOSES_40,
        "family-complement",
        {"instances": 12, "passed": 0, "first_failure": {
            "inputs": {"family": "s1t1", "l": 0, "x": 40}, "lhs": 0, "rhs": 1}},
    ),
    (
        A_LOSES_40,
        "solver-family-agreement",
        {"instances": 12, "passed": 0, "first_failure": {
            "inputs": {"family": "s1t1", "l": 0, "status": "completed"}, "lhs": None, "rhs": None}},
    ),
    (
        ("r2_profile_naive", lambda counts, *_: [v + (n == 7) for n, v in enumerate(counts)]),
        "kernel-oracle",
        {"instances": 25, "passed": 0, "first_failure": {
            "inputs": {"set_index": 0, "n": 7}, "lhs": 0, "rhs": 1}},
    ),
    (
        ("step_identity_residual", lambda res, a, t, evil, cutoff, n: res + (n == 3)),
        "step-identity",
        {"instances": 7, "passed": 2, "first_failure": {
            "inputs": {"r": 2, "m": 3, "n": 3}, "lhs": 1, "rhs": 0}},
    ),
    (
        ("build_evil_odious", lambda pair, *_: pair[::-1]),
        "step-identity",
        {"instances": 7, "passed": 0, "first_failure": {
            "inputs": {"r": 1, "m": 2, "check": "first-excluded-parity"}, "lhs": 1, "rhs": 0}},
    ),
    (
        ("four_term_residual", lambda res, bat, n, N: res - (N == 2 * bat.L)),
        "four-term-identity",
        {"instances": 141, "passed": 112, "first_failure": {
            "inputs": {"kind": "evil-odious", "r": 1, "m": 2, "n": 1, "N": 2}, "lhs": -1, "rhs": 0}},
    ),
    (
        ("build_evil_odious", lambda pair, *_: (_flip(pair[0], 0), pair[1])),
        "evil-odious-prefix",
        {"instances": 9, "passed": 2, "first_failure": {
            "inputs": {"l": 2, "n": 3}, "lhs": 0, "rhs": 1}},
    ),
    (
        ("build_xy", lambda xy, bound: tuple(BoundedSet(bound, s.mask & ~(1 << bound - 1)) for s in xy)),
        "skip-one-partition",
        {"instances": 2, "passed": 0, "first_failure": {
            "inputs": {"bound": 2048}, "lhs": 2046, "rhs": 2047}},
    ),
    (
        ("build_xy", lambda xy, *_: tuple(_flip(s, 5) for s in xy)),
        "skip-one-partition",
        {"instances": 2, "passed": 1, "first_failure": {
            "inputs": {"n": 5}, "lhs": 0, "rhs": 1}},
    ),
    (
        ("build_ef", lambda ef, *_: (_flip(ef[0], 0), ef[1])),
        "window-pair",
        {"instances": 7, "passed": 1, "first_failure": {
            "inputs": {"u": 1, "n": 4}, "lhs": 0, "rhs": 1}},
    ),
    (
        ("predicted_solvable_cells", lambda cells, *_: cells | {(3, 2)}),
        "classification-grid",
        {"instances": 96, "passed": 95, "first_failure": {
            "inputs": {"r": 3, "m": 2}, "lhs": "contradiction", "rhs": "completed"}},
    ),
]


class TestFailureRecords:
    """An injected fault yields exactly this report entry: counts and first failure."""

    @pytest.mark.parametrize("fault,check,expected", FAULTS, ids=[f"{c}-{f[0]}" for f, c, _ in FAULTS])
    def test_injected_fault(self, monkeypatch, fault, check, expected):
        name, corrupt = fault
        monkeypatch.setattr(verify, name, _faulty(name, corrupt))
        report = run_suite("quick", only=check)
        assert not report.all_passed
        assert report.to_json_dict()["checks"] == [{"lemma": check, **expected}]


class TestFourTermValidatesEachBatteryOnce:
    """The four-term check validates a battery once, then evaluates all its points."""

    @pytest.mark.parametrize("profile,batteries,points", [("quick", 11, 141), ("full", 23, 1427)])
    def test_one_validation_per_battery(self, monkeypatch, profile, batteries, points):
        validated = []
        validate = verify.validate_four_term
        monkeypatch.setattr(
            verify, "validate_four_term", lambda bat: validated.append(bat) or validate(bat)
        )
        (result,) = run_suite(profile, only="four-term-identity").results
        assert (len(validated), result.instances, result.passed) == (batteries, points, points)

    def test_a_first_excluded_value_inside_c_is_refused(self, monkeypatch):
        # with evil and odious swapped, c holds L = 1; validation, not the generator, refuses it
        swap = _faulty("build_evil_odious", lambda pair, *_: pair[::-1])
        monkeypatch.setattr(verify, "build_evil_odious", swap)
        with pytest.raises(InstanceError, match="^L=1 must lie outside c$"):
            run_suite("quick", only="four-term-identity")


class TestKernelOracleRunsTheSquare:
    """kernel-oracle checks the one profile kernel that every width runs."""

    def test_passes_without_pairs_at(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a profile looped pairs_at")

        monkeypatch.setattr(repfn, "pairs_at", refuse)
        assert run_suite("quick", only="kernel-oracle").to_json_dict()["checks"] == [
            {"lemma": "kernel-oracle", "instances": 25, "passed": 25, "first_failure": None}
        ]

    def test_a_perturbed_square_is_reported_at_its_sum(self, monkeypatch):
        # two more ordered pairs at sum 300 of 513 make one more strict pair there
        square = repfn._ordered_counts
        monkeypatch.setattr(repfn, "_ordered_counts", lambda s, n_max: [
            count + 2 * (n == 300) for n, count in enumerate(square(s, n_max))])
        assert run_suite("quick", only="kernel-oracle").to_json_dict()["checks"] == [
            {"lemma": "kernel-oracle", "instances": 25, "passed": 0, "first_failure": {
                "inputs": {"set_index": 0, "n": 300}, "lhs": 1, "rhs": 0}}
        ]


def _profile_verdict_by_profiles(inputs, left, right, n_max):
    """The reference for verify._profile_verdict: two whole profiles, compared sum by sum."""
    pl, pr = r2_profile(left, n_max), r2_profile(right, n_max)
    for n in range(1, n_max + 1):
        if pl[n] != pr[n]:
            return {"inputs": {**inputs, "n": n}, "lhs": pl[n], "rhs": pr[n]}
    return None


class TestFailureRecordOnTheSquarePath:
    def test_full_family_balance_matches_the_two_profile_record(self, monkeypatch):
        # at full every family pair spans 2^14 sums, and a lost 9000 first unbalances
        # a sum above 8192
        monkeypatch.setattr(verify, "build_family", _faulty(
            "build_family", lambda abt, *_: (_flip(abt[0], 9000),) + abt[1:]))
        checks = run_suite("full", only="family-balance").to_json_dict()["checks"]
        monkeypatch.setattr(verify, "_profile_verdict", _profile_verdict_by_profiles)
        assert checks == run_suite("full", only="family-balance").to_json_dict()["checks"]
        assert checks[0]["passed"] == 0 and checks[0]["first_failure"]["inputs"]["n"] >= 8192


class TestValidationMessages:
    """validate_four_term names the lowest offending value, overlap before coverage.

    The base battery has a = {0, 4}, b = {1, 3}, t = {2}, c = {0, 3}, d = {1, 2, 4},
    L = 2 and K = 4."""

    def _rejects(self, message, **changes):
        bad = dataclasses.replace(base_battery(), **changes)
        with pytest.raises(InstanceError, match=f"^{message}$"):
            validate_four_term(bad)

    def test_a_b_t_overlap_below_a_gap(self):
        base = base_battery()
        self._rejects("a, b and t overlap at 2", a=_flip(base.a, 4), b=_flip(base.b, 2))

    def test_a_b_t_gap_below_an_overlap(self):
        base = base_battery()
        self._rejects("a, b and t leave 3 uncovered", b=_flip(_flip(base.b, 3), 4))

    def test_overlap(self):
        base = base_battery()
        self._rejects("c and d overlap at 3", d=_flip(base.d, 3))

    def test_overlap_below_a_coverage_gap(self):
        base = base_battery()
        self._rejects("c and d overlap at 3", d=_flip(_flip(base.d, 3), 4))

    def test_coverage_gap(self):
        base = base_battery()
        self._rejects("c/d coverage wrong at 4", d=_flip(base.d, 4))

    def test_coverage_gap_below_an_overlap(self):
        base = base_battery()
        self._rejects("c/d coverage wrong at 2", d=_flip(_flip(base.d, 2), 3))

    def test_disagreement_below_L(self):
        base = base_battery()
        self._rejects(
            "the pairs must agree below L, they differ at 1",
            c=_flip(base.c, 1), d=_flip(base.d, 1),
        )

    @given(st.sets(st.integers(1, 13)), st.sets(st.integers(1, 13)))
    def test_masks_match_the_per_value_scan(self, flips_c, flips_d):
        # L = 12 with the excluded value 4 below it; c and d cover [0, K] with K = 13
        battery = next(window_pair_batteries(2, 8, seeds=(0,)))
        flips_c.discard(battery.L)  # L must stay outside c, a check made before these
        c, d = battery.c, battery.d
        for x in flips_c:
            c = _flip(c, x)
        for x in flips_d:
            d = _flip(d, x)
        bad = dataclasses.replace(battery, c=c, d=d)
        expected = _scan_c_d(bad)
        if expected is None:
            validate_four_term(bad)
        else:
            with pytest.raises(InstanceError, match=f"^{expected}$"):
                validate_four_term(bad)

    @given(st.sets(st.integers(1, 13)), st.sets(st.integers(1, 13)), st.sets(st.integers(1, 13)))
    def test_a_b_t_masks_match_the_per_value_scan(self, flips_a, flips_b, swaps):
        # a, b and t cover [0, 13]; a flip of a or b breaks that, while a value swapped
        # between a and b keeps it and leaves the later checks to answer
        battery = next(window_pair_batteries(2, 8, seeds=(0,)))
        bad = _mutated(battery, [flips_a ^ swaps, flips_b ^ swaps])
        expected = _scan_a_b_t(bad) or _scan_c_d(bad)
        if expected is None:
            validate_four_term(bad)
        else:
            with pytest.raises(InstanceError, match=f"^{expected}$"):
                validate_four_term(bad)


def _scan_a_b_t(bat):
    """Reference for validate_four_term's a/b/t check, one value at a time."""
    for x in range(bat.a.bound):
        cover = bat.a.chi(x) + bat.b.chi(x) + bat.t.chi(x)
        if cover != 1:
            return f"a, b and t overlap at {x}" if cover else f"a, b and t leave {x} uncovered"
    return None


def _scan_c_d(bat):
    """Reference for validate_four_term's c/d checks, one value at a time."""
    for x in range(bat.K + 1):
        cx, dx = bat.c.chi(x), bat.d.chi(x)
        if cx and dx:
            return f"c and d overlap at {x}"
        if cx + dx != (0 if x < bat.L and bat.t.chi(x) else 1):
            return f"c/d coverage wrong at {x}"
    for x in range(bat.L):
        if bat.a.chi(x) != bat.c.chi(x) or bat.b.chi(x) != bat.d.chi(x):
            return f"the pairs must agree below L, they differ at {x}"
    return None


def _four_term_residual_by_chi(bat, n, N):
    """Reference for four_term_residual: every cross sum one element at a time."""
    a, b, c, d, t, L = bat.a, bat.b, bat.c, bat.d, bat.t, bat.L
    lhs = r2_prefix(a, n, N) + r2_prefix(d, n, N) - r2_prefix(b, n, N) - r2_prefix(c, n, N)
    excluded_mid = [x for x in range(L, n + 1) if t.chi(x)]
    mid = set(excluded_mid)
    d_only = [x for x in range(n + 1) if d.chi(x) and not b.chi(x) and x not in mid]
    c_only = [x for x in range(n + 1) if c.chi(x) and not a.chi(x) and x not in mid]
    cross_t_d = sum(t.chi(N - x) for x in d_only)
    cross_t_c = sum(t.chi(N - x) for x in c_only)
    cross_d = sum(d.chi(N - x) for x in excluded_mid if d.chi(x))
    cross_c = sum(c.chi(N - x) for x in excluded_mid if c.chi(x))
    eps = 1 if N == 2 * L else 0
    rhs = len(d_only) - cross_t_d + cross_d - len(c_only) + cross_t_c - cross_c - eps
    return lhs - rhs


def _step_identity_residual_by_chi(a, t, evil, cutoff, n):
    """Reference for step_identity_residual, one element at a time."""
    in_t = [x for x in range(n + 1) if t.chi(x)]
    lhs = sum(evil.chi(n - x + 1) for x in in_t)
    eps = 1 if n == 2 * cutoff - 1 else 0
    rhs = sum(evil.chi(n - x) for x in in_t) + a.chi(n + 1) - evil.chi(n + 1) - eps
    return lhs - rhs


def _flip_all(s, flips):
    for x in flips:
        if x < s.bound:
            s = _flip(s, x)
    return s


def _mutated(bat, flips):
    """bat with the listed bits of a, b, c, d and t flipped."""
    names = ("a", "b", "c", "d", "t")
    return dataclasses.replace(
        bat, **{name: _flip_all(getattr(bat, name), f) for name, f in zip(names, flips)}
    )


SOLVABLE = [(2, 3), (1, 3), (1, 2), (4, 5), (2, 5), (8, 9), (4, 9)]
WINDOW_PAIRS = [(2, 8), (3, 12), (3, 14), (3, 15)]
BIT_FLIPS = st.lists(st.sets(st.integers(0, 40), max_size=3), min_size=5, max_size=5)


class TestResidualsAgainstElementwiseReferences:
    """The mask residuals equal the per-element formulas on valid instances and
    on instances with a few bits flipped, where the residual is usually nonzero."""

    @given(st.sampled_from(SOLVABLE), st.data(), BIT_FLIPS)
    def test_four_term_on_evil_odious_instances(self, cell, data, flips):
        battery = evil_odious_battery(ProgressionSpec(*cell))
        n, N = data.draw(st.sampled_from(list(battery.points())))
        assert four_term_residual(battery, n, N) == _four_term_residual_by_chi(battery, n, N) == 0
        bad = _mutated(battery, flips)
        assert four_term_residual(bad, n, N) == _four_term_residual_by_chi(bad, n, N)

    @given(st.sampled_from(WINDOW_PAIRS), st.integers(0, 1 << 30), st.data(), BIT_FLIPS)
    def test_four_term_on_window_pair_instances(self, params, seed, data, flips):
        (battery,) = window_pair_batteries(*params, seeds=(seed,))
        n, N = data.draw(st.sampled_from(list(battery.points())))
        validate_four_term(battery)
        assert four_term_residual(battery, n, N) == _four_term_residual_by_chi(battery, n, N) == 0
        bad = _mutated(battery, flips)
        assert four_term_residual(bad, n, N) == _four_term_residual_by_chi(bad, n, N)

    @given(st.sampled_from(SOLVABLE), st.data(), BIT_FLIPS)
    def test_step_identity(self, cell, data, flips):
        cutoff = cell[0]
        bound = 2 * cutoff + 1
        spec = ProgressionSpec(*cell)
        out = forced_extend(spec, bound)
        t = progression_set(spec, bound)
        evil, _ = build_evil_odious(bound)
        n = data.draw(st.integers(1, 2 * cutoff - 1))
        args = (out.a, t, evil, cutoff, n)
        assert step_identity_residual(*args) == _step_identity_residual_by_chi(*args) == 0
        a, t, e = (_flip_all(s, f) for s, f in zip((out.a, t, evil), flips))
        bad = (a, t, e, cutoff, n)
        assert step_identity_residual(*bad) == _step_identity_residual_by_chi(*bad)

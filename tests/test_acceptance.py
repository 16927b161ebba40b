"""Acceptance suite: every exit criterion at its stated scale, exact arithmetic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import random
import time

import pytest

from repbal.builders import (
    FAMILIES,
    S1T1_SHIFTED,
    build_ef,
    build_evil_odious,
    build_family,
    family_progression,
)
from repbal.intset import BoundedSet, ProgressionSpec, partition_fault, progression_set
from repbal.repfn import r2_profile, r2_profile_naive
from repbal.solver import (
    STATUS_COMPLETED,
    classify_grid,
    forced_extend,
    predicted_solvable_cells,
)
from repbal.verify import (
    FourTermBattery,
    evil_odious_battery,
    four_term_residual,
    step_identity_failure,
    step_identity_residual,
    validate_four_term,
    window_pair_batteries,
)

DESK_BOUND = 1 << 14
GRID_BOUND = 2048
GRID_M_MAX = 33
AGREEMENT_BOUND = 4096


@pytest.fixture(scope="module")
def grid_records():
    return classify_grid(m_max=GRID_M_MAX, r_max_factor=2, bound=GRID_BOUND)


def test_criterion_1_family_identity_at_desk_scale():
    for family in FAMILIES:
        for l in range(0, 7):
            a, b, t = build_family(family, l, DESK_BOUND)
            anchor = 1 if family == S1T1_SHIFTED else 0
            n_max = DESK_BOUND - anchor - 1
            pa = r2_profile(a, n_max)
            pb = r2_profile(b, n_max)
            assert pa[1:] == pb[1:], (family, l)
            assert partition_fault(DESK_BOUND, a.mask, b.mask, t.mask) is None, (family, l)
    print("PASS criterion 1: family pairs balance exactly and complement the "
          "predicted progression at bound 2^14 (families x l in [0,6])")


def test_criterion_2_solver_reproduces_every_family():
    cells = 0
    for family in FAMILIES:
        l = 0
        while family_progression(family, l).m <= GRID_M_MAX:
            spec = family_progression(family, l)
            out = forced_extend(spec, AGREEMENT_BOUND)
            a, b, _ = build_family(family, l, AGREEMENT_BOUND)
            assert out.status == STATUS_COMPLETED, (family, l)
            assert out.a == a and out.b == b, (family, l)
            cells += 1
            l += 1
    assert cells == 18  # 3 families x l in [0, 5]
    print("PASS criterion 2: forced extension equals every family builder "
          "elementwise up to bound 4096 (m <= 33)")


def test_criterion_3_classification_grid(grid_records):
    predicted = predicted_solvable_cells(GRID_M_MAX)
    completed = {(rec.r, rec.m) for rec in grid_records if rec.status == STATUS_COMPLETED}
    survivors = completed - predicted
    assert not survivors, f"cells outside the predicted set completed: {sorted(survivors)}"
    assert completed == predicted
    for rec in grid_records:
        if rec.status == STATUS_COMPLETED:
            assert rec.family is not None, (rec.r, rec.m)
        else:
            assert rec.contradiction_at is not None and rec.forced_value is not None
    print("PASS criterion 3: completed grid cells (m <= 33, r <= 2m, bound 2048) "
          "are exactly the predicted family cells; all others contradict")


def test_criterion_4_special_cases(grid_records):
    by_cell = {(rec.r, rec.m): rec.status for rec in grid_records}
    for m in range(2, GRID_M_MAX + 1):
        expected = STATUS_COMPLETED if m in (2, 3) else "contradiction"
        assert by_cell[(1, m)] == expected, (1, m)
    u = 0
    while (1 << u) <= 2 * GRID_M_MAX:
        r = 1 << u
        for m in range(2, GRID_M_MAX + 1):
            if r > 2 * m:
                continue
            should = m in (r + 1, 2 * r + 1)
            assert (by_cell[(r, m)] == STATUS_COMPLETED) == should, (r, m)
        u += 1
    print("PASS criterion 4: offset 1 completes only for m in {2,3}; offset 2^u "
          "completes only for m in {2^u+1, 2^(u+1)+1}")


def test_criterion_5_evil_odious_prefixes():
    for l in range(0, 11):
        bound = max(2 ** (l + 1) - 1, 1)
        evil, odious = build_evil_odious(bound)
        left = evil.truncate(2**l - 1)
        right = odious.truncate(2**l - 1)
        pe = r2_profile(left, bound - 1)
        po = r2_profile(right, bound - 1)
        assert pe[1:] == po[1:], l
    print("PASS criterion 5: evil/odious prefix pairs balance exactly for "
          "l in [0,10], n <= 2^(l+1)-2")


def test_criterion_6_window_pairs():
    for u in range(0, 9):
        e, f = build_ef(u)
        n_max = e.bound - 1  # = 2^(u+1) + 1 + 2^u
        pe = r2_profile(e, n_max)
        pf = r2_profile(f, n_max)
        assert pe[1:] == pf[1:], u
    print("PASS criterion 6: punctured-window pairs balance exactly for "
          "u in [0,8] over their whole windows")


def test_criterion_7_identity_checkers_and_mutation_sensitivity():
    # four-term identity: full battery, both instance shapes, epsilon branch included
    epsilon_points = 0
    count = 0
    for r, m in sorted(p for p in predicted_solvable_cells(GRID_M_MAX) if p[0] >= 1):
        battery = evil_odious_battery(ProgressionSpec(r, m))
        validate_four_term(battery)
        for n, N in battery.points():
            assert four_term_residual(battery, n, N) == 0, (r, m, n, N)
            epsilon_points += N == 2 * battery.L
            count += 1
    for u, m in [(2, 8), (3, 12), (3, 14), (3, 15), (4, 20), (4, 23)]:
        for battery in window_pair_batteries(u, m):
            validate_four_term(battery)
            for n, N in battery.points():
                assert four_term_residual(battery, n, N) == 0, (u, m, n, N)
                count += 1
    assert epsilon_points > 0 and count > 1000

    # step identity: every realized family cell, epsilon branch at n = 2r-1 included
    for r, m in sorted(p for p in predicted_solvable_cells(GRID_M_MAX) if p[0] >= 1):
        assert step_identity_failure(ProgressionSpec(r, m)) is None, (r, m)

    # sensitivity: at least one single-element mutation flips each identity
    out = forced_extend(ProgressionSpec(2, 3), 5)
    t = progression_set(ProgressionSpec(2, 3), 5)
    evil, odious = build_evil_odious(5)
    valid = FourTermBattery(out.a, out.b, evil, odious, t, 2, 4)
    assert four_term_residual(valid, 4, 4) == 0
    mutated = FourTermBattery(
        valid.a, valid.b, valid.c,
        BoundedSet(odious.bound, odious.mask ^ (1 << 4)),
        valid.t, 2, 4,
    )
    assert four_term_residual(mutated, 4, 4) != 0

    assert step_identity_residual(out.a, t, evil, 2, 2) == 0
    flipped = BoundedSet(5, evil.mask ^ (1 << 3))
    assert step_identity_residual(out.a, t, flipped, 2, 2) != 0
    print("PASS criterion 7: identity checkers hold on every generated instance "
          "(epsilon branches included) and flip under single-element mutation")


def test_criterion_8_kernel_oracle_equivalence_and_speed():
    rng = random.Random(987654321)
    densities = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
    n_max = 2048
    for i in range(100):
        density = densities[i % len(densities)]
        mask = 0
        for x in range(n_max + 1):
            if rng.random() < density:
                mask |= 1 << x
        s = BoundedSet(n_max + 1, mask)
        assert list(r2_profile(s, n_max)) == r2_profile_naive(s, n_max), i

    big_n = 1 << 14
    mask = 0
    for x in range(big_n + 1):
        if rng.random() < 0.5:
            mask |= 1 << x
    big = BoundedSet(big_n + 1, mask)
    t0 = time.perf_counter()
    fast = list(r2_profile(big, big_n))
    t1 = time.perf_counter()
    slow = r2_profile_naive(big, big_n)
    t2 = time.perf_counter()
    assert fast == slow
    ratio = (t2 - t1) / max(t1 - t0, 1e-9)
    assert ratio >= 10, f"kernel only {ratio:.1f}x faster than the oracle"
    print(f"PASS criterion 8: kernel exact on 100 random sets at N=2048 and "
          f"{ratio:.0f}x faster than the oracle at N=2^14")

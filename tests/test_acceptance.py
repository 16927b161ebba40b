"""Acceptance suite: every exit criterion at desk scale, exact arithmetic.

Desk scale is the ``full`` profile, ``verify.PROFILES["full"]``.  One run of
``repbal verify --bound-profile full --seed 987654321 --out report.json`` checks it, and a
criterion that the suite checks asserts its checks' report entries:

    1  family-balance, family-complement, skip-one-partition
    2  solver-family-agreement
    3  classification-grid
    5  evil-odious-prefix
    6  window-pair
    7  four-term-identity, step-identity
    8  kernel-oracle

Criterion 4 (the offset-1 and offset-2^u rows of the full profile's grid) and criterion 8's
10x speed margin over the oracle are not suite checks, so they keep their own code.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import json
import random
import time

import pytest

from repbal.repfn import r2_profile, r2_profile_naive
from repbal.solver import GRID_R_MAX_FACTOR, STATUS_COMPLETED, STATUS_CONTRADICTION, classify_grid
from repbal.verify import CHECK_IDS, PROFILES
from support import call_main, cell_rows, random_set

FULL = PROFILES["full"]
SEED = 987654321  # kernel-oracle's sets, and after them criterion 8's timed set

# each check's instances at the full profile; every one must pass
INSTANCES = {
    "evil-odious-prefix": 11,
    "family-balance": 21,
    "family-complement": 21,
    "window-pair": 9,
    "skip-one-partition": 2,
    "four-term-identity": 1427,
    "step-identity": 11,
    "solver-family-agreement": 18,
    "classification-grid": 1152,
    "kernel-oracle": 100,
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The full-profile report's entries by check id, from one CLI run's --out file.

    Stdout and the exit code must agree with the report: ten PASS lines, ``suite: PASS`` and
    exit 0 exactly when every check passed.  Whether each one passed is its criterion's to
    assert, so a failing check fails its own criterion, with its first failure, and no other.
    """
    path = tmp_path_factory.mktemp("suite") / "report.json"
    code, out, _, _ = call_main(["verify", "--bound-profile", "full", "--seed", str(SEED), "--out", str(path)])
    checks = json.loads(path.read_text())["checks"]
    assert [check["lemma"] for check in checks] == list(CHECK_IDS) == list(INSTANCES)
    ok = [check["passed"] == check["instances"] and check["first_failure"] is None for check in checks]
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["PASS" if o else "FAIL", c] for o, c in zip(ok, CHECK_IDS)]
    assert (code, lines[-1]) == ((0, "suite: PASS") if all(ok) else (2, "suite: FAIL"))
    return {check["lemma"]: check for check in checks}


def assert_passed(report, *check_ids):
    for check_id in check_ids:
        n = INSTANCES[check_id]
        assert report[check_id] == {"lemma": check_id, "instances": n, "passed": n, "first_failure": None}


def test_criterion_1_family_identity_at_desk_scale(report):
    assert_passed(report, "family-balance", "family-complement", "skip-one-partition")
    print(f"PASS criterion 1: family pairs and the skip-one pair balance exactly and complement "
          f"their excluded sets at bound {FULL.family_bound} (families x l in [0,{FULL.family_l_max}])")


def test_criterion_2_solver_reproduces_every_family(report):
    assert_passed(report, "solver-family-agreement")
    print(f"PASS criterion 2: forced extension equals every family builder "
          f"elementwise up to bound {FULL.agreement_bound} (m <= {FULL.grid_m_max})")


def test_criterion_3_classification_grid(report):
    assert_passed(report, "classification-grid")
    print(f"PASS criterion 3: completed grid cells (m <= {FULL.grid_m_max}, r <= {GRID_R_MAX_FACTOR}m, "
          f"bound {FULL.grid_bound}) are exactly the predicted family cells; all others contradict")


def test_criterion_4_special_cases():
    runs = classify_grid(FULL.grid_m_max, GRID_R_MAX_FACTOR, FULL.grid_bound)
    by_cell = {(row.r, row.m): row.status for row in cell_rows(runs)}
    r = 1  # offset 1 is offset 2^0: it completes only for m in {2, 3}
    while r <= GRID_R_MAX_FACTOR * FULL.grid_m_max:
        for m in range(2, FULL.grid_m_max + 1):
            if r <= GRID_R_MAX_FACTOR * m:
                expected = STATUS_COMPLETED if m in (r + 1, 2 * r + 1) else STATUS_CONTRADICTION
                assert by_cell[(r, m)] == expected, (r, m)
        r *= 2
    print("PASS criterion 4: offset 1 completes only for m in {2,3}; offset 2^u "
          "completes only for m in {2^u+1, 2^(u+1)+1}")


def test_criterion_5_evil_odious_prefixes(report):
    assert_passed(report, "evil-odious-prefix")
    print(f"PASS criterion 5: evil/odious prefix pairs balance exactly for "
          f"l in [0,{FULL.prefix_l_max}], n <= 2^(l+1)-2")


def test_criterion_6_window_pairs(report):
    assert_passed(report, "window-pair")
    print(f"PASS criterion 6: punctured-window pairs balance exactly for "
          f"u in [0,{FULL.ef_u_max}] over their whole windows")


def test_criterion_7_identity_checkers_and_mutation_sensitivity(report):
    # mutation sensitivity: test_verify.py's TestFourTerm and TestStepIdentity pin each flipped residual
    assert_passed(report, "four-term-identity", "step-identity")
    print(f"PASS criterion 7: the four-term identity holds at all {INSTANCES['four-term-identity']} "
          f"battery points and the step identity on all {INSTANCES['step-identity']} solvable cells "
          f"with r >= 1, epsilon branches (N = 2L, n = 2r-1) included")


def test_criterion_8_kernel_oracle_equivalence_and_speed(report):
    assert_passed(report, "kernel-oracle")

    rng = random.Random(SEED)
    for _ in range(FULL.kernel_sets * (FULL.kernel_n_max + 1)):  # the draws of kernel-oracle's sets
        rng.random()
    big_n = 1 << 14
    big = random_set(rng, big_n + 1, 0.5)
    t0 = time.perf_counter()
    fast = list(r2_profile(big, big_n))
    t1 = time.perf_counter()
    slow = r2_profile_naive(big, big_n)
    t2 = time.perf_counter()
    assert fast == slow
    ratio = (t2 - t1) / max(t1 - t0, 1e-9)
    assert ratio >= 10, f"kernel only {ratio:.1f}x faster than the oracle"
    print(f"PASS criterion 8: kernel exact on {FULL.kernel_sets} random sets at N={FULL.kernel_n_max} "
          f"and {ratio:.0f}x faster than the oracle at N=2^14")

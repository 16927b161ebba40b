"""Numeric identity checkers and the aggregated verification suite.

Each checker instantiates an exact counting identity from built families,
machine-checks the identity's hypotheses, then evaluates both sides with
exact integer arithmetic.  A hypothesis violation is an ``InstanceError``,
never a reported identity failure.  The four-term identity is checked by
batteries: one window's sets, validated once, then evaluated at every (n, N)
point; the step identity shares the evil/odious battery's window.
``run_suite`` bundles every check into a report with one entry per check id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator

from .builders import build_ef, build_evil_odious, build_family, build_xy, family_cells
from .intset import BoundedSet, ProgressionSpec, partition_fault, progression_set
from .repfn import (
    first_r2_difference,
    pairs_at,
    r2_prefix,
    r2_profile,
    r2_profile_naive,
)
from .solver import (
    GRID_R_MAX_FACTOR,
    STATUS_COMPLETED,
    STATUS_CONTRADICTION,
    classify_grid,
    forced_extend,
    predicted_solvable_cells,
)

__all__ = [
    "CHECK_IDS",
    "CheckResult",
    "DEFAULT_SEED",
    "FourTermBattery",
    "InstanceError",
    "PROFILES",
    "SuiteProfile",
    "SuiteReport",
    "evil_odious_battery",
    "four_term_residual",
    "run_suite",
    "step_identity_failure",
    "step_identity_residual",
    "validate_four_term",
    "window_pair_batteries",
]

DEFAULT_SEED = 1729


class InstanceError(ValueError):
    """An identity instance violated its hypotheses (not an identity failure)."""


# ---------------------------------------------------------------------------
# The four-set truncated counting identity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourTermBattery:
    """The four-set truncated counting identity on one window, at all its points.

    a/b partition their window minus the excluded set t; c/d partition [0, K]
    minus the excluded values below L; the two pairs agree below L, L itself
    is excluded and lies outside c.  The identity is evaluated at every
    truncation point n and sum N with L <= n <= N <= K <= 2L.
    """

    a: BoundedSet
    b: BoundedSet
    c: BoundedSet
    d: BoundedSet
    t: BoundedSet
    L: int
    K: int

    def points(self) -> Iterator[tuple[int, int]]:
        """Every evaluation point (n, N), n-major."""
        for n in range(self.L, self.K + 1):
            for N in range(n, self.K + 1):
                yield n, N


def validate_four_term(battery: FourTermBattery) -> None:
    """Machine-check every hypothesis; raise InstanceError on the first violation."""
    L, K = battery.L, battery.K
    if not 1 <= L <= K <= 2 * L:
        raise InstanceError(f"window shape needs 1 <= L <= K <= 2L, got L={L} K={K}")
    a, b, c, d, t = battery.a, battery.b, battery.c, battery.d, battery.t
    if not a.bound == b.bound == t.bound:
        raise InstanceError("a, b and t must share one window")
    if a.bound < K + 1:
        raise InstanceError(f"a/b/t window must cover sums up to {K}")
    if c.bound != d.bound or c.bound < K + 1:
        raise InstanceError(f"c/d window must cover [0, {K}]")
    if t.chi(L) != 1:
        raise InstanceError(f"L={L} must be excluded")
    if c.chi(L) != 0:
        raise InstanceError(f"L={L} must lie outside c")
    if a.chi(0) != 1 or c.chi(0) != 1:
        raise InstanceError("0 must lie in a and in c")
    if b.chi(0) != 0 or d.chi(0) != 0:
        raise InstanceError("0 must lie outside b and d")
    # a, b and t split the window, c and d split [0, K] less t below L: name the lowest bad value
    x = partition_fault(a.bound, a.mask, b.mask, t.mask)
    if x is not None:
        fault = f"overlap at {x}" if (a.mask | b.mask | t.mask) >> x & 1 else f"leave {x} uncovered"
        raise InstanceError(f"a, b and t {fault}")
    below = (1 << L) - 1
    x = partition_fault(K + 1, c.mask, d.mask, t.mask & below)
    if x is not None:
        overlap = (c.mask & d.mask) >> x & 1
        raise InstanceError(f"c and d overlap at {x}" if overlap else f"c/d coverage wrong at {x}")
    differ = ((a.mask ^ c.mask) | (b.mask ^ d.mask)) & below
    if differ:
        raise InstanceError(f"the pairs must agree below L, they differ at {_lowest(differ)}")


def _lowest(mask: int) -> int:
    """The smallest member of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def four_term_residual(battery: FourTermBattery, n: int, N: int) -> int:
    """Left minus right side of the identity at (n, N); zero exactly when it holds."""
    a, b, c, d, t, L = battery.a, battery.b, battery.c, battery.d, battery.t, battery.L
    lhs = (
        r2_prefix(a, n, N) + r2_prefix(d, n, N) - r2_prefix(b, n, N) - r2_prefix(c, n, N)
    )
    upto_n = (1 << (n + 1)) - 1
    mid = t.mask & upto_n & ~((1 << L) - 1)  # t restricted to [L, n]
    d_only = d.mask & ~b.mask & ~mid & upto_n
    c_only = c.mask & ~a.mask & ~mid & upto_n
    cross_t_d = pairs_at(d_only, t.mask, N)
    cross_t_c = pairs_at(c_only, t.mask, N)
    cross_d = pairs_at(mid & d.mask, d.mask, N)
    cross_c = pairs_at(mid & c.mask, c.mask, N)
    eps = 1 if N == 2 * L else 0
    rhs = d_only.bit_count() - cross_t_d + cross_d - c_only.bit_count() + cross_t_c - cross_c - eps
    return lhs - rhs


def evil_odious_battery(spec: ProgressionSpec) -> FourTermBattery:
    """A solved partition paired with the evil/odious split on [0, 2r].

    L is the first excluded value r and K = 2L, so the battery's points
    include the N = 2L branch.
    """
    if spec.r < 1:
        raise InstanceError("the excluded progression must not contain 0")
    window = 2 * spec.r + 1
    out = forced_extend(spec, window)
    if out.status != STATUS_COMPLETED:
        raise InstanceError(f"no balanced partition below {window} for {spec}")
    evil, odious = build_evil_odious(window)
    t = progression_set(spec, window)
    return FourTermBattery(out.a, out.b, evil, odious, t, spec.r, 2 * spec.r)


def window_pair_batteries(
    u: int, m: int, seeds: tuple[int, ...] = (0, 1)
) -> Iterator[FourTermBattery]:
    """One battery per seed, pairing a random valid partition with the punctured-window pair.

    The excluded progression starts at 2^u and its second element L = 2^u + m
    must land in the second window set.  Below L the partition prefix is
    forced to agree with the window pair; beyond it the assignment is
    seeded-random, which the identity must tolerate.
    """
    r = 1 << u
    cutoff = r + m
    if not 2 * r + 2 <= cutoff <= 3 * r:
        raise InstanceError(f"second excluded value {cutoff} outside [2^(u+1)+2, 3*2^u]")
    c, d = build_ef(u)
    K = 3 * r + 1  # the cap 2 * cutoff never binds: cutoff >= 2r + 2 makes it >= 4r + 4
    t = progression_set(ProgressionSpec(r, m), K + 1)
    free = ((1 << (K + 1)) - 1) & ~t.mask
    drawn = [x for x in range(cutoff, K + 1) if free >> x & 1]
    for seed in seeds:
        rng = random.Random(seed)
        a = c.mask & free & ((1 << cutoff) - 1)
        for x in drawn:
            a |= rng.randrange(2) << x
        yield FourTermBattery(BoundedSet(K + 1, a), BoundedSet(K + 1, free & ~a), c, d, t, cutoff, K)


# ---------------------------------------------------------------------------
# The digit-parity step identity.
# ---------------------------------------------------------------------------


def step_identity_residual(
    a: BoundedSet, t: BoundedSet, evil: BoundedSet, cutoff: int, n: int
) -> int:
    """lhs - rhs of the step identity at n, where cutoff is the first excluded value."""
    in_t = t.mask & ((1 << (n + 1)) - 1)
    lhs = pairs_at(in_t, evil.mask, n + 1)
    eps = 1 if n == 2 * cutoff - 1 else 0
    rhs = pairs_at(in_t, evil.mask, n) + a.chi(n + 1) - evil.chi(n + 1) - eps
    return lhs - rhs


def step_identity_failure(spec: ProgressionSpec) -> dict[str, Any] | None:
    """On the evil/odious battery, pin the digit parity of the first excluded
    value and check the step identity for every positive n below twice it.

    Returns the first failure record, or None when the identity holds.
    """
    battery = evil_odious_battery(spec)
    a, t, evil, cutoff = battery.a, battery.t, battery.c, battery.L
    inputs = {"r": spec.r, "m": spec.m}
    if evil.chi(cutoff):  # the first excluded value must be odious
        return {"inputs": {**inputs, "check": "first-excluded-parity"}, "lhs": 1, "rhs": 0}
    for n in range(1, 2 * cutoff):
        residual = step_identity_residual(a, t, evil, cutoff, n)
        if residual:
            return {"inputs": {**inputs, "n": n}, "lhs": residual, "rhs": 0}
    return None


# ---------------------------------------------------------------------------
# Suite.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteProfile:
    family_l_max: int
    family_bound: int
    prefix_l_max: int
    ef_u_max: int
    xy_bound: int
    grid_m_max: int
    grid_bound: int
    agreement_bound: int
    window_pair_params: tuple[tuple[int, int], ...]
    kernel_sets: int
    kernel_n_max: int


PROFILES = {
    "quick": SuiteProfile(
        family_l_max=3,
        family_bound=2048,
        prefix_l_max=8,
        ef_u_max=6,
        xy_bound=2048,
        grid_m_max=9,
        grid_bound=512,
        agreement_bound=1024,
        window_pair_params=((2, 8), (3, 12)),
        kernel_sets=25,
        kernel_n_max=512,
    ),
    "full": SuiteProfile(
        family_l_max=6,
        family_bound=1 << 14,
        prefix_l_max=10,
        ef_u_max=8,
        xy_bound=1 << 14,
        grid_m_max=33,
        grid_bound=2048,
        agreement_bound=4096,
        window_pair_params=((2, 8), (3, 12), (3, 14), (3, 15), (4, 20), (4, 23)),
        kernel_sets=100,
        kernel_n_max=2048,
    ),
}


@dataclass
class CheckResult:
    check_id: str
    instances: int
    passed: int
    first_failure: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.passed == self.instances and self.first_failure is None


@dataclass
class SuiteReport:
    profile: str
    results: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(res.ok for res in self.results)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "lemma": res.check_id,
                    "instances": res.instances,
                    "passed": res.passed,
                    "first_failure": res.first_failure,
                }
                for res in self.results
            ],
        }


# A check yields one verdict per instance: None if it holds, else its failure record.
Verdicts = Iterator[dict[str, Any] | None]


def _profile_verdict(
    inputs: dict[str, Any], left: BoundedSet, right: BoundedSet, n_max: int
) -> dict[str, Any] | None:
    """The failure record at the first sum in [1, n_max] where the r2 counts differ."""
    n = first_r2_difference(left, right, n_max)
    if n is None:
        return None
    return {"inputs": {**inputs, "n": n}, "lhs": r2_prefix(left, n, n), "rhs": r2_prefix(right, n, n)}


def _solvable_specs(p: SuiteProfile) -> list[ProgressionSpec]:
    """The predicted solvable cells with r >= 1 (0 not excluded), in (r, m) order."""
    cells = sorted(predicted_solvable_cells(p.grid_m_max))
    return [ProgressionSpec(r, m) for r, m in cells if r >= 1]


def _evil_odious_prefix(p: SuiteProfile, seed: int) -> Verdicts:
    for l in range(p.prefix_l_max + 1):
        bound = max(2 ** (l + 1) - 1, 1)
        evil, odious = build_evil_odious(bound)
        left = evil.truncate(2**l - 1)
        right = odious.truncate(2**l - 1)
        yield _profile_verdict({"l": l}, left, right, bound - 1)


def _family_balance(p: SuiteProfile, seed: int) -> Verdicts:
    for family, l, spec in family_cells((1 << p.family_l_max) + 1):
        a, b, _ = build_family(family, l, p.family_bound)
        n_max = p.family_bound - spec.anchor - 1
        yield _profile_verdict({"family": family, "l": l}, a, b, n_max)


def _family_complement(p: SuiteProfile, seed: int) -> Verdicts:
    for family, l, _ in family_cells((1 << p.family_l_max) + 1):
        a, b, t = build_family(family, l, p.family_bound)
        failure = None
        # per-value chi reads, not partition_fault: the benchmark pins its chi_calls count on this loop
        for x in range(p.family_bound):
            cover = a.chi(x) + b.chi(x) + t.chi(x)
            if cover != 1:
                failure = {
                    "inputs": {"family": family, "l": l, "x": x},
                    "lhs": cover,
                    "rhs": 1,
                }
                break
        yield failure


def _window_pair(p: SuiteProfile, seed: int) -> Verdicts:
    for u in range(p.ef_u_max + 1):
        e, f = build_ef(u)
        yield _profile_verdict({"u": u}, e, f, e.bound - 1)


def _skip_one(p: SuiteProfile, seed: int) -> Verdicts:
    x, y = build_xy(p.xy_bound)
    if partition_fault(p.xy_bound, x.mask, y.mask, 1 << 1) is None:
        yield None
    else:
        yield {"inputs": {"bound": p.xy_bound}, "lhs": len(x | y), "rhs": p.xy_bound - 1}
    yield _profile_verdict({}, x, y, p.xy_bound - 1)


def _four_term(p: SuiteProfile, seed: int) -> Verdicts:
    def batteries() -> Iterator[tuple[dict[str, Any], FourTermBattery]]:
        for spec in _solvable_specs(p):
            yield {"kind": "evil-odious", "r": spec.r, "m": spec.m}, evil_odious_battery(spec)
        for u, m in p.window_pair_params:
            for battery in window_pair_batteries(u, m):
                yield {"kind": "window-pair", "u": u, "m": m}, battery

    for inputs, battery in batteries():
        validate_four_term(battery)
        for n, N in battery.points():
            residual = four_term_residual(battery, n, N)
            yield {"inputs": {**inputs, "n": n, "N": N}, "lhs": residual, "rhs": 0} if residual else None


def _step_identity(p: SuiteProfile, seed: int) -> Verdicts:
    for spec in _solvable_specs(p):
        yield step_identity_failure(spec)


def _solver_agreement(p: SuiteProfile, seed: int) -> Verdicts:
    for family, l, spec in family_cells(p.grid_m_max):
        out = forced_extend(spec, p.agreement_bound)
        a, b, _ = build_family(family, l, p.agreement_bound)
        ok = out.status == STATUS_COMPLETED and out.a == a and out.b == b
        inputs = {"family": family, "l": l, "status": out.status}
        yield None if ok else {"inputs": inputs, "lhs": out.contradiction_at, "rhs": None}


def _classification_grid(p: SuiteProfile, seed: int) -> Verdicts:
    predicted = predicted_solvable_cells(p.grid_m_max)
    for rec in classify_grid(p.grid_m_max, GRID_R_MAX_FACTOR, p.grid_bound):
        if (rec.r, rec.m) in predicted:
            ok = rec.status == STATUS_COMPLETED and rec.family is not None
            expected = STATUS_COMPLETED
        else:
            ok = rec.status != STATUS_COMPLETED
            expected = STATUS_CONTRADICTION
        failure = {"inputs": {"r": rec.r, "m": rec.m}, "lhs": rec.status, "rhs": expected}
        yield None if ok else failure


def _kernel_oracle(p: SuiteProfile, seed: int) -> Verdicts:
    rng = random.Random(seed)
    densities = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
    for i in range(p.kernel_sets):
        density = densities[i % len(densities)]
        bound = p.kernel_n_max + 1
        s = BoundedSet(bound, sum(1 << x for x in range(bound) if rng.random() < density))
        fast = r2_profile(s, p.kernel_n_max)
        slow = r2_profile_naive(s, p.kernel_n_max)
        n = next((n for n in range(len(fast)) if fast[n] != slow[n]), None)
        yield None if n is None else {"inputs": {"set_index": i, "n": n}, "lhs": fast[n], "rhs": slow[n]}


_CHECKS = {
    "evil-odious-prefix": _evil_odious_prefix,
    "family-balance": _family_balance,
    "family-complement": _family_complement,
    "window-pair": _window_pair,
    "skip-one-partition": _skip_one,
    "four-term-identity": _four_term,
    "step-identity": _step_identity,
    "solver-family-agreement": _solver_agreement,
    "classification-grid": _classification_grid,
    "kernel-oracle": _kernel_oracle,
}

CHECK_IDS = tuple(_CHECKS)


def _run_check(check_id: str, verdicts: Verdicts) -> CheckResult:
    """Count a check's instances and passes, keeping its first failure record."""
    result = CheckResult(check_id, 0, 0)
    for failure in verdicts:
        result.instances += 1
        if failure is None:
            result.passed += 1
        elif result.first_failure is None:
            result.first_failure = failure
    return result


def run_suite(
    bound_profile: str = "quick", seed: int = DEFAULT_SEED, only: str | None = None
) -> SuiteReport:
    """Run every check (or one by id) at the named profile scale."""
    if bound_profile not in PROFILES:
        raise ValueError(f"unknown profile {bound_profile!r}; choose from {sorted(PROFILES)}")
    if only is not None and only not in _CHECKS:
        raise ValueError(f"unknown check {only!r}; choose from {list(CHECK_IDS)}")
    profile = PROFILES[bound_profile]
    results = [
        _run_check(check_id, check(profile, seed))
        for check_id, check in _CHECKS.items()
        if only is None or check_id == only
    ]
    return SuiteReport(profile=bound_profile, results=results)

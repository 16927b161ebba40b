"""The four workloads: seeded inputs and the fixed job list of one pass.

Sizes are fixed per workload; the seed draws the random fixture elements,
the sampled sums the oracles recount, the ``verify --seed`` and the order of
jobs in a pass.  The program sees only the generated files and argv.

Why each workload exists (measured on the seed commit):

* ``profile`` -- ``repfn`` on random fixtures and on family pairs.  At 2^16
  the popcount kernel is about 0.9 of job time, so a faster kernel shows in
  ``large_job_ms``; at 2^12 fixture parsing and CSV formatting dominate, so a
  kernel with a higher fixed cost shows in ``small_job_ms``.  The solver is idle.
* ``sweep`` -- ``classify`` grids.  Nearly every cell contradicts at a small
  sum, yet each cell materialises its progression and reversed masks across
  the whole window, so time tracks per-cell setup and early exit.  ``repfn``
  is idle.
* ``extend`` -- ``solve --emit json`` on every family cell with m <= 9.  Every
  cell completes, so the full step loop runs: the solver layer used the
  opposite way from ``sweep``.
* ``suite`` -- ``verify --lemma all``, the main user flow and the only
  workload that runs ``verify``'s own loops.
"""

from __future__ import annotations

import random
from pathlib import Path

import oracles
from harness import Job

WORKLOADS = ("profile", "sweep", "extend", "suite")

DENSITIES = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
FAMILY_TOKENS = tuple(
    f"{family}:{l}" for family in ("s1t1", "s2t2", "s1t1+1") for l in range(4)
) + ("xy",)
SAMPLED_SUMS = 12
NAIVE_MAX_BOUND = 1 << 12  # r2_profile_naive is quadratic in the element count

# (size exponent, fixture densities, family tokens, tier) of each profile group.
PROFILE_GROUPS = (
    (12, DENSITIES, FAMILY_TOKENS, "small"),
    (14, (0.05, 0.35), ("s2t2:2", "xy"), "small"),
    (16, (0.1, 0.5), ("s1t1:3", "s1t1+1:1"), "large"),
)
SWEEP_GRIDS = ((33, 2048, "small", 4), (129, 8192, "large", 1))  # (m_max, bound, tier, copies)
# (exponent, tier, l_max, copies): one 2^16 pass fills most of a run, so the
# cheap small tier is repeated within it to give each small job a median.
EXTEND_SIZES = ((12, "small", 3, 3), (14, "small", 1, 3), (16, "large", 3, 1))
SUITE_PROFILES = (("quick", "small", 4), ("full", "large", 1))  # (profile, tier, copies)


def _sums(rng: random.Random, bound: int) -> list[int]:
    return sorted({0, 1, bound - 1} | set(rng.sample(range(bound), SAMPLED_SUMS)))


def write_fixture(path: Path, elements: list[int], bound: int) -> None:
    """The two-line fixture format ``repfn --input`` reads."""
    path.write_text(f"bound={bound}\n" + ",".join(map(str, elements)) + "\n")


def _profile_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for exponent, densities, tokens, tier in PROFILE_GROUPS:
        bound = 1 << exponent
        for density in densities:
            elements = [x for x in range(bound) if rng.random() < density]
            path = workdir / f"set-{exponent}-{density}.txt"
            write_fixture(path, elements, bound)
            check = oracles.check_fixture_profile(
                elements, bound, _sums(rng, bound), naive=bound <= NAIVE_MAX_BOUND
            )
            jobs.append(Job(("repfn", "--input", str(path)), tier, check))
        for token in tokens:
            check = oracles.check_family_profile(token, bound, _sums(rng, bound))
            jobs.append(Job(("repfn", "--family", token, "--bound", str(bound)), tier, check))
    return jobs


def _sweep_jobs() -> list[Job]:
    jobs = []
    for m_max, bound, tier, copies in SWEEP_GRIDS:
        job = Job(
            ("classify", "--m-max", str(m_max), "--bound", str(bound)), tier, oracles.check_grid(m_max)
        )
        jobs += [job] * copies
    return jobs


def extend_cells(l_max: int) -> list[tuple[str, int]]:
    """One (family, l) per distinct family cell with m <= 2^l_max + 1."""
    cells: dict[tuple[int, int], tuple[str, int]] = {}
    for l in range(l_max + 1):
        for family in ("s1t1", "s2t2", "s1t1+1"):
            cells.setdefault(oracles.family_cell(family, l), (family, l))
    return list(cells.values())


def _extend_jobs() -> list[Job]:
    jobs = []
    for exponent, tier, l_max, copies in EXTEND_SIZES:
        bound = 1 << exponent
        for family, l in extend_cells(l_max):
            r, m = oracles.family_cell(family, l)
            argv = ("solve", "--r", str(r), "--m", str(m), "--bound", str(bound), "--emit", "json")
            jobs += [Job(argv, tier, oracles.check_solution(family, l, bound))] * copies
    return jobs


def _suite_jobs(verify_seed: int, per_check: bool) -> list[Job]:
    jobs = []
    for profile, tier, copies in SUITE_PROFILES:
        lemmas = oracles.CHECK_IDS if per_check else ("all",)
        for lemma in lemmas:
            only = None if lemma == "all" else lemma
            argv = ("verify", "--lemma", lemma, "--bound-profile", profile, "--seed", str(verify_seed))
            job = Job(argv, tier, oracles.check_suite(profile, only))
            jobs += [job] * (1 if per_check else copies)
    return jobs


def make_jobs(workload: str, seed: int, workdir: Path, per_check: bool = False) -> list[Job]:
    """The job list of one pass.  ``per_check`` splits each ``verify --lemma
    all`` into one job per check, so a traced run can time each check."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "profile":
        jobs = _profile_jobs(rng, workdir)
    elif workload == "sweep":
        jobs = _sweep_jobs()
    elif workload == "extend":
        jobs = _extend_jobs()
    elif workload == "suite":
        jobs = _suite_jobs(rng.randrange(1 << 30), per_check)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(jobs)
    return jobs

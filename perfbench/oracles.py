"""Independent checks of each job's stdout.

Every oracle avoids the code its job times: profile rows are recounted pair
by pair from the generated elements, family pairs are rebuilt from their
weight-sequence definition by a plain subset-sum table, solved sets are
compared with ``build_family`` (which ``solve`` never calls), grids with
``predicted_solvable_cells``, and suite reports with the instance counts of
the seed commit.  Each factory returns a ``check(stdout)`` callable that
raises ``OracleError`` on the first disagreement.
"""

from __future__ import annotations

import json
from typing import Callable

from harness import OracleError

Check = Callable[[str], None]

# Instance counts per check at the seed commit, for both suite profiles.
SUITE_INSTANCES = {
    "quick": {
        "evil-odious-prefix": 9,
        "family-balance": 12,
        "family-complement": 12,
        "window-pair": 7,
        "skip-one-partition": 2,
        "four-term-identity": 141,
        "step-identity": 7,
        "solver-family-agreement": 12,
        "classification-grid": 96,
        "kernel-oracle": 25,
    },
    "full": {
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
    },
}
CHECK_IDS = tuple(SUITE_INSTANCES["full"])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _csv_rows(out: str, header: str, count: int) -> list[list[int]]:
    lines = out.split("\n")
    expect(lines[0] == header, f"header {lines[0]!r}, expected {header!r}")
    expect(lines[-1] == "", "output must end with a newline")
    rows = [[int(cell) for cell in line.split(",")] for line in lines[1:-1]]
    expect(len(rows) == count, f"{len(rows)} rows, expected {count}")
    for n, row in enumerate(rows):
        expect(row[0] == n, f"row {n} is labelled {row[0]}")
    return rows


def pair_counts(members: set[int], n: int) -> tuple[int, int, int]:
    """(r1, r2, r3) at sum n by direct enumeration: ordered, x < y, x <= y."""
    ordered = strict = weak = 0
    for x in members:
        y = n - x
        if y in members:
            ordered += 1
            strict += x < y
            weak += x <= y
    return ordered, strict, weak


def check_fixture_profile(elements: list[int], bound: int, sums: list[int], naive: bool) -> Check:
    """``repfn --input``: every row obeys R1 = 2*R2 + d = 2*R3 - d, where d
    marks n/2 as a member; the sampled sums match direct pair counts; with
    ``naive`` the whole R2 column matches ``r2_profile_naive``."""
    members = set(elements)

    def check(out: str) -> None:
        rows = _csv_rows(out, "n,R1,R2,R3", bound)
        for n, r1, r2, r3 in rows:
            d = 1 if n % 2 == 0 and n // 2 in members else 0
            expect(r1 == 2 * r2 + d and r1 == 2 * r3 - d, f"row {n} is inconsistent")
        for n in sums:
            expect(tuple(rows[n][1:]) == pair_counts(members, n), f"wrong counts at sum {n}")
        if naive:
            from repbal.intset import BoundedSet
            from repbal.repfn import r2_profile_naive

            s = BoundedSet(bound, sum(1 << e for e in elements))
            reference = r2_profile_naive(s, bound - 1)
            expect([row[2] for row in rows] == reference, "R2 differs from the naive oracle")

    return check


def family_sets(token: str, bound: int) -> tuple[set[int], set[int]]:
    """The (A, B) pair of a ``--family`` token below ``bound``, from the
    definition: subset sums of the weight sequence, split by the parity of the
    number of terms (then shifted by one for ``s1t1+1``)."""
    if token == "xy":
        weights, w, shift = [2, 3], 4, 0
    else:
        name, l_text = token.split(":")
        l = int(l_text)
        if name == "s2t2" and l >= 1:
            weights = [1 << i for i in range(l - 1)] + [(1 << (l - 1)) + 1]
        else:
            weights = [1 << i for i in range(l)]
        w, shift = (1 << l) + 1, 1 if name == "s1t1+1" else 0
    while w < bound:
        weights.append(w)
        w *= 2
    parity = bytearray(bound)  # bit 0: reachable with an even count, bit 1: odd
    parity[0] = 1
    for w in weights:
        for v in range(bound - 1 - w, -1, -1):
            p = parity[v]
            if p:
                parity[v + w] |= ((p & 1) << 1) | (p >> 1)
    expect(3 not in parity, f"{token}: a sum is reachable with both parities")
    a = {v + shift for v in range(bound - shift) if parity[v] == 1}
    b = {v + shift for v in range(bound - shift) if parity[v] == 2}
    return a, b


def check_family_profile(token: str, bound: int, sums: list[int]) -> Check:
    """``repfn --family``: every row reads equal=1 with R2_A = R2_B, and the
    sampled sums match direct counts on the pair rebuilt from its definition."""

    def check(out: str) -> None:
        rows = _csv_rows(out, "n,R2_A,R2_B,equal", bound)
        for n, ra, rb, equal in rows:
            expect(equal == 1 and ra == rb, f"{token}: unbalanced at sum {n}")
        a, b = family_sets(token, bound)
        for n in sums:
            expected = (pair_counts(a, n)[1], pair_counts(b, n)[1])
            expect(tuple(rows[n][1:3]) == expected, f"{token}: wrong counts at sum {n}")

    return check


def family_cell(family: str, l: int) -> tuple[int, int]:
    """(r, m) of the progression a family leaves uncovered."""
    m = (1 << l) + 1
    if family == "s1t1":
        return 1 << l, m
    if family == "s1t1+1":
        return 0, m
    return (1 if l == 0 else 1 << (l - 1)), m


def check_grid(m_max: int) -> Check:
    """``classify``: one row per cell, completed exactly on the predicted
    cells, each with the family that leaves that progression uncovered."""
    from repbal.solver import predicted_solvable_cells

    predicted = predicted_solvable_cells(m_max)
    cells = sorted((r, m) for m in range(2, m_max + 1) for r in range(2 * m + 1))

    def check(out: str) -> None:
        lines = out.split("\n")
        expect(lines[0] == "r,m,status,family,l,contradiction_at,forced_value", "bad header")
        expect(lines[-1] == "" and len(lines) == len(cells) + 2, "wrong number of rows")
        for (r, m), line in zip(cells, lines[1:-1]):
            rr, mm, status, family, l, at, forced = line.split(",")
            expect((int(rr), int(mm)) == (r, m), f"row for ({rr}, {mm}), expected ({r}, {m})")
            if (r, m) in predicted:
                expect(status == "completed", f"({r}, {m}) should complete")
                expect(family_cell(family, int(l)) == (r, m), f"({r}, {m}) matched {family}:{l}")
            else:
                expect(status == "contradiction", f"({r}, {m}) should contradict")
                expect(int(at) > 0 and forced.lstrip("-").isdigit(), f"({r}, {m}) lacks a witness")

    return check


def check_solution(family: str, l: int, bound: int) -> Check:
    """``solve --emit json`` on a family cell: completed, with the family's sets."""

    def check(out: str) -> None:
        from repbal.builders import build_family

        got = json.loads(out)
        r, m = family_cell(family, l)
        a, b, _ = build_family(family, l, bound)
        expect(got["status"] == "completed", f"({r}, {m}) did not complete")
        expect((got["r"], got["m"], got["bound"]) == (r, m, bound), "echoed inputs differ")
        expect(got["anchor"] == (0 if r else 1), "wrong anchor")
        expect(got["excluded"] == list(range(r, bound, m)), "wrong excluded progression")
        expect(got["a"] == a.elements() and got["b"] == b.elements(), f"({r}, {m}) sets differ")

    return check


def check_suite(profile: str, only: str | None) -> Check:
    """``verify``: every check passes with the seed commit's instance count."""
    ids = CHECK_IDS if only is None else (only,)
    counts = SUITE_INSTANCES[profile]
    expected = [f"PASS {i} ({counts[i]}/{counts[i]})" for i in ids] + ["suite: PASS", ""]

    def check(out: str) -> None:
        expect(out.split("\n") == expected, f"suite report differs: {out[-200:]!r}")

    return check

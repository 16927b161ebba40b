"""Forced element-by-element extension of an equal-count partition.

Given an excluded progression P = {r + m*k}, the constraint that both classes
of the partition have identical strict-pair counts determines the partition one
position at a time: the smallest non-excluded value (the anchor) is pinned to
class A by convention, and the pair-count constraint at sum anchor + f
involves position f only through the single pair (anchor, f), so it either
pins the membership of f or is infeasible.  No backtracking can exist.

The step is O(1).  The loop always has anchor 0 (the cell (0, m) runs as
(m - 1, m), by the shift lemma below), so the constraint at step f is at the
sum f, and A' (A less the anchor) and the decided B lie in (0, f), as does
f - x for every x there.  Since (0, f) is A' + B + P, the cross terms
#{x in A' : f - x in B} and #{x in B : f - x in A'} cancel, and the ordered
counts obey

    R_A(f) - R_B(f) = #{x in A' : f - x not in P} - #{x in B : f - x not in P}.

For such x, f - x is in P exactly when x <= f - r and x = f - r (mod m).  So
the step keeps one running sum per residue, members of A' less members of B
up to f - r: it adds position f - r to its residue's sum, and that one sum,
taken from |A'| - |B|, is the difference.  Halving after taking off the
diagonal pairs (f/2, f/2) leaves the strict counts.

The prefix lemma: the decision at position f reads only the decided positions
below f and whether f itself is excluded, so the prefix up to f depends on P
only through P n [0, f].  Cells (r, m) and (r, m') with m <= m' share
P n [0, r + m) = {r} and decide every f < r + m alike, contradictions included.
Cells (r, m) and (r', m') with 1 <= r < r' share the anchor 0 and the empty
P n [0, r), so they decide every f < r alike: the evil/odious split.  So an
extension can resume from another's outcome at the first value where their
progressions can differ.  At the bound, an extension over [0, N + 1) cut to
[0, N) is the one over [0, N): it died at the same sum if it died before N, and
otherwise it completed with the first N positions.

The shift lemma: pair counts move with a set, R_{C+1}(n) = R_C(n - 2).  The
cell (m - 1, m) excludes {m - 1, 2m - 1, ...} and pins 0 to A; moved up by one,
that is the cell (0, m), which excludes {0, m, 2m, ...} and pins 1 to A.  So
(m - 1, m) over [0, N) is (0, m) over [0, N + 1) moved down by one: each
position one lower, each sum two lower and the same demanded value.
forced_extend runs (0, m) over [0, N) that way: it steps (m - 1, m) over
[0, N - 1), then puts the excluded 0 in front and adds 2 to the sum it died at.

The sweep extends the top cell (r, m_max) of each r first, resuming from the
previous r's top at r - 1.  The top reads [0, seen): its window, and the
position it died at if it died.  Each cell (r, m) of that r with seen <= r + m
ends as the top does (the prefix lemma): together one run sharing a dead top's
outcome, or runs of one, each a completed top's sides under its own spec.  Any
other cell of that r is a run of its own, resumed from the top at r + m.  Row 0
extends over the bound + 1 and is cut to it, so each diagonal cell (r, r + 1),
r >= 1, that needs an outcome of its own is row 0's cell (0, r + 1) moved down
(the shift lemma) instead of stepped.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Iterator

from .builders import build_family, family_cells, family_of
from .intset import BoundedSet, ProgressionSpec

__all__ = [
    "GRID_R_MAX_FACTOR",
    "MAX_GRID_CELLS",
    "STATUS_COMPLETED",
    "STATUS_CONTRADICTION",
    "ExtensionOutcome",
    "classify_grid",
    "forced_extend",
    "grid_cells",
    "match_family",
    "predicted_solvable_cells",
]

STATUS_COMPLETED = "completed"
STATUS_CONTRADICTION = "contradiction"

# The standard grid's r range, r <= 2m: what the CLI and the verify grid default to
GRID_R_MAX_FACTOR = 2

# The most cells classify_grid takes.  A grid holds one outcome per run, not a row per cell, so
# this bounds time: each cell is at least one written row or one verdict
MAX_GRID_CELLS = 1 << 20

# From an outcome's sides (\x01 in A, \xff in B, \x00 excluded) to one class's digits
_A_ONLY = bytes.maketrans(b"\x00\x01\xff", b"010")
_B_ONLY = bytes.maketrans(b"\x00\x01\xff", b"001")


@dataclass(frozen=True)
class ExtensionOutcome:
    """Result of forcing a partition from its pair-count constraints.

    ``sides`` holds one byte per decided position x: 1 when x is in A, 0xff
    when it is in B, 0 when it is excluded.  Its length is the window: the
    whole bound when the extension completed, the decided prefix when it
    died.  The zero bytes are ``progression_set(spec, len(sides))``.  On
    contradiction the prefix stops at the first undecidable position;
    ``contradiction_at`` is the sum whose constraint failed and
    ``forced_value`` the out-of-range membership value it demanded (a legal
    demand is 0 or 1 at a free position, 0 at an excluded one).  ``status``
    (completed when no constraint failed), ``a`` and ``b`` are read from
    these fields; ``a`` and ``b`` build their masks over [0, len(sides)) on
    each read.
    """

    spec: ProgressionSpec
    sides: bytes
    contradiction_at: int | None = None
    forced_value: int | None = None

    @property
    def status(self) -> str:
        return STATUS_COMPLETED if self.contradiction_at is None else STATUS_CONTRADICTION

    @property
    def a(self) -> BoundedSet:
        return BoundedSet.from_digits(len(self.sides), bytearray(self.sides).translate(_A_ONLY))

    @property
    def b(self) -> BoundedSet:
        return BoundedSet.from_digits(len(self.sides), bytearray(self.sides).translate(_B_ONLY))

    @property
    def anchor(self) -> int:
        """The spec's least free value, pinned to class A."""
        return self.spec.anchor


def _check_reach(r: int, bound: int) -> None:
    """Refuse a window that does not reach past the first excluded value r."""
    if bound < r + 2:
        raise ValueError(f"bound {bound} must reach past the first excluded value {r}")


def forced_extend(
    spec: ProgressionSpec, bound: int, resume: ExtensionOutcome | None = None
) -> ExtensionOutcome:
    """Extend the unique balanced partition over [0, bound), or report where it dies.

    ``resume``, an earlier outcome, lends its decided positions below the first
    value where the two progressions can differ (the prefix lemma): min(r, r')
    when the offsets differ, r + min(m, m') when they agree, capped at
    ``len(resume.sides)`` and at ``bound``.  Below that start only r is excluded,
    and every member the counts take in is below m, so each residue holds at most
    one of them: the side array is that prefix plus a zero tail, two byte counts
    of the prefix give the balance, and the prefix as a list the per-residue sums.
    """
    _check_reach(spec.r, bound)
    r = spec.r
    m = min(spec.m, bound + 1)  # below the bound, any modulus past it excludes r alone
    shift = 0 if r else 1  # (0, m) steps as (m - 1, m) over one position less (the shift lemma)
    window = bound - shift
    start = 1  # the first position the loop decides; the anchor, 0, is below it
    prefix = b"\x01"  # the decided positions below start
    if resume is not None:
        was = resume.spec
        shared = min(r, was.r) if r != was.r else r + min(spec.m, was.m)
        reuse = min(shared, len(resume.sides), bound) - shift
        if reuse > start:  # past the anchor, so both extensions have the same one
            start = reuse
            prefix = resume.sides[shift:shift + start]
    if shift:
        r = m - 1
    lag = min(r, window)  # a negative x = f - lag reads side[x + window], at or past f: a 0
    side = array("b", prefix)  # +1 in A, -1 in B, 0 excluded or undecided
    side.frombytes(bytes(window - start))
    side[0] = 0  # the anchor, held out of the counts while stepping
    balance = prefix.count(1) - prefix.count(0xFF) - 1  # |A'| - |B|
    # members of A' less members of B in (0, f - lag), by residue; below start, position is residue
    by_residue = side[:max(start - lag, 1)].tolist()
    by_residue += [0] * (m - len(by_residue))
    excluded = r if start <= r else r + m  # the next excluded position; start <= r + m

    for f in range(start, window):
        x = f - lag
        i = x % m
        c = side[x] + by_residue[i]
        by_residue[i] = c
        # twice the demanded value: -(R_A - R_B) plus the diagonal pair of A less that of B
        twice = c - balance
        if not f & 1:
            twice += side[f >> 1]
        demanded = twice >> 1
        if f == excluded:
            if demanded:
                del side[f:]
                break
            excluded += m
        elif demanded == 1:
            side[f] = 1
            balance += 1
        elif demanded == 0:
            side[f] = -1
            balance -= 1
        else:
            del side[f:]
            break

    died = len(side) < window
    side[0] = 1
    if shift:
        side.insert(0, 0)
    return ExtensionOutcome(
        spec=spec,
        sides=side.tobytes(),
        contradiction_at=f + 2 * shift if died else None,
        forced_value=demanded if died else None,
    )


def match_family(outcome: ExtensionOutcome) -> tuple[str, int] | None:
    """The built family, as (family, l), that reproduces a completed extension elementwise.

    The one candidate is the family whose predicted complement is the excluded
    progression (``builders.family_of``); None when there is none, or when its
    sets differ from the extension's.
    """
    if outcome.status != STATUS_COMPLETED:
        raise ValueError("family matching needs a completed extension")
    found = family_of(outcome.spec)
    if found is not None:
        a, b, _ = build_family(*found, len(outcome.sides))
        if a == outcome.a and b == outcome.b:
            return found
    return None


def grid_cells(m_max: int, r_max_factor: int) -> int:
    """The number of cells of the grid m in [2, m_max], r in [0, r_max_factor*m]."""
    if m_max < 2:
        return 0
    return r_max_factor * (m_max * (m_max + 1) // 2 - 1) + m_max - 1


def classify_grid(
    m_max: int, r_max_factor: int, bound: int
) -> Iterator[tuple[int, int, int, ExtensionOutcome]]:
    """The grid m in [2, m_max], r in [0, r_max_factor*m] as runs (r, m_lo, m_hi, outcome).

    A contradicted run shares its top's outcome: every cell in [m_lo, m_hi] died at the
    same sum with the same demanded value.  A completed run is one cell, m_lo == m_hi,
    and its outcome's spec is its own ``ProgressionSpec(r, m_lo)``.  Contradictions are
    data, not failures; the runs are non-empty and tile the grid in (r, m) order.

    The checks run before the runs are produced, so a refused grid runs no
    extension.  A grid with a cell at r >= bound - 1 is refused with the error
    forced_extend raises for the least r it cannot reach, max(bound - 1, 0); so is a
    grid of more than MAX_GRID_CELLS cells.
    """
    if m_max < 2:
        return iter(())
    # the grid's largest r, or the least r it cannot reach when that is smaller
    _check_reach(min(r_max_factor * m_max, max(bound - 1, 0)), bound)
    cells = grid_cells(m_max, r_max_factor)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {cells} cells exceeds {MAX_GRID_CELLS}")
    return _grid_runs(m_max, r_max_factor, bound)


def _grid_runs(
    m_max: int, r_max_factor: int, bound: int
) -> Iterator[tuple[int, int, int, ExtensionOutcome]]:
    row0 = {}  # row 0's outcomes over bound + 1 by m, each kept until row m - 1 has run

    def cell(r: int, m: int, resume: ExtensionOutcome | None) -> ExtensionOutcome:
        """The cell (r, m) over the bound; every extension of the grid runs here.

        Row 0 runs over bound + 1, is kept when the grid holds diagonal cells, and is cut
        to the bound; (r, r + 1) is row 0's (0, r + 1) moved down.  That one is always
        kept: below m, (0, m) excludes only 0, so it is the evil/odious split moved up by
        one, which balances at every sum (the paper's quoted lemma), and cannot die before
        position m.  A grid with diagonals reaches r = m_max, so bound > m_max + 1: row
        0's top reads past m_max - 1 and every (0, m) with m < m_max is a run of one.
        """
        if r == 0:
            out = forced_extend(ProgressionSpec(0, m), bound + 1, resume)
            if r_max_factor:
                row0[m] = out
            return out if len(out.sides) < bound else ExtensionOutcome(out.spec, out.sides[:bound])
        if m == r + 1:
            out = row0[m]
            died = None if out.contradiction_at is None else out.contradiction_at - 2
            return ExtensionOutcome(ProgressionSpec(r, m), out.sides[1:], died, out.forced_value)
        return forced_extend(ProgressionSpec(r, m), bound, resume)

    top = None
    for r in range(r_max_factor * m_max + 1):
        top = cell(r, m_max, top)
        seen = len(top.sides) + (top.contradiction_at is not None)  # the top read [0, seen)
        m_lo = max(2, -(-r // (r_max_factor or 1)))  # r <= r_max_factor*m
        shared = min(max(m_lo, seen - r), m_max)  # where the run that reuses the top begins
        for m in range(m_lo, shared):
            yield r, m, m, cell(r, m, top)
        if top.contradiction_at is None:  # a completed run is one cell with its own spec
            for m in range(shared, m_max):
                yield r, m, m, replace(top, spec=ProgressionSpec(r, m))
            shared = m_max
        yield r, shared, m_max, top
        row0.pop(r + 1, None)


def predicted_solvable_cells(m_max: int) -> set[tuple[int, int]]:
    """Grid cells covered by some family pair: the expected completed cells."""
    return {(p.r, p.m) for _, _, p in family_cells(m_max)}

"""Forced extension: hand-checked cells, oracle agreement, matching, grids.

A hand-checked outcome is one ``PINNED`` row.  The suite's instances (the solver against
the builders on every family cell with m <= 9, and the 9/2/512 grid against its prediction)
run once, in ``run_suite("quick")``; ``tests/test_verify.py`` pins that run.  Here each fast
path meets its independent oracle: ``_forced_extend_bitparallel`` for the step loop and
``_classify_grid_per_cell`` for the grid.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repbal import solver
from repbal.builders import FAMILIES, build_evil_odious, build_family, family_progression
from repbal.intset import ProgressionSpec, partition_fault, progression_set
from repbal.repfn import r2_profile
from repbal.solver import (
    ExtensionOutcome,
    STATUS_COMPLETED,
    STATUS_CONTRADICTION,
    classify_grid,
    forced_extend,
    grid_cells,
    match_family,
    predicted_solvable_cells,
)
from support import Row, call_main, cell_rows, never


# (r, m, bound): A and B of a completed extension, or (contradiction_at, forced_value) of a dead one
PINNED = {
    (2, 3, 14): ([0, 4, 7, 9, 13], [1, 3, 6, 10, 12]),
    (1, 2, 16): ([0, 6, 10, 12], [2, 4, 8, 14]),  # the evil/odious split doubled
    (0, 3, 16): ([1, 5, 8, 10, 14], [2, 4, 7, 11, 13]),  # anchored at 1
    (1, 4, 64): (5, 1),  # sum 5 = 2 + 3 forces the excluded position 5
    (1, 4, 5): ([0], [2, 3, 4]),  # the window ends where (1, 4) dies
    (3, 4, 64): (3, 1),  # dies at its first excluded position, r
    (0, 4, 64): (5, 1),  # dies at its first excluded position past the anchor, m
}


class TestForcedExtend:
    @pytest.mark.parametrize("cell,pinned", PINNED.items(), ids=["-".join(map(str, cell)) for cell in PINNED])
    def test_pinned_cell(self, cell, pinned):
        out = forced_extend(ProgressionSpec(*cell[:2]), cell[2])
        if out.status == STATUS_COMPLETED:
            assert (out.a.elements(), out.b.elements()) == pinned
        else:
            assert (out.contradiction_at, out.forced_value) == pinned

    def test_anchor_is_read_from_the_spec(self):
        # the outcome keeps what the loop decided; the rest is read from it
        names = [field.name for field in dataclasses.fields(ExtensionOutcome)]
        assert names == ["spec", "sides", "contradiction_at", "forced_value"]
        for name in ("status", "a", "b", "anchor"):
            assert isinstance(getattr(ExtensionOutcome, name), property)
        for spec in (ProgressionSpec(0, 4), ProgressionSpec(3, 2)):
            assert forced_extend(spec, 64).anchor == spec.anchor

    def test_bound_too_small_rejected(self):
        with pytest.raises(ValueError):
            forced_extend(ProgressionSpec(9, 2), 10)

    @pytest.mark.parametrize("r,m", [(2, 3), (0, 3), (1, 3), (4, 5), (1, 5), (3, 4), (6, 7)])
    def test_prefix_property(self, r, m):
        small = forced_extend(ProgressionSpec(r, m), 128)
        large = forced_extend(ProgressionSpec(r, m), 256)
        if small.status == STATUS_COMPLETED:
            window = (1 << 128) - 1
            assert large.a.mask & window == small.a.mask
            assert large.b.mask & window == small.b.mask
        else:
            assert large.status == STATUS_CONTRADICTION
            assert large.contradiction_at == small.contradiction_at
            assert large.forced_value == small.forced_value

    @pytest.mark.parametrize("r,m", [(1, 2), (2, 3), (1, 3), (0, 5), (4, 5)])
    def test_soundness_full_profile_equality(self, r, m):
        bound = 512
        out = forced_extend(ProgressionSpec(r, m), bound)
        assert out.status == STATUS_COMPLETED
        pa = r2_profile(out.a, bound - 1)
        pb = r2_profile(out.b, bound - 1)
        assert pa[1:] == pb[1:]


def _forced_extend_bitparallel(spec, bound):
    """Reference: count both classes' pairs at every target with its own popcounts over reversed masks.

    Each class keeps its mask and that mask reversed across [0, bound] (bit x
    at bit bound - x), so one target's pairs are one shift, one AND and one
    popcount, and nothing is shared with repfn.  O(bound^2 / w) in all; each
    step pays two popcounts and a whole-window reversed-mask update.
    """
    r, m = spec.r, spec.m
    anchor = 0 if r else 1
    mask_a, mask_b = 1 << anchor, 0
    rev_a, rev_b = 1 << (bound - anchor), 0

    def pairs(mask, rev, target):
        return (mask & (rev >> (bound - target))).bit_count()

    def outcome(frontier, target=None, demanded=None):
        return ExtensionOutcome(spec, _sides(frontier, mask_a, mask_b), target, demanded)

    for f in range(anchor + 1, bound):
        target = anchor + f
        demanded = pairs(mask_b, rev_b, target) // 2 - pairs(mask_a, rev_a, target) // 2
        if f >= r and (f - r) % m == 0:
            if demanded:
                return outcome(f, target, demanded)
        elif demanded == 1:
            mask_a |= 1 << f
            rev_a |= 1 << (bound - f)
        elif demanded == 0:
            mask_b |= 1 << f
            rev_b |= 1 << (bound - f)
        else:
            return outcome(f, target, demanded)

    return outcome(bound)


def _sides(frontier, mask_a, mask_b):
    """One byte per position below the frontier, read off the masks bit by bit: 1 in A, 0xff in B,
    0 in neither."""
    return bytes(1 if mask_a >> x & 1 else 0xFF if mask_b >> x & 1 else 0 for x in range(frontier))


# (family, l, bound): l = 2 around a power of two, and s1t1:1 far past the bit-parallel loop's reach;
# the suite checks every family cell with l <= 3 at 1,024
BUILDER_CELLS = [(family, 2, bound) for family in FAMILIES for bound in ((1 << 13) - 1, 1 << 13, (1 << 13) + 1)]
BUILDER_CELLS.append(("s1t1", 1, 1 << 18))


class TestResidueCounts:
    """The O(1)-per-step loop against the bit-parallel one it replaced, and against the builders."""

    # r = 0 completed cells end on target == bound
    @example(cell=(0, 2, 64))
    @example(cell=(0, 3, 200))
    @example(cell=(0, 5, 97))
    @example(cell=(2, 3, 2048))
    @example(cell=(8, 9, 2047))
    @example(cell=(3, 4, 64))  # dies at its first excluded position, f = r
    @example(cell=(0, 4, 64))  # dies at f = m, the first excluded position past the anchor
    @example(cell=(2, 10**12, 64))  # the per-residue counts are sized by the bound, not by m
    @given(st.integers(2, 64).flatmap(
        lambda m: st.integers(0, 2 * m).flatmap(
            lambda r: st.tuples(st.just(r), st.just(m), st.integers(r + 2, 2048))
        )
    ))
    def test_agrees_with_the_bit_parallel_loop(self, cell):
        r, m, bound = cell
        spec = ProgressionSpec(r, m)
        assert forced_extend(spec, bound) == _forced_extend_bitparallel(spec, bound)

    def test_every_small_cell_agrees_with_the_bit_parallel_loop(self):
        # every cell below the bound 40, moduli past the bound included: r = 0 steps as
        # (m - 1, m) one position lower, and from m >= bound - 2 on that r reaches the window's end
        cells = [
            (r, m, bound)
            for bound in range(2, 40)
            for r in range(bound - 1)
            for m in range(2, bound + 4)
        ]
        assert len(cells) == 21_242
        for r, m, bound in cells:
            spec = ProgressionSpec(r, m)
            assert forced_extend(spec, bound) == _forced_extend_bitparallel(spec, bound), (r, m, bound)

    @example(cell=(3, 4, 5))  # dies at its first excluded position
    @example(cell=(0, 2, 2))  # the smallest window
    @given(st.integers(0, 40).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(2, 40), st.integers(r + 2, 300))
    ))
    def test_every_outcome_partitions_its_window(self, cell):
        # completed or contradicted, A, B and the excluded values split the decided window
        r, m, bound = cell
        out = forced_extend(ProgressionSpec(r, m), bound)
        t = progression_set(out.spec, out.a.bound)
        assert out.b.bound == out.a.bound
        assert partition_fault(out.a.bound, out.a.mask, out.b.mask, t.mask) is None
        assert out.anchor in out.a

    @pytest.mark.parametrize("family,l,bound", BUILDER_CELLS, ids=[f"{f}-{bound}" for f, _, bound in BUILDER_CELLS])
    def test_completed_cell_equals_the_builders(self, family, l, bound):
        out = forced_extend(family_progression(family, l), bound)
        a, b, excluded = build_family(family, l, bound)
        assert out.status == STATUS_COMPLETED
        assert (out.a, out.b, progression_set(out.spec, out.a.bound)) == (a, b, excluded)


def _resume_point(spec, bound, resume):
    """The first position forced_extend steps through: below it the positions come from
    ``resume``, up to the first value where the two progressions can differ."""
    start = spec.anchor + 1
    if resume is None:
        return start
    was = resume.spec
    shared = min(spec.r, was.r) if spec.r != was.r else spec.r + min(spec.m, was.m)
    return max(start, min(shared, len(resume.sides), bound))


def _window_ends_where_it_died(out, bound):
    """A completed outcome decides the whole bound; a dead one stops at the position it died at."""
    if out.status == STATUS_COMPLETED:
        return len(out.sides) == bound
    return out.contradiction_at == out.anchor + len(out.sides)


@st.composite
def _resumed_extensions(draw):
    """(spec, earlier spec, bound): offsets often equal, moduli up to past the bound."""
    bound = draw(st.integers(2, 400))
    r = draw(st.integers(0, bound - 2))
    r_was = draw(st.one_of(st.just(r), st.integers(0, bound - 2)))
    m, m_was = draw(st.lists(st.integers(2, bound + 3), min_size=2, max_size=2))
    return ProgressionSpec(r, m), ProgressionSpec(r_was, m_was), bound


def _flipped(outcome, x):
    """The outcome with position x moved to the other class: its byte flips between 0x01 and
    0xff.  An excluded position's 0 becomes 0xfe, a byte no extension writes."""
    sides = bytearray(outcome.sides)
    sides[x] ^= 0xFE
    return dataclasses.replace(outcome, sides=bytes(sides))


class TestResume:
    """An extension resumed from an earlier outcome equals the one run from the anchor."""

    @settings(deadline=None)
    @example(cells=(ProgressionSpec(1, 3), ProgressionSpec(0, 3), 64))  # different anchors
    @example(cells=(ProgressionSpec(0, 5), ProgressionSpec(2, 5), 64))
    @example(cells=(ProgressionSpec(3, 9), ProgressionSpec(3, 4), 64))  # died at 3, before 7
    @example(cells=(ProgressionSpec(9, 5), ProgressionSpec(3, 4), 64))  # died at the shared 3
    @example(cells=(ProgressionSpec(2, 100), ProgressionSpec(2, 3), 64))  # m past the bound
    @example(cells=(ProgressionSpec(5, 200), ProgressionSpec(5, 300), 64))  # resumes at the bound
    @example(cells=(ProgressionSpec(0, 70), ProgressionSpec(0, 65), 64))  # resumes at the bound
    @example(cells=(ProgressionSpec(40, 9), ProgressionSpec(39, 9), 400))  # a top cell's chain
    @example(cells=(ProgressionSpec(2, 3), ProgressionSpec(2, 3), 64))  # the same cell
    @example(cells=(ProgressionSpec(0, 5), ProgressionSpec(0, 9), 64))  # r = 0: a shifted prefix
    @example(cells=(ProgressionSpec(0, 7), ProgressionSpec(3, 7), 64))  # r = 0 reuses nothing
    @example(cells=(ProgressionSpec(16, 4), ProgressionSpec(16, 9), 64))  # r > m: takes in m members
    @given(_resumed_extensions())
    def test_equals_the_extension_from_the_anchor(self, cells):
        spec, was, bound = cells
        assert forced_extend(spec, bound, forced_extend(was, bound)) == forced_extend(spec, bound)

    @settings(deadline=None)
    @example(cells=(ProgressionSpec(0, 70), ProgressionSpec(0, 80), 64))  # reuses the whole window
    @example(cells=(ProgressionSpec(0, 9), ProgressionSpec(0, 40), 64))  # a row 0 cell
    @example(cells=(ProgressionSpec(1, 40), ProgressionSpec(0, 40), 64))  # row 1's top
    @given(_resumed_extensions())
    def test_resumes_from_an_outcome_one_position_longer(self, cells):
        # row 0 extends over the bound + 1, and the grid resumes from its outcomes
        spec, was, bound = cells
        assert forced_extend(spec, bound, forced_extend(was, bound + 1)) == forced_extend(spec, bound)

    @pytest.mark.parametrize("spec,was,bound,start", [
        (ProgressionSpec(8, 9), ProgressionSpec(8, 33), 64, 17),
        (ProgressionSpec(20, 33), ProgressionSpec(19, 33), 64, 19),
        (ProgressionSpec(0, 5), ProgressionSpec(0, 9), 64, 5),
        (ProgressionSpec(1, 90), ProgressionSpec(1, 95), 64, 64),
    ])
    def test_copies_exactly_the_positions_below_the_resume_point(self, spec, was, bound, start):
        # a doctored earlier outcome shows which positions are copied: the last one below
        # the resume point comes through as given, the one at it is decided afresh
        earlier = forced_extend(was, bound)
        assert _resume_point(spec, bound, earlier) == start
        copied = forced_extend(spec, bound, _flipped(earlier, start - 1))
        assert (start - 1 in copied.a) != (start - 1 in forced_extend(spec, bound).a)
        if start < bound:
            assert forced_extend(spec, bound, _flipped(earlier, start)) == forced_extend(
                spec, bound
            )

    def test_top_cells_chain_through_the_evil_odious_prefix(self):
        # nothing below M + 1 is excluded, so the forced prefix there is the evil/odious
        # split (Kiss, Theorem 3): every r >= 1 shares it below r, and a top cell (r, m_max)
        # can resume from (r - 1, m_max) at r - 1
        M = 1 << 12
        out = forced_extend(ProgressionSpec(M + 1, 2), M + 3)
        evil, odious = build_evil_odious(M + 1)
        window = (1 << (M + 1)) - 1
        assert out.a.bound >= M + 1
        assert (out.a.mask & window, out.b.mask & window) == (evil.mask, odious.mask)


class TestMatchFamily:
    def test_r2_m3_matches_first_family(self):
        out = forced_extend(ProgressionSpec(2, 3), 256)
        assert match_family(out) == ("s1t1", 1)

    def test_r0_m3_matches_shifted(self):
        assert match_family(forced_extend(ProgressionSpec(0, 3), 256)) == ("s1t1+1", 1)

    def test_r1_m3_matches_second_family(self):
        assert match_family(forced_extend(ProgressionSpec(1, 3), 256)) == ("s2t2", 1)

    def test_modulus_past_two_to_the_sixteen_plus_one(self):
        # m = 2^17 + 1: only 0 is excluded below the bound, and the shifted family still matches
        match = match_family(forced_extend(ProgressionSpec(0, (1 << 17) + 1), 256))
        assert match == ("s1t1+1", 17)

    def test_completed_cell_outside_every_family_matches_none(self):
        # (1, 4) dies at position 5, so a window of 5 completes (a PINNED row); m = 4 is no 2^l + 1
        assert match_family(forced_extend(ProgressionSpec(1, 4), 5)) is None

    def test_completed_cell_its_family_does_not_reproduce_matches_none(self, monkeypatch):
        # the family of (2, 3) is s1t1:1, but with one member of its A flipped the sets differ
        build = solver.build_family

        def flipped(*args):
            a, b, t = build(*args)
            return dataclasses.replace(a, mask=a.mask ^ 1), b, t

        monkeypatch.setattr(solver, "build_family", flipped)
        assert match_family(forced_extend(ProgressionSpec(2, 3), 256)) is None
        code, out, err, usage = call_main(["classify", "--m-max", "3", "--bound", "64"])
        assert (code, err, usage) == (0, "", False)
        assert "2,3,completed,,,," in out.splitlines()

    def test_contradiction_outcome_rejected(self):
        out = forced_extend(ProgressionSpec(1, 4), 64)
        with pytest.raises(ValueError):
            match_family(out)


class TestClassifyGrid:
    def test_predicted_cells_for_m_up_to_nine(self):
        assert predicted_solvable_cells(9) == {
            (1, 2), (0, 2),
            (2, 3), (0, 3), (1, 3),
            (4, 5), (0, 5), (2, 5),
            (8, 9), (0, 9), (4, 9),
        }


def _classify_grid_per_cell(m_max, r_max_factor, bound):
    """Reference: one forced extension per cell, m-major, sorted by (r, m) at the end."""
    records = []
    for m in range(2, m_max + 1):
        for r in range(0, r_max_factor * m + 1):
            out = forced_extend(ProgressionSpec(r, m), bound)
            if out.status == STATUS_COMPLETED:
                family, l = match_family(out) or (None, None)
                records.append(Row(r, m, out.status, family, l, None, None))
            else:
                records.append(
                    Row(r, m, out.status, None, None, out.contradiction_at, out.forced_value)
                )
    records.sort(key=lambda rec: (rec.r, rec.m))
    return records


def _outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _recorded(monkeypatch):
    """(r, m, bound, positions stepped) of each forced_extend call the grid makes from here on,
    each outcome's window checked to end where the extension died or at the bound."""
    calls = []

    def recording(spec, bound, resume=None):
        out = forced_extend(spec, bound, resume)
        assert _window_ends_where_it_died(out, bound)
        calls.append((spec.r, spec.m, bound, len(out.sides) - _resume_point(spec, bound, resume)))
        return out

    monkeypatch.setattr(solver, "forced_extend", recording)
    return calls


GRIDS = st.tuples(st.integers(2, 40), st.integers(0, 3), st.integers(2, 600))
REACHABLE = GRIDS.filter(lambda grid: grid[1] * grid[0] < grid[2] - 1)  # (m_max, factor, bound) classify_grid runs


class TestSharedCells:
    """One top cell (r, m_max) per r against one extension per cell, and the prefix lemma behind it."""

    @settings(deadline=None)
    @example(grid=(5, 0, 64))
    @example(grid=(40, 0, 30))  # m_max past the bound: the top cell completes
    @example(grid=(2, 100, 5))
    @example(grid=(9, 2, 4))
    @example(grid=(65, 2, 4096))
    @example(grid=(20, 2, 42))  # the largest r is bound - 2, the last one in reach
    @example(grid=(20, 2, 41))  # the largest r is bound - 1
    @example(grid=(17, 1, 200))  # the top (16, 17) is row 0's top moved down
    @example(grid=(17, 3, 200))
    @example(grid=(12, 1, 21))  # row 0's top over the bound + 1 dies at the bound: cut, it completes
    @example(grid=(13, 1, 21))  # so does row 0's one-cell run (0, 12), whose diagonal is (11, 12)
    @given(GRIDS)
    def test_agrees_with_one_extension_per_cell(self, grid):
        assert _outcome_or_error(lambda *g: cell_rows(classify_grid(*g)), *grid) == (
            _outcome_or_error(_classify_grid_per_cell, *grid)
        )

    @settings(deadline=None)
    @example(grid=(40, 0, 30))
    @example(grid=(20, 2, 42))
    @given(GRIDS)
    def test_runs_tile_the_grid(self, grid):
        m_max, r_max_factor, bound = grid
        if r_max_factor * m_max >= bound - 1:  # out of reach: refused, as the differential checks
            with pytest.raises(ValueError):
                classify_grid(*grid)
            return
        runs = list(classify_grid(*grid))
        assert all(m_lo <= m_hi for _, m_lo, m_hi, _ in runs)
        cells = [(r, m) for r, m_lo, m_hi, _ in runs for m in range(m_lo, m_hi + 1)]
        # in (r, m) order, each cell once and no gap: exactly the grid's cells
        assert cells == sorted(
            (r, m) for m in range(2, m_max + 1) for r in range(r_max_factor * m + 1)
        )
        assert len(cells) == grid_cells(m_max, r_max_factor)

    @settings(deadline=None)
    @example(grid=(40, 0, 12))  # row 0's top completes past the bound: one shared run
    @example(grid=(17, 1, 20))  # three rows complete with cells to share
    @example(grid=(33, 2, 70))
    @given(REACHABLE)
    def test_completed_run_is_one_cell_with_its_own_spec(self, grid):
        for r, m_lo, m_hi, out in classify_grid(*grid):
            if out.status == STATUS_COMPLETED:
                assert (m_lo, out.spec) == (m_hi, ProgressionSpec(r, m_lo))

    @settings(deadline=None)
    @example(grid=(2, 1, 4))  # the least grid with diagonal cells: row 0 is its top alone
    @example(grid=(17, 1, 200))
    @given(REACHABLE.filter(lambda grid: grid[1] >= 1))
    def test_row_0_is_runs_of_one_below_its_top(self, grid):
        # below m, (0, m) excludes only 0: the evil/odious split moved up by one, which cannot
        # die there, so every diagonal cell (m - 1, m) finds its row-0 outcome kept
        m_max = grid[0]
        row0 = [(r, m_lo, m_hi) for r, m_lo, m_hi, _ in classify_grid(*grid) if r == 0]
        assert row0 == [(0, m, m) for m in range(2, m_max + 1)]

    def test_every_extension_is_a_grid_cell_over_the_whole_bound(self, monkeypatch):
        calls = _recorded(monkeypatch)
        runs = list(classify_grid(33, 2, 2048))
        records = cell_rows(runs)
        cells = [(r, m, bound) for r, m, bound, _ in calls]
        # the 6 diagonal cells (r, r + 1) with a run of their own are row 0's cells moved down
        assert len(cells) == len(set(cells)) == len(runs) - 6 == 208
        assert all(2 <= m <= 33 and r <= 2 * m for r, m, _ in cells)
        assert all(bound == (2049 if r == 0 else 2048) for r, _, bound in cells)
        assert {(r, m) for r, m, _ in cells} <= {(rec.r, rec.m) for rec in records}
        # top cells resume below r, the others at r + m: from the anchor they would step 28,948
        assert sum(stepped for *_, stepped in calls) == 22_951

    def test_completed_top_settles_every_cell_past_the_bound(self, monkeypatch):
        # (0, m) for every m >= 1024 shares P n [0, 1024) = {0} with the top cell (0, 3000),
        # and each is matched against its own spec: l grows with m
        calls = _recorded(monkeypatch)
        records = {(rec.r, rec.m): rec for rec in cell_rows(classify_grid(3000, 0, 1024))}
        assert [(r, m) for r, m, _, _ in calls] == [(0, 3000)] + [(0, m) for m in range(2, 1024)]
        # each cell (0, m) resumes from the top at m, and row 0 extends over the bound + 1, one
        # more step for each of the 19 cells that reach it: from the anchor they would step 535,607
        assert sum(stepped for *_, stepped in calls) == 13_876
        assert [(records[0, m].family, records[0, m].l) for m in (1024, 1025, 2049, 3000)] == [
            (None, None), ("s1t1+1", 10), ("s1t1+1", 11), (None, None)
        ]

    def test_diagonal_cells_are_never_stepped(self, monkeypatch):
        # every cell (r, r + 1) with r >= 1 is read off row 0, the top (128, 129) included
        calls = _recorded(monkeypatch)
        runs = list(classify_grid(129, 2, 8192))
        assert len(calls) == len(runs) - 8 == 822
        assert not [(r, m) for r, m, _, _ in calls if r >= 1 and m == r + 1]

    @pytest.mark.parametrize("grid,extensions", [
        ((17, 1, 20), 59),
        ((33, 2, 70), 198),
        ((6000, 0, 2048), 2_047),  # the top (0, 6000) and one resumed run of one per m < 2048
        ((40, 0, 12), 11),
    ])
    def test_extension_count(self, monkeypatch, grid, extensions):
        calls = _recorded(monkeypatch)
        list(classify_grid(*grid))
        assert len(calls) == extensions

    @settings(deadline=None)
    @example(cell=(2, 3))  # completes at every bound
    @example(cell=(12, 21))  # (0, 12) over 22 dies at position 21: the cell (11, 12) completes
    @given(st.integers(2, 200).flatmap(lambda m: st.tuples(st.just(m), st.integers(m + 1, 700))))
    def test_diagonal_cell_is_row_0_moved_down(self, cell):
        # R_{C+1}(n) = R_C(n - 2): {m - 1, 2m - 1, ...} with 0 pinned to A is {0, m, 2m, ...}
        # with 1 pinned to A, one lower, so every position is one lower and every sum two lower
        m, bound = cell
        diagonal = forced_extend(ProgressionSpec(m - 1, m), bound)
        row0 = forced_extend(ProgressionSpec(0, m), bound + 1)
        died = row0.contradiction_at
        assert (diagonal.sides, diagonal.contradiction_at, diagonal.forced_value) == (
            row0.sides[1:], None if died is None else died - 2, row0.forced_value
        )

    @settings(deadline=None)
    @example(cell=(0, 12, 21))  # over 22 it dies at position 21, so over 21 it completes
    @example(cell=(1, 4, 5))  # over 6 it dies at position 5
    @example(cell=(0, 4, 4))  # over 5 it dies at position 4
    @example(cell=(2, 3, 64))  # completes over both
    @example(cell=(3, 4, 64))  # dies at position 3, long before the bound
    @given(st.integers(0, 200).flatmap(lambda r: st.tuples(
        st.just(r), st.integers(2, 800), st.integers(r + 2, 700)
    )))
    def test_extension_one_longer_cut_to_the_bound(self, cell):
        # the prefix lemma at the bound: dead before it, the extension over bound + 1 is the one
        # over bound; alive at it, its first bound positions are the completed extension
        r, m, bound = cell
        spec = ProgressionSpec(r, m)
        longer = forced_extend(spec, bound + 1)
        if len(longer.sides) < bound:
            assert forced_extend(spec, bound) == longer
        else:
            assert forced_extend(spec, bound) == ExtensionOutcome(spec, longer.sides[:bound])

    @given(st.integers(2, 40).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(m + 1, 3 * m), st.integers(0, 3 * m))
    ), st.data())
    def test_cells_sharing_r_agree_below_the_second_excluded_value(self, cells, data):
        m, m_wide, r = cells
        bound = data.draw(st.integers(r + 2, 400))
        narrow = forced_extend(ProgressionSpec(r, m), bound)
        wide = forced_extend(ProgressionSpec(r, m_wide), bound)
        window = (1 << min(r + m, narrow.a.bound, wide.a.bound)) - 1
        assert narrow.a.mask & window == wide.a.mask & window
        assert narrow.b.mask & window == wide.b.mask & window
        if any(out.status == STATUS_CONTRADICTION and out.a.bound < r + m for out in (narrow, wide)):
            died = [(out.status, out.a.bound, out.contradiction_at, out.forced_value)
                    for out in (narrow, wide)]
            assert died[0] == died[1]

    @pytest.mark.parametrize("grid,first_unreachable", [
        ((9, 2, 4), 3),
        ((20, 2, 41), 40),
        ((3_000_000, 2, 4), 3),
        ((12, 0, 1), 0),
        ((12, 0, -3), 0),
    ])
    def test_out_of_reach_grid_is_refused_before_any_extension(
        self, monkeypatch, grid, first_unreachable
    ):
        monkeypatch.setattr(solver, "forced_extend", never("ran an extension"))
        message = f"bound {grid[2]} must reach past the first excluded value {first_unreachable}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify_grid(*grid)


class TestGridCap:
    """classify_grid counts its cells in closed form and refuses more than MAX_GRID_CELLS."""

    @pytest.mark.parametrize("grid", [(5, 2, 256), (9, 0, 64), (6, 3, 64), (2, 1, 8)])
    def test_cap_is_the_cell_count(self, monkeypatch, grid):
        cells = len(cell_rows(classify_grid(*grid)))
        assert cells == grid_cells(*grid[:2])
        monkeypatch.setattr(solver, "MAX_GRID_CELLS", cells)
        assert len(cell_rows(classify_grid(*grid))) == cells
        monkeypatch.setattr(solver, "MAX_GRID_CELLS", cells - 1)
        with pytest.raises(ValueError, match=f"^grid of {cells} cells exceeds {cells - 1}$"):
            classify_grid(*grid)

    def test_grid_without_a_modulus_is_empty(self):
        # m >= 2, so m_max < 2 leaves no cell; the CLI refuses such a grid before this
        assert grid_cells(1, 2) == grid_cells(0, 0) == 0
        assert list(classify_grid(1, 2, 64)) == []

    def test_factor_zero_grid_is_capped_before_any_extension(self, monkeypatch):
        # r = 0 alone is always in reach, so only the cap bounds m_max
        monkeypatch.setattr(solver, "forced_extend", never("ran an extension"))
        with pytest.raises(ValueError, match=f"^grid of {10**12 - 1} cells exceeds {1 << 20}$"):
            classify_grid(10**12, 0, 1 << 24)

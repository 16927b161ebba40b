"""Forced extension: frozen outcomes, oracle agreement, matching, grids."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repbal import solver
from repbal.builders import FAMILIES, build_family, family_progression
from repbal.intset import BoundedSet, ProgressionSpec, partition_fault, progression_set
from repbal.repfn import r2_profile
from repbal.solver import (
    ClassificationRecord,
    ExtensionOutcome,
    STATUS_COMPLETED,
    STATUS_CONTRADICTION,
    classify_grid,
    forced_extend,
    match_family,
    predicted_solvable_cells,
)


class TestForcedExtend:
    def test_r2_m3_completes_to_the_known_pair(self):
        out = forced_extend(ProgressionSpec(2, 3), 14)
        assert out.status == STATUS_COMPLETED
        assert out.anchor == 0
        assert out.a.elements() == [0, 4, 7, 9, 13]
        assert out.b.elements() == [1, 3, 6, 10, 12]

    def test_r1_m2_completes_to_doubled_evil(self):
        out = forced_extend(ProgressionSpec(1, 2), 16)
        assert out.status == STATUS_COMPLETED
        assert out.a.elements() == [0, 6, 10, 12]
        assert out.b.elements() == [2, 4, 8, 14]

    def test_r1_m4_contradicts_early(self):
        # first inconsistency: sum 5 = 2 + 3 forces the excluded position 5
        out = forced_extend(ProgressionSpec(1, 4), 64)
        assert out.status == STATUS_CONTRADICTION
        assert out.contradiction_at == 5
        assert out.forced_value == 1

    def test_r0_anchor_is_one(self):
        out = forced_extend(ProgressionSpec(0, 3), 16)
        assert out.anchor == 1
        assert out.status == STATUS_COMPLETED
        assert out.a.elements() == [1, 5, 8, 10, 14]
        assert out.b.elements() == [2, 4, 7, 11, 13]

    def test_anchor_always_in_a(self):
        for r, m in [(0, 2), (0, 5), (1, 3), (2, 3), (4, 5), (3, 7)]:
            out = forced_extend(ProgressionSpec(r, m), 64)
            assert out.anchor == (0 if r else 1)
            assert out.a.chi(out.anchor) == 1

    def test_anchor_is_read_from_the_spec(self):
        assert "anchor" not in {field.name for field in dataclasses.fields(ExtensionOutcome)}
        for spec in (ProgressionSpec(0, 4), ProgressionSpec(3, 2)):
            assert forced_extend(spec, 64).anchor == spec.anchor

    def test_bound_too_small_rejected(self):
        with pytest.raises(ValueError):
            forced_extend(ProgressionSpec(9, 2), 10)

    def test_determinism(self):
        a = forced_extend(ProgressionSpec(2, 5), 512)
        b = forced_extend(ProgressionSpec(2, 5), 512)
        assert a == b

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

    def contradiction(frontier, target, demanded):
        window = (1 << frontier) - 1
        return ExtensionOutcome(
            status=STATUS_CONTRADICTION,
            spec=spec,
            a=BoundedSet(frontier, mask_a & window),
            b=BoundedSet(frontier, mask_b & window),
            contradiction_at=target,
            forced_value=demanded,
        )

    for f in range(anchor + 1, bound):
        target = anchor + f
        demanded = pairs(mask_b, rev_b, target) // 2 - pairs(mask_a, rev_a, target) // 2
        if f >= r and (f - r) % m == 0:
            if demanded:
                return contradiction(f, target, demanded)
        elif demanded == 1:
            mask_a |= 1 << f
            rev_a |= 1 << (bound - f)
        elif demanded == 0:
            mask_b |= 1 << f
            rev_b |= 1 << (bound - f)
        else:
            return contradiction(f, target, demanded)

    return ExtensionOutcome(
        status=STATUS_COMPLETED,
        spec=spec,
        a=BoundedSet(bound, mask_a),
        b=BoundedSet(bound, mask_b),
    )


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

    @pytest.mark.parametrize("r,m,at", [(3, 4, 3), (0, 4, 5)])
    def test_contradiction_at_the_first_excluded_position(self, r, m, at):
        out = forced_extend(ProgressionSpec(r, m), 64)
        assert out.status == STATUS_CONTRADICTION
        assert out.contradiction_at - out.anchor == (r or m)
        assert (out.contradiction_at, out.forced_value) == (at, 1)

    @pytest.mark.parametrize("bound", [(1 << 13) - 1, 1 << 13, (1 << 13) + 1])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_completed_cell_equals_the_builders(self, family, bound):
        out = forced_extend(family_progression(family, 2), bound)
        a, b, excluded = build_family(family, 2, bound)
        assert out.status == STATUS_COMPLETED
        assert (out.a, out.b, progression_set(out.spec, out.a.bound)) == (a, b, excluded)

    def test_two_to_the_eighteen(self):
        bound = 1 << 18
        out = forced_extend(ProgressionSpec(2, 3), bound)
        a, b, _ = build_family("s1t1", 1, bound)
        assert out.status == STATUS_COMPLETED
        assert out.a == a and out.b == b


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

    def test_solver_equals_builder_for_every_family(self):
        for family in FAMILIES:
            for l in range(0, 4):
                spec = family_progression(family, l)
                out = forced_extend(spec, 512)
                assert out.status == STATUS_COMPLETED
                a, b, _ = build_family(family, l, 512)
                assert out.a == a and out.b == b

    def test_completed_cell_outside_every_family_matches_none(self):
        # (1, 4) dies at position 5, so a window of 5 completes; m = 4 is no 2^l + 1
        out = forced_extend(ProgressionSpec(1, 4), 5)
        assert out.status == STATUS_COMPLETED
        assert match_family(out) is None

    def test_contradiction_outcome_rejected(self):
        out = forced_extend(ProgressionSpec(1, 4), 64)
        with pytest.raises(ValueError):
            match_family(out)


class TestClassifyGrid:
    def test_small_grid_against_prediction(self):
        records = classify_grid(m_max=5, r_max_factor=2, bound=256)
        assert len(records) == sum(2 * m + 1 for m in range(2, 6))
        completed = {(rec.r, rec.m) for rec in records if rec.status == STATUS_COMPLETED}
        assert completed == predicted_solvable_cells(5)
        for rec in records:
            if rec.status == STATUS_COMPLETED:
                assert rec.family is not None and rec.l is not None
            else:
                assert rec.contradiction_at is not None
                assert rec.forced_value is not None

    def test_records_sorted_by_r_then_m(self):
        records = classify_grid(m_max=4, r_max_factor=1, bound=64)
        keys = [(rec.r, rec.m) for rec in records]
        assert keys == sorted(keys)

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
                records.append(ClassificationRecord(r, m, out.status, family, l, None, None))
            else:
                records.append(
                    ClassificationRecord(
                        r, m, out.status, None, None, out.contradiction_at, out.forced_value
                    )
                )
    records.sort(key=lambda rec: (rec.r, rec.m))
    return records


def _outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSharedProbes:
    """One probe per r against one extension per cell, and the prefix lemma behind it."""

    @settings(deadline=None)
    @example(grid=(5, 0, 64))
    @example(grid=(2, 100, 5))
    @example(grid=(9, 2, 4))
    @example(grid=(65, 2, 4096))
    @example(grid=(20, 2, 42))  # the largest r is bound - 2, the last one in reach
    @example(grid=(20, 2, 41))  # the largest r is bound - 1
    @given(st.tuples(st.integers(2, 40), st.integers(0, 3), st.integers(2, 600)))
    def test_agrees_with_one_extension_per_cell(self, grid):
        assert _outcome_or_error(classify_grid, *grid) == _outcome_or_error(
            _classify_grid_per_cell, *grid
        )

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
        def refuse(*args, **kwargs):
            raise AssertionError("ran an extension")

        monkeypatch.setattr(solver, "forced_extend", refuse)
        message = f"bound {grid[2]} must reach past the first excluded value {first_unreachable}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify_grid(*grid)


class TestGridCap:
    """classify_grid counts its cells in closed form and refuses more than MAX_GRID_CELLS."""

    @pytest.mark.parametrize("grid", [(5, 2, 256), (9, 0, 64), (6, 3, 64), (2, 1, 8)])
    def test_cap_is_the_cell_count(self, monkeypatch, grid):
        cells = len(classify_grid(*grid))
        monkeypatch.setattr(solver, "MAX_GRID_CELLS", cells)
        assert len(classify_grid(*grid)) == cells
        monkeypatch.setattr(solver, "MAX_GRID_CELLS", cells - 1)
        with pytest.raises(ValueError, match=f"^grid of {cells} cells exceeds {cells - 1}$"):
            classify_grid(*grid)

    def test_factor_zero_grid_is_capped_before_any_extension(self, monkeypatch):
        # r = 0 alone is always in reach, so only the cap bounds m_max
        def refuse(*args, **kwargs):
            raise AssertionError("ran an extension")

        monkeypatch.setattr(solver, "forced_extend", refuse)
        with pytest.raises(ValueError, match=f"^grid of {10**12 - 1} cells exceeds {1 << 20}$"):
            classify_grid(10**12, 0, 1 << 24)

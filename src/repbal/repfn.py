"""Two-element-sum counting over bounded sets.

Pointwise counts come in three variants (ordered pairs, strictly increasing
pairs, weakly increasing pairs), plus counts over a truncated set.  Whole
profiles are computed by a bit-parallel kernel; an independent
pair-enumeration oracle is kept alongside it.  All counts are exact machine
integers and every query outside a set's materialized window is refused
rather than answered partially.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intset import BoundedSet, OutOfWindowError

__all__ = [
    "RepProfile",
    "r1",
    "r1_profile",
    "r2",
    "r2_prefix",
    "r2_profile",
    "r2_profile_naive",
    "r3",
    "r3_profile",
]


def _require_window(s: BoundedSet, n: int) -> None:
    if not 0 <= n < s.bound:
        raise OutOfWindowError(
            f"sum index {n} outside the materialized window [0, {s.bound}); widen the set first"
        )


def r1(s: BoundedSet, n: int) -> int:
    """Ordered pairs (x, y) with x + y = n, both in s."""
    _require_window(s, n)
    m = s.mask
    return sum(1 for a in range(n + 1) if (m >> a) & 1 and (m >> (n - a)) & 1)


def r2(s: BoundedSet, n: int) -> int:
    """Pairs x < y with x + y = n, both in s."""
    _require_window(s, n)
    m = s.mask
    return sum(1 for a in range((n + 1) // 2) if (m >> a) & 1 and (m >> (n - a)) & 1)


def r3(s: BoundedSet, n: int) -> int:
    """Pairs x <= y with x + y = n, both in s."""
    _require_window(s, n)
    m = s.mask
    return sum(1 for a in range(n // 2 + 1) if (m >> a) & 1 and (m >> (n - a)) & 1)


def r2_prefix(s: BoundedSet, x: int, n: int) -> int:
    """r2 of s truncated to [0, x], evaluated at n.

    Truncating at x >= n is the identity for sums up to n, so any x inside
    the window is accepted.
    """
    _require_window(s, n)
    return r2(s.truncate(x), n)


@dataclass(frozen=True)
class RepProfile:
    """Counts of one representation variant for every sum in [0, len - 1]."""

    values: tuple[int, ...]
    variant: str  # "R1" | "R2" | "R3"
    source_bound: int

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _ordered_counts(s: BoundedSet, n_max: int) -> list[int]:
    """Ordered-pair counts for every sum 0..n_max, one popcount per sum.

    With the membership mask and its bit reversal, the count at n is
    popcount(mask & (reversed >> (n_max - n))): the shift lines bit a of the
    mask up with bit n - a of the original, a machine word of pairs at a time.
    """
    _require_window(s, n_max)
    width = n_max + 1
    mask = s.mask & ((1 << width) - 1)  # elements > n_max occur in no sum <= n_max
    rev = int(format(mask, f"0{width}b")[::-1], 2)
    return [(mask & (rev >> (width - 1 - n))).bit_count() for n in range(width)]


def _diagonal(s: BoundedSet, n: int) -> int:
    return (s.mask >> (n // 2)) & 1 if n % 2 == 0 else 0


def r1_profile(s: BoundedSet, n_max: int) -> RepProfile:
    """Ordered-pair counts for all sums up to n_max."""
    return RepProfile(tuple(_ordered_counts(s, n_max)), "R1", s.bound)


def r2_profile(s: BoundedSet, n_max: int) -> RepProfile:
    """Strict-pair counts for all sums up to n_max (fast path)."""
    values = []
    for n, ordered in enumerate(_ordered_counts(s, n_max)):
        d = _diagonal(s, n)
        if (ordered - d) % 2:
            raise RuntimeError(f"odd count {ordered - d} of off-diagonal ordered pairs at sum {n}")
        values.append((ordered - d) // 2)
    return RepProfile(tuple(values), "R2", s.bound)


def r3_profile(s: BoundedSet, n_max: int) -> RepProfile:
    """Weak-pair counts for all sums up to n_max."""
    values = []
    for n, ordered in enumerate(_ordered_counts(s, n_max)):
        values.append((ordered + _diagonal(s, n)) // 2)
    return RepProfile(tuple(values), "R3", s.bound)


def r2_profile_naive(s: BoundedSet, n_max: int) -> list[int]:
    """Reference oracle for r2_profile: enumerate element pairs directly.

    Deliberately shares nothing with the bit-parallel kernel.
    """
    _require_window(s, n_max)
    counts = [0] * (n_max + 1)
    elems = s.elements()
    for i, a in enumerate(elems):
        if 2 * a >= n_max:
            break  # every partner b > a overshoots n_max
        for b in elems[i + 1:]:
            total = a + b
            if total > n_max:
                break
            counts[total] += 1
    return counts

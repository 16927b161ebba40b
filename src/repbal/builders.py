"""Builders for every named set family, up to a caller-supplied bound.

Every balanced pair here is the parity split of one weight sequence: the
subset sums of the weights, divided by whether the number of terms is even
or odd.  Each sequence is a finite prefix followed by ``start * 2^j``:

  evil/odious: no prefix, start 1
  s1(l):       1, 2, ..., 2^(l-1), start 2^l + 1
  s2(l):       1, 2, ..., 2^(l-2), 2^(l-1) + 1, start 2^l + 1
               (for l = 0 the prefix is empty and s2(0) == s1(0))
  xy:          2, 3, start 4
  ef(u):       1, 2, ..., 2^(u-1), 2^u + 1, start 2^(u+1) + 1
               (over [0, 3*2^u + 2); no subset sums to the top value
               3*2^u + 1, which goes to the second set)

This module is the one place that knows the named families (``s1t1``,
``s2t2``, ``s1t1+1``), the progression each leaves uncovered, and which
family a progression belongs to.  Disjointness of the even- and odd-parity
sets is a property of the particular weights; the builders detect collisions
instead of assuming uniqueness of representation.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .intset import BoundedSet, ProgressionSpec, partition_fault, progression_set

__all__ = [
    "AmbiguousParityError",
    "FAMILIES",
    "S1T1",
    "S1T1_SHIFTED",
    "S2T2",
    "build_ef",
    "build_evil_odious",
    "build_family",
    "build_parity_sets",
    "build_xy",
    "doubling_weights",
    "family_cells",
    "family_of",
    "family_progression",
    "family_weights",
]

# Family tokens, as used on the command line.
S1T1 = "s1t1"
S2T2 = "s2t2"
S1T1_SHIFTED = "s1t1+1"
FAMILIES = (S1T1, S2T2, S1T1_SHIFTED)


class AmbiguousParityError(ValueError):
    """A value was reachable with both an even and an odd number of weights."""


def doubling_weights(prefix: Iterable[int], start: int, bound: int) -> list[int]:
    """The prefix, then start * 2^j for j >= 0, keeping only weights below bound.

    No sum below the bound can use a weight at or above it.
    """
    weights = [w for w in prefix if w < bound]
    w = start
    while w < bound:
        weights.append(w)
        w *= 2
    return weights


def _capped(family: str, l: int, bound: int) -> int:
    """The least parameter that builds the same sets below bound as l does.

    From l = bound.bit_length() + 1 on, 2^(l-1) and 2^l + 1 are both past the
    bound, so neither the weights nor the excluded values below it depend on
    l.  One less is not enough: s2(l)'s 2^(l-1) + 1 can still lie below it.
    """
    capped = min(l, bound.bit_length() + 1)
    family_progression(family, capped)  # refuses an unknown family or a negative l
    return capped


def family_weights(family: str, l: int, bound: int) -> list[int]:
    """The weights below bound whose parity split builds the named family:
    s1(l) for ``s1t1`` and ``s1t1+1``, s2(l) for ``s2t2``."""
    l = _capped(family, l, bound)
    prefix = [1 << i for i in range(l)]
    if family == S2T2 and l:
        prefix[-1] += 1
    return doubling_weights(prefix, (1 << l) + 1, bound)


def family_progression(family: str, l: int) -> ProgressionSpec:
    """The progression predicted to be the complement of the named family pair."""
    if l < 0:
        raise ValueError(f"family parameter must be >= 0, got {l}")
    m = (1 << l) + 1
    if family == S1T1:
        return ProgressionSpec(1 << l, m)
    if family == S1T1_SHIFTED:
        return ProgressionSpec(0, m)
    if family == S2T2:
        return ProgressionSpec(1 if l == 0 else 1 << (l - 1), m)
    raise ValueError(f"unknown family {family!r}")


def family_cells(m_max: int) -> Iterator[tuple[str, int, ProgressionSpec]]:
    """Every (family, l, progression) with modulus 2^l + 1 <= m_max, family-major."""
    for family in FAMILIES:
        l = 0
        while (1 << l) + 1 <= m_max:
            yield family, l, family_progression(family, l)
            l += 1


def family_of(spec: ProgressionSpec) -> tuple[str, int] | None:
    """The first family in FAMILIES order whose progression is spec, with its l."""
    l = (spec.m - 1).bit_length() - 1
    if spec.m != (1 << l) + 1:
        return None
    for family in FAMILIES:
        if family_progression(family, l) == spec:
            return family, l
    return None


def build_parity_sets(weights: Iterable[int], bound: int) -> tuple[BoundedSet, BoundedSet]:
    """Exact parity-tagged subset-sum reachability over [0, bound): (even, odd).

    One dynamic-programming pass per weight; adding weight h sends every
    reachable value v of one parity to v + h of the other.  All weights must
    be positive, so partial sums never shrink and the window mask is safe.
    A value reachable with both parities lies in both sets.
    """
    window = (1 << bound) - 1
    even = 1 & window  # the empty sum
    odd = 0
    for h in weights:
        if h <= 0:
            raise ValueError(f"weights must be positive, got {h}")
        even, odd = even | ((odd << h) & window), odd | ((even << h) & window)
    return BoundedSet(bound, even), BoundedSet(bound, odd)


def _balanced_pair(weights: list[int], bound: int) -> tuple[BoundedSet, BoundedSet]:
    even, odd = build_parity_sets(weights, bound)
    ambiguous = even.mask & odd.mask
    if ambiguous:
        shown = BoundedSet(bound, ambiguous).elements()[:4]
        raise AmbiguousParityError(f"weights {weights} reach {shown} with both parities")
    return even, odd


def build_evil_odious(bound: int) -> tuple[BoundedSet, BoundedSet]:
    """Split [0, bound) into evil numbers (even binary digit sum) and odious ones:
    the parity split of the powers of two."""
    return _balanced_pair(doubling_weights((), 1, bound), bound)


def build_family(family: str, l: int, bound: int) -> tuple[BoundedSet, BoundedSet, BoundedSet]:
    """Build the named pair (A, B) plus the progression predicted as its complement.

    ``s1t1+1`` is the ``s1t1`` pair translated by one.  Every l past
    bound.bit_length() + 1 builds the sets of that one, so l is capped first.
    """
    l = _capped(family, l, bound)
    t = progression_set(family_progression(family, l), bound)
    a, b = _balanced_pair(family_weights(family, l, bound), bound)
    if family == S1T1_SHIFTED:
        window = (1 << bound) - 1
        a, b = BoundedSet(bound, (a.mask << 1) & window), BoundedSet(bound, (b.mask << 1) & window)
    return a, b, t


def build_ef(u: int) -> tuple[BoundedSet, BoundedSet]:
    """The equal-representation pair on the window [0, 3*2^u + 1] with 2^u removed.

    The subset sums of the powers below 2^u fill [0, 2^u); adding 2^u + 1 or
    2^(u+1) + 1 moves them to [2^u + 1, 2^(u+1) + 1) or [2^(u+1) + 1, 3*2^u + 1)
    with the parity flipped, and both together pass the bound.  No subset sums
    to the top of the window, which goes to the second set.
    """
    if u < 0:
        raise ValueError(f"window parameter must be >= 0, got {u}")
    block = 1 << u
    bound = 3 * block + 2
    prefix = [1 << i for i in range(u)] + [block + 1]
    e, f = _balanced_pair(doubling_weights(prefix, 2 * block + 1, bound), bound)
    f = BoundedSet(bound, f.mask | 1 << (bound - 1))
    if partition_fault(bound, e.mask, f.mask, 1 << block) is not None:
        raise RuntimeError(f"window pair for u={u} does not cover the window minus {block}")
    return e, f


def build_xy(bound: int) -> tuple[BoundedSet, BoundedSet]:
    """The equal-representation pair partitioning [0, bound) minus {1}."""
    return _balanced_pair(doubling_weights((2, 3), 4, bound), bound)

"""Builders for every named set family, up to a caller-supplied bound.

Three kinds of construction live here: the evil/odious split of an initial
segment (by parity of the binary digit sum), parity-of-term-count subset-sum
sets over a weight sequence, and the progression-complement pairs assembled
from those, plus two fixed constructions (the punctured-window pair and the
skip-one pair).  Disjointness of the even- and odd-parity sets is a property
of the particular weights; the builders detect collisions instead of assuming
uniqueness of representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .intset import BoundedSet, ProgressionSpec, progression_set

__all__ = [
    "AmbiguousParityError",
    "FAMILIES",
    "S1T1",
    "S1T1_SHIFTED",
    "S2T2",
    "ParityBuildReport",
    "WeightSequence",
    "build_ef",
    "build_evil_odious",
    "build_family",
    "build_parity_sets",
    "build_xy",
    "family_progression",
]

# Family tokens, as used on the command line.
S1T1 = "s1t1"
S2T2 = "s2t2"
S1T1_SHIFTED = "s1t1+1"
FAMILIES = (S1T1, S2T2, S1T1_SHIFTED)


class AmbiguousParityError(ValueError):
    """A value was reachable with both an even and an odd number of weights."""


@dataclass(frozen=True)
class WeightSequence:
    """A strictly increasing sequence of positive weights, generated lazily.

    Shapes:
      s1(l):       1, 2, ..., 2^(l-1), then (2^l + 1) * 2^j for j >= 0
      s2(l):       1, 2, ..., 2^(l-2), 2^(l-1) + 1, then (2^l + 1) * 2^j
                   (for l = 0 the prefix degenerates and s2(0) == s1(0))
      xy:          2, 3, 4, 8, 16, 32, ...
      explicit:    a caller-given tuple
    """

    kind: str
    l: int = 0
    explicit: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("s1", "s2", "xy", "explicit"):
            raise ValueError(f"unknown weight sequence kind {self.kind!r}")
        if self.l < 0:
            raise ValueError(f"family parameter must be >= 0, got {self.l}")
        if self.kind == "explicit":
            ws = self.explicit
            if not all(w > 0 for w in ws):
                raise ValueError("weights must be positive")
            if any(ws[i] >= ws[i + 1] for i in range(len(ws) - 1)):
                raise ValueError("weights must be strictly increasing")

    @classmethod
    def s1(cls, l: int) -> WeightSequence:
        return cls("s1", l)

    @classmethod
    def s2(cls, l: int) -> WeightSequence:
        return cls("s2", l)

    @classmethod
    def xy(cls) -> WeightSequence:
        return cls("xy")

    @classmethod
    def explicit_list(cls, weights: Iterable[int]) -> WeightSequence:
        return cls("explicit", explicit=tuple(weights))

    def _generate(self) -> Iterator[int]:
        if self.kind == "explicit":
            yield from self.explicit
            return
        if self.kind == "xy":
            yield 2
            yield 3
            w = 4
            while True:
                yield w
                w *= 2
        l = self.l
        if self.kind == "s2" and l >= 1:
            for i in range(l - 1):
                yield 1 << i
            yield (1 << (l - 1)) + 1
        else:  # "s1", and the degenerate l = 0 case of "s2"
            for i in range(l):
                yield 1 << i
        w = (1 << l) + 1
        while True:
            yield w
            w *= 2

    def weights_below(self, bound: int) -> list[int]:
        """All weights < bound; no sum below the bound can use a later weight."""
        out: list[int] = []
        for w in self._generate():
            if w >= bound:
                break
            out.append(w)
        return out


@dataclass(frozen=True)
class ParityBuildReport:
    """Subset sums of a weight sequence, split by parity of the term count.

    ``ambiguous`` holds every value reachable with both parities; it equals
    ``even_set & odd_set`` by construction and is empty exactly when the two
    sets partition their union.
    """

    even_set: BoundedSet
    odd_set: BoundedSet
    ambiguous: BoundedSet


def build_parity_sets(weights: WeightSequence, bound: int) -> ParityBuildReport:
    """Exact parity-tagged subset-sum reachability over [0, bound).

    One dynamic-programming pass per weight; adding weight h sends every
    reachable value v of one parity to v + h of the other.  All weights are
    positive, so partial sums never shrink and the window mask is safe.
    """
    window = (1 << bound) - 1
    even = 1 & window  # the empty sum
    odd = 0
    for h in weights.weights_below(bound):
        even, odd = even | ((odd << h) & window), odd | ((even << h) & window)
    return ParityBuildReport(
        even_set=BoundedSet(bound, even),
        odd_set=BoundedSet(bound, odd),
        ambiguous=BoundedSet(bound, even & odd),
    )


def build_evil_odious(bound: int) -> tuple[BoundedSet, BoundedSet]:
    """Split [0, bound) into evil numbers (even binary digit sum) and odious ones.

    Doubling construction: the parity pattern on [2^k, 2^(k+1)) is the
    complement of the pattern on [0, 2^k).
    """
    if bound <= 0:
        return BoundedSet(max(bound, 0), 0), BoundedSet(max(bound, 0), 0)
    evil = 1  # 0 has digit sum 0
    width = 1
    while width < bound:
        odious = ((1 << width) - 1) ^ evil
        evil |= odious << width
        width *= 2
    window = (1 << bound) - 1
    evil &= window
    return BoundedSet(bound, evil), BoundedSet(bound, window ^ evil)


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


def _balanced_pair(weights: WeightSequence, bound: int) -> tuple[BoundedSet, BoundedSet]:
    report = build_parity_sets(weights, bound)
    if report.ambiguous:
        raise AmbiguousParityError(
            f"weights {weights.weights_below(bound)} reach "
            f"{report.ambiguous.elements()[:4]} with both parities"
        )
    return report.even_set, report.odd_set


def build_family(family: str, l: int, bound: int) -> tuple[BoundedSet, BoundedSet, BoundedSet]:
    """Build the named pair (A, B) plus the progression predicted as its complement."""
    t = progression_set(family_progression(family, l), bound)
    if family == S1T1:
        a, b = _balanced_pair(WeightSequence.s1(l), bound)
    elif family == S2T2:
        a, b = _balanced_pair(WeightSequence.s2(l), bound)
    elif family == S1T1_SHIFTED:
        base_a, base_b = _balanced_pair(WeightSequence.s1(l), bound)
        a, _ = base_a.shift(1)
        b, _ = base_b.shift(1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return a, b, t


def build_ef(u: int) -> tuple[BoundedSet, BoundedSet]:
    """The equal-representation pair on the window [0, 3*2^u + 1] with 2^u removed.

    Assembled from the evil/odious split of [0, 2^u) and two translates of it,
    with the top of the window going to the second set.
    """
    if u < 0:
        raise ValueError(f"window parameter must be >= 0, got {u}")
    block = 1 << u
    bound = 3 * block + 2
    evil, odious = build_evil_odious(block)
    evil = evil.widen(bound)
    odious = odious.widen(bound)
    e, f = evil, odious
    for offset in (block + 1, 2 * block + 1):
        moved_odious, dropped_o = odious.shift(offset)
        moved_evil, dropped_e = evil.shift(offset)
        if dropped_o or dropped_e:  # the top translate ends at bound - 2
            raise RuntimeError(f"translate by {offset} left the window of size {bound}")
        e = e | moved_odious
        f = f | moved_evil
    f = f | BoundedSet.from_elements([bound - 1], bound)
    if not e.isdisjoint(f):
        raise RuntimeError(f"window pair for u={u} overlaps")
    if (e | f) != BoundedSet.full(bound) - BoundedSet.from_elements([block], bound):
        raise RuntimeError(f"window pair for u={u} does not cover the window minus {block}")
    return e, f


def build_xy(bound: int) -> tuple[BoundedSet, BoundedSet]:
    """The equal-representation pair partitioning [0, bound) minus {1}."""
    return _balanced_pair(WeightSequence.xy(), bound)

"""Bounded integer sets backed by arbitrary-size bit masks.

Every set in this package is a finite window [0, bound) of a conceptually
infinite set of nonnegative integers.  The bound is an exclusive knowledge
horizon: queries at or past it raise ``OutOfWindowError`` instead of silently
answering "absent", and no operation moves an element past it.  Values are
immutable and every operation is a pure function, so they are safe to share
freely.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

__all__ = [
    "MAX_BOUND",
    "BoundedSet",
    "OutOfWindowError",
    "ProgressionSpec",
    "check_bound",
    "partition_fault",
    "progression_set",
]


# The binary numeral's digits as 0/1 bytes: selectors for itertools.compress, and chi's view.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")

# Largest window a fixture may declare, and the command line may build:
# 2 MiB per mask, past every planned size.
MAX_BOUND = 1 << 24

# A refused fixture field is echoed whole up to this many characters, and cut past it
_FIELD_SHOWN = 20
_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")


def check_bound(bound: int) -> int:
    """Refuse a window past MAX_BOUND before anything of its size is allocated or looped over."""
    if bound > MAX_BOUND:
        raise ValueError(f"bound {bound} exceeds {MAX_BOUND}")
    return bound


def _fixture_int(what: str, field: str) -> int:
    """One integer field of a fixture, or an error that names it and the fixture format.

    A field past _FIELD_SHOWN characters is shown by its head and length.  One of a sign and
    digits alone is out of range: int() refuses it only past its digit limit, thousands long."""
    try:
        return int(field)
    except ValueError:
        pass
    shown = repr(field)
    if len(field) > _FIELD_SHOWN:
        shown = f"{field[:_FIELD_SHOWN]!r}… ({len(field)} characters)"
    fault = "out of range" if _SIGNED_DIGITS.fullmatch(field) else "not an integer"
    raise ValueError(f"{what} {shown} is {fault}: expected 'bound=<N>' then comma-separated integers")


class OutOfWindowError(ValueError):
    """A membership or truncation query touched [bound, infinity)."""


@dataclass(frozen=True)
class ProgressionSpec:
    """The arithmetic progression {r + m*k : k >= 0} of excluded values."""

    r: int
    m: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"progression offset must be >= 0, got r={self.r}")
        if self.m < 2:
            raise ValueError(f"progression modulus must be >= 2, got m={self.m}")

    @property
    def anchor(self) -> int:
        """The least value outside the progression: 0, or 1 when r = 0 (m >= 2 frees 1)."""
        return 0 if self.r else 1


@dataclass(frozen=True)
class BoundedSet:
    """Immutable set of integers in [0, bound); bit i of mask is set iff i is a member.

    Sets combine as masks: ``BoundedSet(bound, a.mask | b.mask)``.  Membership
    queries (``chi`` and ``in``) are total on [0, bound) and refuse anything
    outside it.
    """

    bound: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError(f"bound must be >= 0, got {self.bound}")
        if self.mask < 0 or self.mask >> self.bound != 0:
            raise ValueError("mask holds elements at or beyond the bound")

    @classmethod
    def from_digits(cls, bound: int, digits: bytearray) -> BoundedSet:
        """The set whose members are the positions x with ``digits[x] == ord("1")``.

        The one parse of a binary numeral, which reads its highest position
        first: ``digits`` is reversed in place, so the caller gives it up.
        """
        digits.reverse()
        return cls(bound, int(digits, 2) if digits else 0)

    @classmethod
    def from_elements(cls, elements: Iterable[int], bound: int) -> BoundedSet:
        """One pass: each element sets the digit at its own position."""
        digits = bytearray(b"0") * bound
        one = ord("1")
        for e in elements:
            if not 0 <= e < bound:
                raise ValueError(f"element {e} outside [0, {bound})")
            digits[e] = one
        return cls.from_digits(bound, digits)

    @cached_property
    def _digits(self) -> bytes:
        """One 0/1 byte per position of the window, highest first, built on the first chi call."""
        return format(self.mask, f"0{self.bound}b").encode().translate(_DIGIT_BITS)

    def chi(self, t: int) -> int:
        """Characteristic function: 1 iff t is a member, 0 otherwise; O(1) after the first call."""
        if not 0 <= t < self.bound:
            raise OutOfWindowError(f"chi({t}) outside the window [0, {self.bound})")
        return self._digits[~t]

    def __contains__(self, t: int) -> bool:
        return self.chi(t) == 1

    def __iter__(self) -> Iterator[int]:
        """Ascending members, selected from the binary numeral's digits in C loops."""
        digits = format(self.mask, "b").encode().translate(_DIGIT_BITS)
        members = list(compress(range(len(digits) - 1, -1, -1), digits))
        members.reverse()
        return iter(members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> list[int]:
        return list(self)

    def truncate(self, x: int) -> BoundedSet:
        """Subset of elements <= x (inclusive); the knowledge window is kept."""
        if not 0 <= x < self.bound:
            raise OutOfWindowError(f"truncate({x}) outside the window [0, {self.bound})")
        return BoundedSet(self.bound, self.mask & ((1 << (x + 1)) - 1))

    def to_text(self) -> str:
        """Two-line fixture format: ``bound=<N>`` then comma-separated sorted elements."""
        return f"bound={self.bound}\n" + ",".join(map(str, self)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> BoundedSet:
        """Parse the fixture format; a bound outside [0, MAX_BOUND] is refused before any element,
        and a field that is no integer is named."""
        lines = text.splitlines()
        if len(lines) != 2 or not lines[0].startswith("bound="):
            raise ValueError("expected two lines: 'bound=<N>' then the elements")
        bound = _fixture_int("bound", lines[0][len("bound="):])
        empty = cls(check_bound(bound))  # the constructor refuses a negative bound
        body = lines[1].strip()
        if not body:
            return empty
        fields = body.split(",")
        try:
            elems = list(map(int, fields))
        except ValueError:  # parsed again field by field, to name the first bad one
            elems = [_fixture_int("element", field) for field in fields]
        if any(map(operator.ge, elems, elems[1:])):
            raise ValueError("elements must be strictly increasing")
        return cls.from_elements(elems, bound)

    def __repr__(self) -> str:
        elems = self.elements()
        shown = ",".join(map(str, elems[:12])) + (",..." if len(elems) > 12 else "")
        return f"BoundedSet(bound={self.bound}, {{{shown}}})"


def partition_fault(width: int, *masks: int) -> int | None:
    """The least x in [0, width) in none of the masks or in two or more, or None if they
    partition the window; bits at or past width are ignored."""
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    bad = (twice | ~once) & ((1 << width) - 1)
    return (bad & -bad).bit_length() - 1 if bad else None


def progression_set(spec: ProgressionSpec, bound: int) -> BoundedSet:
    """Materialize {r + m*k : k >= 0} inside [0, bound): one slice of digits."""
    digits = bytearray(b"0") * bound
    digits[spec.r::spec.m] = b"1" * len(range(spec.r, bound, spec.m))
    return BoundedSet.from_digits(bound, digits)

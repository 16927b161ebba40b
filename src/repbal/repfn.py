"""Two-element-sum counting over bounded sets.

Single sums of a truncated set are counted by one bit-parallel primitive,
``pairs_at``, over plain masks.  A whole profile, at every width, is one
exact square of the set's indicator packed into decimal digit fields, read
back one field per 32-bit lane; the strict counts are taken from those
lanes by a subtraction, an odd check and a halving of whole integers, not
sum by sum.  An independent pair-enumeration oracle is kept alongside.
Whether two sets balance, and where they first do not, is one product of
the same packed indicators.  All counts are exact integers and every query
outside a set's materialized window is refused rather than answered
partially.
"""

from __future__ import annotations

import array
import bisect
import decimal
import sys
from typing import Sequence

from .intset import BoundedSet, OutOfWindowError

__all__ = [
    "first_r2_difference",
    "pairs_at",
    "r1_profile",
    "r2_prefix",
    "r2_profile",
    "r2_profile_naive",
    "strict_counts",
]


def _require_window(s: BoundedSet, n: int) -> None:
    if not 0 <= n < s.bound:
        raise OutOfWindowError(
            f"sum index {n} outside the materialized window [0, {s.bound});"
            " build the set with a larger bound"
        )


def r2_prefix(s: BoundedSet, x: int, n: int) -> int:
    """r2 of s truncated to [0, x], evaluated at n.

    Truncating at x >= n is the identity for sums up to n, so any x inside
    the window is accepted.  One pairs_at counts the ordered pairs: each
    strict pair twice and the diagonal pair (n/2, n/2) at most once, so
    halving rounded down leaves the strict count.
    """
    _require_window(s, n)
    mask = s.truncate(x).mask
    return pairs_at(mask, mask, n) // 2


def pairs_at(x: int, y: int, n: int) -> int:
    """#{a in x : n - a in y} for n >= 0; bits of x or y above n count for nothing.

    Reversing the low n + 1 bits of y moves bit n - a to bit a, in line with
    bit a of x, so one AND and one popcount count a machine word of pairs at a
    time.  Every single-sum pair count in the package goes through here: the
    truncated counts and the identity checkers' cross sums.
    """
    rev_y = int(format(y & ((1 << (n + 1)) - 1), f"0{n + 1}b")[::-1], 2)
    return (x & rev_y).bit_count()


def strict_counts(ordered: Sequence[int], mask: int) -> tuple[int, ...]:
    """Pairs a < b with a + b = n for n = 0, 1, ..., from one set's ordered-pair counts.

    Ordered pairs off the diagonal come in mirrored twos, so each count less the
    diagonal pair (n/2, n/2) halves exactly; an odd remainder means a broken kernel.
    Count n goes into lane n of one integer, and bit a of the mask into lane 2a of
    another, by one strided slice.  Three whole-number operations do the rest: the
    difference, its AND with the low bit of every lane (the odd check), and its
    shift right by one.  A lane borrows from the next only where its count is 0 and
    its diagonal pair is there, an off-diagonal count of -1, which is odd; so after
    a passing check every lane is exact and even, and the shift moves only zero bits
    from one lane into the next.  A count no lane holds, negative or 2^32 and above,
    raises OverflowError rather than wrap into a neighbour.  Only a failed check
    scans the counts one sum at a time, to name the lowest odd one.
    """
    width = len(ordered)
    if not width:
        return ()
    half = (width + 1) // 2
    diagonal = format(mask & ((1 << half) - 1), f"0{half}b")[::-1].encode().translate(_DIGIT_VALUES)
    lanes = bytearray(_LANE * width)
    lanes[_LOW_BYTE::2 * _LANE] = diagonal  # diagonal[a] is bit a, the diagonal pair of sum 2a
    off = _from_lanes(array.array("I", ordered)) - _from_lanes(lanes)
    if off & _from_lanes(_LOW_BIT * width):
        counts = (count - (n % 2 == 0 and diagonal[n // 2]) for n, count in enumerate(ordered))
        n, count = next((n, count) for n, count in enumerate(counts) if count % 2)
        raise RuntimeError(f"odd count {count} of off-diagonal ordered pairs at sum {n}")
    return tuple(_to_lanes(off >> 1, width))


# Exact integer arithmetic at any size, whatever the calling thread's context.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)

# The byte value of each decimal digit character.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))

# A profile is read out through lanes, native unsigned ints of _LANE bytes, one count
# per lane; a digit written at byte _LOW_BYTE of a lane adds its value to that lane.
_LANE = array.array("I").itemsize
_LOW_BIT = array.array("I", [1]).tobytes()  # one lane holding 1
_LOW_BYTE = _LOW_BIT.index(1)


def _from_lanes(buffer: bytes | bytearray | array.array) -> int:
    """A buffer of lanes as one integer: lane n is the integer's digit n in base 2^(8 * _LANE)."""
    return int.from_bytes(buffer, sys.byteorder)


def _to_lanes(total: int, width: int) -> array.array:
    """The lowest width lanes of a nonnegative integer, the inverse of _from_lanes."""
    return array.array("I", total.to_bytes(_LANE * width, sys.byteorder))


def _packed(mask: int, width: int, doubled: bool = False) -> tuple[decimal.Decimal, int]:
    """A set's indicator S at x = 10^d, for the sums below width, and the field width d.

    Bit a of mask becomes the digit of 10^(d*a).  With doubled it is S(x^2)
    instead: bit a, for 2a < width, becomes the digit of 10^(2*d*a).  An
    ordered count of a sum below width is at most width < 10^d, so d digits
    hold it.
    """
    d = len(str(width))
    bits, stride = ((width + 1) // 2, 2 * d) if doubled else (width, d)
    digits = format(mask & ((1 << bits) - 1), f"0{bits}b")
    return _EXACT.create_decimal(("0" * (stride - 1)).join(digits)), d


def _fields(numeral: str, width: int, d: int) -> array.array:
    """The lowest width d-digit fields of a decimal numeral, lowest first, one per lane.

    The fields are read in C loops.  Reversed, the low digits hold digit k
    of field n at index n*d + k.  Column k, the digits [k::d], goes into the
    low byte of each lane of a zeroed buffer; the columns, read as one
    integer each and weighted by 10^k, sum to field n in lane n.  A field is
    below 10^d, and d is at most 8 for any window up to MAX_BOUND, so it
    fits its 32-bit lane and no lane carries into the next.
    """
    if 10**d > 1 << 8 * _LANE:  # only past a window of 10^9 - 1, far past MAX_BOUND
        raise OverflowError(f"a {d}-digit field overflows a {8 * _LANE}-bit lane")
    digits = numeral[-width * d:].zfill(width * d)[::-1].encode().translate(_DIGIT_VALUES)
    lanes = bytearray(_LANE * width)
    total = 0
    for k in range(d):
        lanes[_LOW_BYTE::_LANE] = digits[k::d]
        total += _from_lanes(lanes) * 10**k
    return _to_lanes(total, width)


def _ordered_counts(s: BoundedSet, n_max: int) -> array.array:
    """Ordered-pair counts for every sum 0..n_max, from one square.

    With the mask packed by _packed, squaring puts the ordered count of sum n
    in field n.  No field carries into the next, and libmpdec squares the
    whole number with a number-theoretic transform.
    """
    _require_window(s, n_max)
    width = n_max + 1  # elements > n_max occur in no sum <= n_max
    packed, d = _packed(s.mask, width)
    return _fields(str(_EXACT.multiply(packed, packed)), width, d)


def first_r2_difference(s: BoundedSet, t: BoundedSet, n_max: int) -> int | None:
    """The least n <= n_max with r2(s, n) != r2(t, n), or None if the counts agree up to n_max.

    With S and T the indicators packed by _packed (bit a at the digit field of
    10^(d*a)), S(x)^2 - S(x^2) = 2 * sum_n r2(s, n) x^n, so
    P = (S - T)(S + T) - (S(x^2) - T(x^2)) holds 2 * (r2(s, n) - r2(t, n)) in
    field n.  Every field up to n_max is at most the width < 10^d in absolute
    value, so the lowest nonzero one ends P in fewer than d zero digits of its
    own: P's trailing zeros, divided by d, are its index.
    """
    _require_window(s, n_max)
    _require_window(t, n_max)
    width = n_max + 1  # elements > n_max occur in no sum <= n_max
    (s1, d), (t1, _) = _packed(s.mask, width), _packed(t.mask, width)
    (s2, _), (t2, _) = _packed(s.mask, width, doubled=True), _packed(t.mask, width, doubled=True)
    ordered = _EXACT.multiply(_EXACT.subtract(s1, t1), _EXACT.add(s1, t1))
    product = _EXACT.subtract(ordered, _EXACT.subtract(s2, t2))
    if not product:
        return None
    digits = str(product)
    n = (len(digits) - len(digits.rstrip("0"))) // d
    return n if n < width else None


def r1_profile(s: BoundedSet, n_max: int) -> tuple[int, ...]:
    """Ordered-pair counts for all sums up to n_max."""
    return tuple(_ordered_counts(s, n_max))


def r2_profile(s: BoundedSet, n_max: int) -> tuple[int, ...]:
    """Strict-pair counts for all sums up to n_max (fast path)."""
    return strict_counts(_ordered_counts(s, n_max), s.mask)


def r2_profile_naive(s: BoundedSet, n_max: int) -> list[int]:
    """Reference oracle for r2_profile: enumerate element pairs directly.

    Deliberately shares nothing with the packed kernel.
    """
    _require_window(s, n_max)
    counts = [0] * (n_max + 1)
    elems = s.elements()
    for i, a in enumerate(elems):
        if 2 * a >= n_max:
            break  # every partner b > a overshoots n_max
        for b in elems[i + 1:bisect.bisect_right(elems, n_max - a, i + 1)]:
            counts[a + b] += 1
    return counts

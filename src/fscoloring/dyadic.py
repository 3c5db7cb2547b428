"""Exact combinatorics on the binary digit structure of positive integers.

A positive integer is read as the finite set of its binary digit
positions.  This module provides the two measures of that set (highest
and lowest set bit), the blocks of integers sharing a highest bit, the
apartness relations that make sums carry-free, and finite subset sums.
All values are plain Python ints with no width assumption; everything is
a pure function and safe for unrestricted concurrent use.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import GuardError, Guards

#: Largest input set accepted by finite_sums by default (2**n subsets).
DEFAULT_SUBSET_ELEMENTS = 20


class Measures(NamedTuple):
    top: int
    low: int


def top_bit(x: int) -> int:
    """Position of the highest set bit of a positive integer."""
    if x < 1:
        raise ValueError("top_bit is defined for positive integers, got %r" % (x,))
    return x.bit_length() - 1


def low_bit(x: int) -> int:
    """Position of the lowest set bit of a positive integer."""
    if x < 1:
        raise ValueError("low_bit is defined for positive integers, got %r" % (x,))
    return (x & -x).bit_length() - 1


def measures(x: int) -> Measures:
    """Both bit measures of x: (top, low), with top >= low."""
    return Measures(top_bit(x), low_bit(x))


def bit_positions(x: int) -> tuple:
    """The increasing tuple of set-bit positions of x."""
    if x < 1:
        raise ValueError("bit_positions needs a positive integer, got %r" % (x,))
    out = []
    position = 0
    while x:
        if x & 1:
            out.append(position)
        x >>= 1
        position += 1
    return tuple(out)


def from_bits(positions: Iterable[int]) -> int:
    """Rebuild the integer with exactly the given set-bit positions."""
    positions = tuple(positions)
    if not positions:
        raise ValueError("a positive integer has a nonempty digit set")
    if len(set(positions)) != len(positions):
        raise ValueError("digit positions must be distinct: %r" % (positions,))
    value = 0
    for p in positions:
        if p < 0:
            raise ValueError("digit positions are nonnegative: %r" % (p,))
        value |= 1 << p
    return value


def apart(x: int, y: int) -> bool:
    """True iff every digit of x sits strictly below every digit of y.

    Apart numbers add without carries, so the digit set of x + y is the
    disjoint union of the two digit sets.
    """
    return top_bit(x) < low_bit(y)


def has_apartness(values: Sequence[int]) -> bool:
    """True iff consecutive elements of the increasing sequence are apart."""
    values = _checked_set(values)
    return all(apart(a, b) for a, b in zip(values, values[1:]))


def block(n: int, max_exponent: int = Guards.block_exponent) -> list:
    """The block of integers whose highest bit is n, i.e. [2**n, 2**(n+1)).

    Materializes 2**n values, so it is guarded; use iter_block for lazy
    scans at any exponent.
    """
    if n < 0:
        raise ValueError("block exponent must be nonnegative, got %r" % (n,))
    if n > max_exponent:
        raise GuardError("block_exponent", max_exponent, n)
    return list(range(1 << n, 1 << (n + 1)))


def iter_block(n: int) -> Iterator[int]:
    """Lazy increasing enumeration of the block at exponent n (unguarded)."""
    if n < 0:
        raise ValueError("block exponent must be nonnegative, got %r" % (n,))
    return iter(range(1 << n, 1 << (n + 1)))


def block_upto(n: int, max_exponent: int = Guards.block_exponent) -> list:
    """All positive integers with highest bit at most n: [1, 2**(n+1))."""
    if n < 0:
        raise ValueError("block exponent must be nonnegative, got %r" % (n,))
    if n + 1 > max_exponent:
        raise GuardError("block_exponent", max_exponent, n + 1)
    return list(range(1, 1 << (n + 1)))


def finite_sums(
    values: Sequence[int],
    max_terms: Optional[int] = None,
    *,
    max_elements: int = DEFAULT_SUBSET_ELEMENTS,
) -> list:
    """All nonempty subset sums of a finite set, deduplicated and sorted.

    With max_terms given, only subsets of at most that many elements
    contribute.  The input is a set of distinct numbers; enumeration is
    over subsets, so each member is used at most once per sum.
    """
    values = _checked_set(values)
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be at least 1, got %r" % (max_terms,))
    if len(values) > max_elements:
        raise GuardError("subset_elements", max_elements, len(values))
    limit = len(values) if max_terms is None else min(max_terms, len(values))
    sums = set()
    for size in range(1, limit + 1):
        for subset in combinations(values, size):
            sums.add(sum(subset))
    return sorted(sums)


def has_weak_apartness(values: Sequence[int]):
    """Check that no top bit repeats and no low bit occurs three times.

    Returns (True, None) when the set qualifies, else (False, certificate)
    where the certificate is the offending pair (shared top bit) or triple
    (shared low bit), whichever is found first.
    """
    values = _checked_set(values)
    by_top = {}
    for x in values:
        t = top_bit(x)
        if t in by_top:
            return False, (by_top[t], x)
        by_top[t] = x
    by_low = {}
    for x in values:
        l = low_bit(x)
        seen = by_low.setdefault(l, [])
        seen.append(x)
        if len(seen) == 3:
            return False, tuple(seen)
    return True, None


def _checked_set(values: Sequence[int]) -> list:
    out = list(values)
    for x in out:
        if x < 1:
            raise ValueError("set elements must be positive, got %r" % (x,))
    for a, b in zip(out, out[1:]):
        if a >= b:
            raise ValueError("set elements must be strictly increasing")
    return out

"""Unordered integer partitions: enumeration, counting, block grouping."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

from xcover.errors import CapacityError, PreconditionError


@dataclass(frozen=True)
class Partition:
    """Non-increasing positive parts; ``total`` is their sum."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError("parts must be positive")
            if i and self.parts[i - 1] < p:
                raise ValueError("parts must be non-increasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class ShrunkPartition:
    """A partition regrouped into sums of g consecutive parts plus a sub-g tail."""

    grouped: tuple[int, ...]
    remainder: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.grouped) + sum(self.remainder)

    def entries(self) -> list[tuple[int, bool]]:
        """All entries as (value, is_grouped) in stored order."""
        return [(v, True) for v in self.grouped] + [(v, False) for v in self.remainder]


def enumerate_partitions(a: int) -> Iterator[Partition]:
    """All unordered partitions of ``a``, descending-lexicographic.

    Each step rewrites only the tail of the work array, so the work per
    emitted part is amortized constant.  a = 0 yields the single empty
    partition.
    """
    if a < 0:
        raise PreconditionError("a must be non-negative")
    if a == 0:
        yield Partition(())
        return
    parts = [a]
    while True:
        yield Partition(tuple(parts))
        # rightmost part > 1 gets decremented; the freed mass refills greedily
        k = len(parts) - 1
        while k >= 0 and parts[k] == 1:
            k -= 1
        if k < 0:
            return
        v = parts[k] - 1
        rem = parts[k] + (len(parts) - k - 1)
        del parts[k:]
        parts.extend([v] * (rem // v))
        if rem % v:
            parts.append(rem % v)


def partitions_with_length(a: int, length: int, g: int = 1,
                           max_size: int | None = None) -> Iterator[Partition]:
    """Partitions of ``a`` into exactly ``length`` parts, descending-lex.

    Only the partitions alpha whose ``shrink_partition(alpha, g)`` fits
    ``max_size`` are built: every grouped sum is at most ``g * max_size``
    and every remainder part at most ``max_size``.  The defaults (g = 1,
    max_size = a) keep every partition.
    """
    if max_size is None:
        max_size = a
    if a < 0 or length < 0 or g < 1 or max_size < 0:
        raise PreconditionError("need a >= 0, length >= 0, g >= 1 and max_size >= 0")
    if length == 0:
        if a == 0:
            yield Partition(())
        return
    blocked = length - length % g  # the positions below this fall in blocks of g
    parts = [0] * length

    def rec(pos, total, cap, room):
        if pos == length:
            yield Partition(tuple(parts))
            return
        count = length - pos
        if pos >= blocked:
            room, in_block = max_size, 0
        else:
            if pos % g == 0:
                room = g * max_size
            in_block = g - 1 - pos % g  # later positions of this block
        later = count - 1 - in_block
        lo = max(1, -(-total // count))  # no later part is larger, so at least the mean
        hi = min(cap, total - (count - 1), room - in_block)
        for first in range(hi, lo - 1, -1):
            # the most the later parts can hold, none above ``first``; it
            # shrinks with ``first``, so no smaller first part fits either
            if min(in_block * first, room - first) + later * min(first, max_size) < total - first:
                break
            parts[pos] = first
            yield from rec(pos + 1, total - first, first, room - first)

    yield from rec(0, a, a, 0)


_COUNT_CACHE = [1]
# the recurrence costs about a^1.5 big-integer additions: a third of a
# second at a = 20,000 on a 2-core machine, hours at a = 10^7
MAX_COUNT_A = 20_000


def count_partitions(a: int) -> int:
    """Exact partition count via the pentagonal-number recurrence; raises
    CapacityError, before counting, for a > MAX_COUNT_A."""
    if a < 0:
        raise PreconditionError("a must be non-negative")
    if a > MAX_COUNT_A:
        raise CapacityError(f"refusing to count partitions beyond a = {MAX_COUNT_A}")
    while len(_COUNT_CACHE) <= a:
        i = len(_COUNT_CACHE)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > i:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * _COUNT_CACHE[i - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= i:
                total += sign * _COUNT_CACHE[i - g2]
            k += 1
        _COUNT_CACHE.append(total)
    return _COUNT_CACHE[a]


def partition_asymptotic(a: int) -> float:
    """Closed-form growth estimate exp(pi*sqrt(2a/3)) / (4a*sqrt(3)); raises
    CapacityError where it leaves the float range, from a = 76,568 on."""
    if a < 1:
        raise PreconditionError("a must be positive")
    exponent = math.pi * math.sqrt(2 * a / 3)
    if exponent > math.log(sys.float_info.max):
        raise CapacityError(f"the asymptotic estimate at a = {a} exceeds the float range")
    return math.exp(exponent) / (4 * a * math.sqrt(3))


def shrink_partition(alpha: Partition, g: int) -> ShrunkPartition:
    """Group consecutive blocks of g parts into sums; keep the tail verbatim.

    The parts are consumed in stored (non-increasing) order; the remainder
    holds the last ``len(alpha) mod g`` parts.
    """
    if g < 1:
        raise PreconditionError("g must be positive")
    parts = alpha.parts
    blocks = len(parts) // g
    grouped = tuple(sum(parts[i * g:(i + 1) * g]) for i in range(blocks))
    remainder = tuple(parts[blocks * g:])
    return ShrunkPartition(grouped=grouped, remainder=remainder)

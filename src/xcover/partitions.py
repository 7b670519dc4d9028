"""Unordered integer partitions: enumeration, counting, block grouping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from xcover.errors import PreconditionError


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


def partitions_with_length(a: int, length: int) -> Iterator[Partition]:
    """Partitions of ``a`` into exactly ``length`` parts, descending-lex."""
    if a < 0 or length < 0:
        raise PreconditionError("need a >= 0 and length >= 0")

    def rec(total, count, cap):
        if count == 0:
            if total == 0:
                yield ()
            return
        lo = -(-total // count)  # ceil: first part must leave room for the rest
        hi = min(cap, total - (count - 1))
        for first in range(hi, lo - 1, -1):
            for rest in rec(total - first, count - 1, first):
                yield (first,) + rest

    for parts in rec(a, length, a):
        yield Partition(parts)


_COUNT_CACHE = [1]


def count_partitions(a: int) -> int:
    """Exact partition count via the pentagonal-number recurrence."""
    if a < 0:
        raise PreconditionError("a must be non-negative")
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
    """Closed-form growth estimate exp(pi*sqrt(2a/3)) / (4a*sqrt(3))."""
    if a < 1:
        raise PreconditionError("a must be positive")
    return math.exp(math.pi * math.sqrt(2 * a / 3)) / (4 * a * math.sqrt(3))


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

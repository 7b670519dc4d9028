import random

import pytest

from xcover.errors import CapacityError, PreconditionError
from xcover.partitions import (
    Partition,
    count_partitions,
    enumerate_partitions,
    partition_asymptotic,
    partitions_with_length,
    shrink_partition,
)


def brute_partitions(a, max_part=None):
    """Independent oracle: all non-increasing positive tuples summing to a."""
    if max_part is None:
        max_part = a
    if a == 0:
        return [()]
    out = []
    for first in range(min(max_part, a), 0, -1):
        for rest in brute_partitions(a - first, first):
            out.append((first,) + rest)
    return out


def test_single_partition_of_one():
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]


def test_partition_counts_against_oracle():
    # brute force fixes the expected stream sizes: 7 for a=5, 42 for a=10
    assert len(brute_partitions(5)) == 7
    assert len(brute_partitions(10)) == 42
    assert len(list(enumerate_partitions(5))) == 7
    assert len(list(enumerate_partitions(10))) == 42
    assert count_partitions(5) == 7
    assert count_partitions(10) == 42


def test_enumeration_matches_oracle_exactly():
    for a in range(0, 16):
        got = [p.parts for p in enumerate_partitions(a)]
        assert got == brute_partitions(a)


def test_descending_lexicographic_order():
    for a in (6, 9, 12):
        stream = [p.parts for p in enumerate_partitions(a)]
        assert stream == sorted(stream, reverse=True)


def test_stream_matches_count_up_to_30():
    for a in range(0, 31):
        stream = list(enumerate_partitions(a))
        assert len(stream) == count_partitions(a)
        assert len({p.parts for p in stream}) == len(stream)
        assert all(p.total == a for p in stream)


def test_empty_partition_of_zero():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert count_partitions(0) == 1


def test_partitions_with_length():
    for a in range(1, 13):
        for length in range(1, a + 1):
            got = [p.parts for p in partitions_with_length(a, length)]
            want = [t for t in brute_partitions(a) if len(t) == length]
            assert sorted(got, reverse=True) == sorted(want, reverse=True)
            assert got == sorted(got, reverse=True)


def test_partitions_with_length_bounds_the_shrunk_stars():
    # blocks of g consecutive parts sum to at most g * max_size, and each of
    # the last len mod g parts is at most max_size
    for a in range(0, 11):
        for length in range(0, a + 2):
            for g in (1, 2, 3):
                for max_size in range(0, 4):
                    got = [p.parts for p in partitions_with_length(a, length, g, max_size)]
                    blocked = length - length % g
                    want = [t for t in brute_partitions(a) if len(t) == length
                            and all(sum(t[i:i + g]) <= g * max_size
                                    for i in range(0, blocked, g))
                            and all(v <= max_size for v in t[blocked:])]
                    assert got == want, (a, length, g, max_size)
    assert [p.parts for p in partitions_with_length(0, 1)] == []
    with pytest.raises(PreconditionError):
        list(partitions_with_length(4, 2, g=0))
    with pytest.raises(PreconditionError):
        list(partitions_with_length(4, 2, max_size=-1))


def coin_dp_count(a):
    """Second independent oracle: classic parts-as-coins DP."""
    dp = [1] + [0] * a
    for part in range(1, a + 1):
        for total in range(part, a + 1):
            dp[total] += dp[total - part]
    return dp[a]


def test_count_agrees_with_coin_dp_up_to_200():
    for a in (0, 1, 7, 30, 77, 128, 200):
        assert count_partitions(a) == coin_dp_count(a)


def test_asymptotic_ratio_near_one():
    # evaluated: count/asymptotic at a=100 is ~0.953
    ratio = count_partitions(100) / partition_asymptotic(100)
    assert 0.5 < ratio < 1.5


def test_asymptotic_converges_upward():
    r60 = count_partitions(60) / partition_asymptotic(60)
    r160 = count_partitions(160) / partition_asymptotic(160)
    assert abs(1 - r160) < abs(1 - r60)


def test_asymptotic_stops_at_the_float_range():
    assert isinstance(partition_asymptotic(76567), float)
    with pytest.raises(CapacityError):
        partition_asymptotic(76568)


def test_shrink_examples():
    s = shrink_partition(Partition((4, 3, 2, 1)), 2)
    assert s.grouped == (7, 3) and s.remainder == ()
    s = shrink_partition(Partition((4, 3, 2)), 2)
    assert s.grouped == (7,) and s.remainder == (2,)
    s = shrink_partition(Partition((5,)), 3)
    assert s.grouped == () and s.remainder == (5,)


def test_shrink_preserves_mass_and_size_bound():
    rng = random.Random(1)
    for a in range(1, 31):
        for alpha in enumerate_partitions(a):
            g = rng.randint(1, a)
            s = shrink_partition(alpha, g)
            assert s.total == a
            assert len(s.remainder) < g
            assert len(s.grouped) + len(s.remainder) <= a / g + g


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(PreconditionError):
        shrink_partition(Partition((2, 1)), 0)
    with pytest.raises(PreconditionError):
        list(enumerate_partitions(-1))

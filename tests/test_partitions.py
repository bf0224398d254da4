import pytest

from qthook.partitions import Partition, bounded_tuples, monotone_chains


def test_monotone_chains_decreasing_order():
    assert monotone_chains(0, 2, 2) == [(0, 0), (1, 0), (1, 1),
                                        (2, 0), (2, 1), (2, 2)]
    assert monotone_chains(1, 2, 3) == [(1, 1, 1), (2, 1, 1),
                                        (2, 2, 1), (2, 2, 2)]


def test_monotone_chains_increasing_order():
    assert monotone_chains(1, 3, 2, increasing=True) == [
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    assert monotone_chains(2, 2, 3, increasing=True) == [(2, 2, 2)]


def test_monotone_chains_empty_and_length_zero():
    for increasing in (False, True):
        assert monotone_chains(0, 5, 0, increasing) == [()]
        assert monotone_chains(3, 1, 0, increasing) == [()]
        assert monotone_chains(3, 1, 2, increasing) == []


def test_bounded_tuple_order():
    assert bounded_tuples([1, 1], 2) == [(0, 0), (0, 1), (0, 2),
                                         (1, 0), (1, 1), (2, 0)]
    assert bounded_tuples([2, 1], 3) == [(0, 0), (0, 1), (0, 2), (0, 3),
                                         (1, 0), (1, 1)]


def test_bounded_tuple_exact():
    assert bounded_tuples([2, 1], 3, exact=True) == [(0, 3), (1, 1)]
    assert bounded_tuples([1, 1, 1], 1, exact=True) == [(0, 0, 1), (0, 1, 0),
                                                        (1, 0, 0)]


def test_bounded_tuple_empty_and_length_zero():
    assert bounded_tuples([], 5) == [()]
    assert bounded_tuples([], 0, exact=True) == [()]
    assert bounded_tuples([], 2, exact=True) == []
    assert bounded_tuples([1, 2], -1) == []


def test_zeros_are_accepted_only_as_trailing_parts():
    assert Partition([3, 1, 0, 0]).parts == (3, 1)
    assert Partition([0, 0]).parts == ()
    assert Partition.parse("2,2,0") == Partition([2, 2])
    for parts in ([3, 0, 1], [0, 1], [2, 0, 0, 1]):
        with pytest.raises(ValueError, match="weakly decreasing"):
            Partition(parts)
    with pytest.raises(ValueError, match="positive"):
        Partition([2, 0, -1])

from __future__ import annotations

from fractions import Fraction

import pytest

from stabwalk.linalg import common_denominator


@pytest.mark.parametrize("v,expected", [
    ((Fraction(1, 2), Fraction(-1, 3), 0), ((3, -2, 0), 6)),
    ((Fraction(-3, 4), Fraction(1, 6)), ((-9, 2), 12)),
    ((Fraction(-7, 6), 2, 0, Fraction(1, 9)), ((-21, 36, 0, 2), 18)),
    ((Fraction(-2, 3),), ((-2,), 3)),
    ((3, -4), ((3, -4), 1)),
    ((0, 0), ((0, 0), 1)),
    ((), ((), 1)),
])
def test_common_denominator(v, expected):
    nums, d = common_denominator(v)
    assert (nums, d) == expected
    assert all(type(x) is int for x in nums)
    assert tuple(Fraction(x, d) for x in nums) == tuple(Fraction(x) for x in v)
    # no smaller positive denominator clears every entry
    assert not any(all((x * e).denominator == 1 for x in v) for e in range(1, d))

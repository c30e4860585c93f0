from __future__ import annotations

from fractions import Fraction

import pytest

from stabwalk.linalg import common_denominator, mat_vec, to_vec, vdot


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


H = Fraction(1, 2)


@pytest.mark.parametrize("a,b,expected", [
    ((1, -2, 3), (4, 5, -6), -24),
    ((H, Fraction(-1, 3)), (Fraction(2, 3), Fraction(3, 4)), Fraction(1, 12)),
    ((H, 2, Fraction(-1, 3)), (4, Fraction(1, 6), 3), Fraction(4, 3)),
    ((), (), 0),
])
def test_vdot(a, b, expected):
    got = vdot(a, b)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("m,v,expected", [
    (((1, 2), (-3, 4)), (5, -6), (-7, -39)),
    (((H, 0), (Fraction(1, 3), -1)), (Fraction(2, 3), Fraction(3, 2)),
     (Fraction(1, 3), Fraction(-23, 18))),
    (((1, 2), (0, -1)), (H, Fraction(1, 4)), (Fraction(1), Fraction(-1, 4))),
    (((), ()), (), (0, 0)),
    ((), (1, 2), ()),
])
def test_mat_vec(m, v, expected):
    got = mat_vec(m, v)
    assert got == expected
    assert [type(x) for x in got] == [type(x) for x in expected]


def test_to_vec_keeps_fractions_and_converts_the_rest():
    f = Fraction(-3, 4)
    out = to_vec((f, 2, True, False, "5/6"))
    assert out == (f, 2, 1, 0, Fraction(5, 6))
    assert all(type(x) is Fraction for x in out)
    assert out[0] is f
    assert to_vec(()) == ()

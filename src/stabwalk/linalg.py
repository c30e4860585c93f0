"""Small exact linear algebra kernel over int and Fraction.

Everything here is sized for lattices of rank below ten, so clarity wins
over asymptotics.  No floating point anywhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

Scalar = Union[int, Fraction]
Vec = Tuple[Fraction, ...]
IntVec = Tuple[int, ...]
IntMat = Tuple[IntVec, ...]


def to_vec(xs: Iterable[Scalar]) -> Vec:
    # a Fraction is immutable, so it is kept as it is rather than copied
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def common_denominator(v: Sequence[Scalar]) -> Tuple[IntVec, int]:
    """Integer numerators of v over one positive denominator, the lcm of v's."""
    d = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


def vadd(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vneg(a: Sequence[Scalar]) -> tuple:
    return tuple(-x for x in a)


def vdot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    # plain coordinate pairing, used for the divisor/curve duality
    return sum(map(operator.mul, a, b))


def identity_mat(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> tuple:
    return tuple(sum(map(operator.mul, row, v)) for row in m)


def transpose(m: Sequence[Sequence[Scalar]]) -> tuple:
    return tuple(zip(*m))


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(m: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    n = len(m)
    return tuple(
        det_int([row[: k + 1] for row in list(m)[: k + 1]]) for k in range(n)
    )


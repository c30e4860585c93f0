"""Small exact vector kernel over int and Fraction.

Vectors are tuples; the only matrices are the dense ones built for
output and for the gram pairing.  No floating point anywhere.
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

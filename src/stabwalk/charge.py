"""Numerical K-classes and central charges for a contracted curve tree.

A compactly supported class is written as (point_mult, curve_mult): its
multiplicity over a point plus one integer per curve.  The charge of a
class at a parameter (beta, omega) is

    Z(a, m) = -a + sum_i (beta_i + i omega_i) m_i,

normalized so the point class has charge -1.  All values are exact
rationals; phases are never materialized as floats.

Charges are summed on integers: beta and omega are each put over one
common denominator, the numerators of the terms with nonzero curve
multiplicity are summed, and each part becomes one Fraction at the end.
A heart's stability check runs the same kernel on framed numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, IndexOutOfRange, OutOfSector
from .linalg import IntVec, Vec, common_denominator, to_vec, vdot


@dataclass(frozen=True)
class KClass:
    """Compactly supported class: point multiplicity and per-curve ranks."""

    point_mult: int
    curve_mult: IntVec

    def __post_init__(self):
        object.__setattr__(self, "curve_mult", tuple(self.curve_mult))

    @property
    def n(self) -> int:
        return len(self.curve_mult)

    def __add__(self, other: "KClass") -> "KClass":
        if self.n != other.n:
            raise DimensionMismatch("adding classes of different rank")
        return KClass(self.point_mult + other.point_mult,
                      tuple(a + b for a, b in zip(self.curve_mult, other.curve_mult)))

    def __neg__(self) -> "KClass":
        return KClass(-self.point_mult, tuple(-a for a in self.curve_mult))

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def scale(self, c: int) -> "KClass":
        return KClass(c * self.point_mult, tuple(c * a for a in self.curve_mult))


def point_class(n: int) -> KClass:
    """Class of a point of the threefold."""
    return KClass(1, (0,) * n)


def curve_class(n: int, i: int) -> KClass:
    """Class of the degree -1 line bundle on curve i, the i-th basis class."""
    if not (1 <= i <= n):
        raise IndexOutOfRange(f"curve index {i} not in 1..{n}")
    return KClass(0, tuple(1 if j == i - 1 else 0 for j in range(n)))


def line_bundle_class(n: int, i: int, m: int) -> KClass:
    """Class of the degree m line bundle on curve i.

    Twisting by a point raises the point multiplicity by one, so the
    class is (m + 1) points plus the i-th basis class.
    """
    if not (1 <= i <= n):
        raise IndexOutOfRange(f"curve index {i} not in 1..{n}")
    return KClass(m + 1, tuple(1 if j == i - 1 else 0 for j in range(n)))


def fiber_class(n: int) -> KClass:
    """Class of the structure sheaf of the whole reduced curve tree.

    Gluing the n components along the n - 1 nodes of the tree gives
    sum_i [O_i] - (n - 1) [point] = (1, (1, ..., 1)).
    """
    return KClass(1, (1,) * n)


@dataclass(frozen=True)
class ComplexDivisor:
    """Stability parameter beta + i omega in divisor coordinates."""

    beta: Vec
    omega: Vec

    def __post_init__(self):
        object.__setattr__(self, "beta", to_vec(self.beta))
        object.__setattr__(self, "omega", to_vec(self.omega))
        if len(self.beta) != len(self.omega):
            raise DimensionMismatch("beta and omega lengths differ")

    @property
    def n(self) -> int:
        return len(self.beta)


def point_json(p: ComplexDivisor) -> dict:
    """A point as JSON: its coordinates as strings in lowest terms."""
    return {"beta": [str(x) for x in p.beta], "omega": [str(x) for x in p.omega]}


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        # a Fraction is immutable, so it is kept as it is rather than copied
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def in_sector(self) -> bool:
        """Membership in {r e^(i pi phi) : r > 0, 0 < phi <= 1}."""
        return self.im > 0 or (self.im == 0 and self.re < 0)


@dataclass(frozen=True)
class AmbientClass:
    """Class of the ambient threefold: a rank and a divisor part."""

    rank: int
    div: IntVec

    def __post_init__(self):
        object.__setattr__(self, "div", tuple(self.div))


def _charge(b: IntVec, bd: int, o: IntVec, od: int, c: KClass) -> ExactComplex:
    """Charge of c at the point with numerators b over bd and o over od."""
    # generator classes have one nonzero curve multiplicity; skip the zero terms
    re, im = -c.point_mult * bd, 0
    for x, y, m in zip(b, o, c.curve_mult):
        if m:
            re += x * m
            im += y * m
    return ExactComplex(Fraction(re, bd), Fraction(im, od))


def central_charge(p: ComplexDivisor, c: KClass) -> ExactComplex:
    """Charge of a compactly supported class at a stability parameter."""
    if p.n != c.n:
        raise DimensionMismatch("parameter and class sizes differ")
    return _charge(*common_denominator(p.beta), *common_denominator(p.omega), c)


def euler_pairing(e: AmbientClass, c: KClass) -> int:
    """Euler pairing of an ambient class against a compactly supported one.

    Only rank times point multiplicity and divisor against curve part
    survive on a small contraction, with a sign on the mixed term.
    """
    if len(e.div) != c.n:
        raise DimensionMismatch("ambient and compact class sizes differ")
    return e.rank * c.point_mult - vdot(e.div, c.curve_mult)


def phase_compare(z1: ExactComplex, z2: ExactComplex) -> int:
    """Exact comparison of phases in (0, 1]; returns -1, 0 or 1.

    Values on the negative real axis have phase exactly 1; everything
    else lives in the open upper half plane, where the sign of
    Im(conj(z1) z2) orders the phases.
    """
    for z in (z1, z2):
        if not z.in_sector:
            raise OutOfSector(f"({z.re}, {z.im}) is outside the phase sector")
    on_axis1 = z1.im == 0
    on_axis2 = z2.im == 0
    if on_axis1 and on_axis2:
        return 0
    if on_axis1:
        return 1
    if on_axis2:
        return -1
    cross = z1.re * z2.im - z1.im * z2.re
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def strip_index(x: Fraction) -> int:
    """Integer k with x in (k - 1, k); requires x not an integer."""
    if Fraction(x).denominator == 1:
        raise ValueError(f"{x} lies on a strip boundary")
    return math.floor(x) + 1

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stabwalk import (
    AmbientClass,
    ComplexDivisor,
    DimensionMismatch,
    ExactComplex,
    IndexOutOfRange,
    KClass,
    OutOfSector,
    central_charge,
    chain_lattice,
    curve_class,
    euler_pairing,
    fiber_class,
    line_bundle_class,
    phase_compare,
    point_class,
    strip_index,
)


def rand_point(rng, n):
    return ComplexDivisor(
        tuple(Fraction(rng.randrange(-12, 13), 4) for _ in range(n)),
        tuple(Fraction(rng.randrange(-12, 13), 4) for _ in range(n)),
    )


def test_point_class_is_normalized():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(25):
            z = central_charge(rand_point(rng, n), point_class(n))
            assert (z.re, z.im) == (-1, 0)


def test_charge_equals_the_full_dot_product():
    rng = random.Random(17)
    for n in (1, 2, 4, 8):
        classes = [point_class(n), KClass(0, (0,) * n), fiber_class(n)]
        classes += [KClass(rng.randrange(-3, 4),
                           tuple(rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(n)))
                    for _ in range(20)]
        for c in classes:
            p = rand_point(rng, n)
            z = central_charge(p, c)
            ref = ExactComplex(-c.point_mult + sum(b * m for b, m in zip(p.beta, c.curve_mult)),
                               sum(o * m for o, m in zip(p.omega, c.curve_mult)))
            assert z == ref and type(z.re) is Fraction and type(z.im) is Fraction
    assert central_charge(rand_point(rng, 3), KClass(0, (0, 0, 0))).is_zero


def test_charge_formula_examples():
    p = ComplexDivisor((Fraction(1, 2),), (Fraction(1),))
    z = central_charge(p, curve_class(1, 1))
    assert (z.re, z.im) == (Fraction(1, 2), 1)
    wall = ComplexDivisor((Fraction(1, 2),), (Fraction(0),))
    z2 = central_charge(wall, line_bundle_class(1, 1, 0))
    assert (z2.re, z2.im) == (Fraction(-1, 2), 0)


def test_charge_bilinearity():
    rng = random.Random(5)
    for _ in range(30):
        p = rand_point(rng, 2)
        a = KClass(rng.randrange(-3, 4), (rng.randrange(-3, 4), rng.randrange(-3, 4)))
        b = KClass(rng.randrange(-3, 4), (rng.randrange(-3, 4), rng.randrange(-3, 4)))
        za, zb, zs = central_charge(p, a), central_charge(p, b), central_charge(p, a + b)
        assert (zs.re, zs.im) == (za.re + zb.re, za.im + zb.im)


def test_charge_riemann_roch_shape():
    # Re Z = -(a - beta.m), Im Z = omega.m
    rng = random.Random(9)
    for _ in range(30):
        p = rand_point(rng, 3)
        c = KClass(rng.randrange(-3, 4), tuple(rng.randrange(-3, 4) for _ in range(3)))
        z = central_charge(p, c)
        assert z.re == -(c.point_mult - sum(x * m for x, m in zip(p.beta, c.curve_mult)))
        assert z.im == sum(x * m for x, m in zip(p.omega, c.curve_mult))


def test_euler_pairing_table():
    for n in (1, 2, 3):
        struct = AmbientClass(1, (0,) * n)
        assert euler_pairing(struct, point_class(n)) == 1
        for i in range(1, n + 1):
            assert euler_pairing(struct, line_bundle_class(n, i, -1)) == 0
            for j in range(1, n + 1):
                div = tuple(1 if m == j - 1 else 0 for m in range(n))
                expected = -1 if i == j else 0
                assert euler_pairing(AmbientClass(1, div), line_bundle_class(n, i, -1)) == expected


def test_euler_pairing_additive():
    rng = random.Random(13)
    for _ in range(20):
        e = AmbientClass(rng.randrange(-2, 3), tuple(rng.randrange(-2, 3) for _ in range(2)))
        a = KClass(rng.randrange(-3, 4), (rng.randrange(-3, 4), rng.randrange(-3, 4)))
        b = KClass(rng.randrange(-3, 4), (rng.randrange(-3, 4), rng.randrange(-3, 4)))
        assert euler_pairing(e, a + b) == euler_pairing(e, a) + euler_pairing(e, b)
    with pytest.raises(DimensionMismatch):
        euler_pairing(AmbientClass(1, (0,)), point_class(2))


def test_line_bundle_classes():
    assert line_bundle_class(1, 1, -1) == KClass(0, (1,))
    assert line_bundle_class(2, 2, 0) == KClass(1, (0, 1))
    assert line_bundle_class(1, 1, -2) == KClass(-1, (1,))
    with pytest.raises(IndexOutOfRange):
        line_bundle_class(2, 3, 0)
    with pytest.raises(IndexOutOfRange):
        curve_class(2, 0)


def test_fiber_class_matches_gluing():
    for n in (1, 2, 3):
        lat = chain_lattice(n)
        total = line_bundle_class(n, 1, 0)
        for i in range(2, n + 1):
            total = total + line_bundle_class(n, i, 0)
        glued = total - point_class(n).scale(n - 1)
        assert fiber_class(n) == glued == KClass(1, (1,) * n)
        assert lat.n == n


def test_kclass_algebra():
    a = KClass(1, (2, -1))
    b = KClass(0, (1, 1))
    assert a + b == KClass(1, (3, 0))
    assert a - b == KClass(1, (1, -2))
    assert -a == KClass(-1, (-2, 1))
    assert a.scale(3) == KClass(3, (6, -3))
    with pytest.raises(DimensionMismatch):
        a + KClass(0, (1,))


def test_phase_compare_examples():
    i = ExactComplex(0, 1)
    minus_one = ExactComplex(-1, 0)
    assert phase_compare(i, minus_one) == -1
    assert phase_compare(minus_one, i) == 1
    assert phase_compare(ExactComplex(1, 1), ExactComplex(-1, 1)) == -1
    assert phase_compare(ExactComplex(0, 2), ExactComplex(0, 3)) == 0
    assert phase_compare(minus_one, ExactComplex(-2, 0)) == 0


def test_phase_compare_sector_guard():
    with pytest.raises(OutOfSector):
        phase_compare(ExactComplex(1, 0), ExactComplex(0, 1))
    with pytest.raises(OutOfSector):
        phase_compare(ExactComplex(0, 1), ExactComplex(0, -1))
    with pytest.raises(OutOfSector):
        phase_compare(ExactComplex(0, 0), ExactComplex(0, 1))


def test_exact_complex_sector():
    assert ExactComplex(-1, 0).in_sector
    assert ExactComplex(3, 2).in_sector
    assert not ExactComplex(1, 0).in_sector
    assert not ExactComplex(0, 0).in_sector
    assert ExactComplex(0, 0).is_zero


def test_strip_index():
    assert strip_index(Fraction(1, 2)) == 1
    assert strip_index(Fraction(3, 2)) == 2
    assert strip_index(Fraction(-1, 4)) == 0
    assert strip_index(Fraction(-5, 2)) == -2
    with pytest.raises(ValueError):
        strip_index(Fraction(3))


def test_complex_divisor_checks():
    p = ComplexDivisor((Fraction(1, 2), 1), (1, 2))
    assert p.n == 2
    assert p.beta == (Fraction(1, 2), Fraction(1))
    with pytest.raises(DimensionMismatch):
        ComplexDivisor((1,), (1, 2))

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stabwalk import (
    AmpleChamber,
    ComplexDivisor,
    DeepStratum,
    Forbidden,
    OnWall,
    WallStrip,
    chain_lattice,
    classify,
    in_complement,
    lattice_from_edges,
    locate_weyl_chamber,
)
from stabwalk.linalg import mat_vec, transpose


def n1():
    return chain_lattice(1)


def a2():
    return chain_lattice(2)


def _pt(beta, omega):
    return ComplexDivisor(tuple(Fraction(x) for x in beta), tuple(Fraction(x) for x in omega))


def test_in_complement_basics():
    lat = n1()
    assert in_complement(lat, _pt([Fraction(1, 2)], [0]))
    assert not in_complement(lat, _pt([3], [0]))
    assert in_complement(lat, _pt([3], [1]))
    assert not in_complement(lat, _pt([0], [0]))


def test_in_complement_nonsimple_root():
    # on A2 the root (1,1) forbids beta_1+beta_2 integral when omega_1+omega_2 = 0
    lat = a2()
    assert not in_complement(lat, _pt([Fraction(1, 2), Fraction(1, 2)], [1, -1]))
    assert in_complement(lat, _pt([Fraction(1, 2), Fraction(1, 3)], [1, -1]))
    assert in_complement(lat, _pt([Fraction(1, 2), Fraction(1, 2)], [1, -2]))


def test_locate_ample_is_identity():
    lat = a2()
    w, dom = locate_weyl_chamber(lat, (Fraction(1), Fraction(2)))
    assert w.is_identity
    assert dom == (1, 2)


def test_locate_single_reflection():
    lat = n1()
    w, dom = locate_weyl_chamber(lat, (Fraction(-1),))
    assert dom == (1,)
    assert w.word == (1,)
    assert w.apply_dual(dom) == (-1,)


def test_locate_a2_example():
    lat = a2()
    w, dom = locate_weyl_chamber(lat, (Fraction(-1), Fraction(2)))
    assert w.word == (1,)
    assert dom == (1, 1)
    assert w.apply_dual(dom) == (-1, 2)


def test_locate_matches_exhaustive_search():
    lat = a2()
    targets = [(-1, 2), (2, -1), (-1, -1), (1, 1), (-3, 1), (1, -3)]
    elements = lat.enumerate_weyl()
    for t in targets:
        omega = tuple(Fraction(x) for x in t)
        w, dom = locate_weyl_chamber(lat, omega)
        hits = [u for u in elements if all(x > 0 for x in u.apply_dual_inverse(omega))]
        assert len(hits) == 1
        assert w == hits[0]
        assert dom == w.apply_dual_inverse(omega)
        assert all(x > 0 for x in dom)


def test_locate_rejects_walls():
    lat = a2()
    with pytest.raises(OnWall):
        locate_weyl_chamber(lat, (Fraction(1), Fraction(0)))
    with pytest.raises(OnWall):
        locate_weyl_chamber(lat, (Fraction(1), Fraction(-1)))


def test_classify_conifold_trio():
    lat = n1()
    lab = classify(lat, _pt([Fraction(1, 2)], [1]))
    assert isinstance(lab, AmpleChamber)
    assert lab.weyl.is_identity

    lab = classify(lat, _pt([Fraction(1, 2)], [0]))
    assert isinstance(lab, WallStrip)
    assert (lab.curve, lab.strip) == (1, 1)
    assert lab.frame.is_identity

    lab = classify(lat, _pt([0], [0]))
    assert isinstance(lab, Forbidden)
    assert lab.root.coords == (1,)
    assert lab.level == 0


def test_classify_strip_indices():
    lat = n1()
    for k, b in ((2, Fraction(3, 2)), (0, Fraction(-1, 4)), (-2, Fraction(-5, 2))):
        lab = classify(lat, _pt([b], [0]))
        assert isinstance(lab, WallStrip)
        assert (lab.curve, lab.strip) == (1, k)


def test_classify_wall_with_nontrivial_frame():
    # omega = (1/2, 0) after reflecting at curve 2 then 1 lands on the
    # curve-2 axis wall; the frame transports the point back
    lat = a2()
    p = _pt([Fraction(1, 3), Fraction(2, 7)], [0, -1])
    lab = classify(lat, p)
    assert isinstance(lab, WallStrip)
    assert lab.curve == 2
    assert lab.strip == 1
    assert lab.frame.word == (2, 1)
    # w^-1 on divisor coordinates is the transpose of w's curve-side matrix
    pullback = transpose(lab.frame.mat)
    assert mat_vec(pullback, p.omega) == (1, 0)
    assert mat_vec(pullback, p.beta) == (Fraction(-13, 21), Fraction(1, 3))
    assert Fraction(1, 3) - lab.strip + 1 > 0


def test_classify_deep_stratum():
    lat = a2()
    p = _pt([Fraction(1, 3), Fraction(1, 2)], [0, 0])
    lab = classify(lat, p)
    assert isinstance(lab, DeepStratum)
    assert lab.vanishing == (1, 2)
    assert lab.strips == ((1, 1), (2, 1))
    assert lab.frame.is_identity


def test_classify_forbidden_before_walls():
    # the point sits on a wall AND violates the complement; Forbidden wins
    lat = a2()
    lab = classify(lat, _pt([0, Fraction(1, 2)], [0, 1]))
    assert isinstance(lab, Forbidden)
    assert lab.root.coords == (1, 0)


def test_classify_forbidden_at_negative_level():
    lat = a2()
    lab = classify(lat, _pt([Fraction(-5, 3), Fraction(-4, 3)], [1, -1]))
    assert lab == Forbidden(lat.positive_roots()[-1], -3)
    assert lab.root.coords == (1, 1)
    # beta . (1, 1) = -8/3 is not integral, so the wall point is allowed
    p = _pt([Fraction(-5, 3), -1], [1, -1])
    assert in_complement(lat, p)
    assert isinstance(classify(lat, p), WallStrip)


def test_frame_convention_consistency():
    # framed omega is the dominant representative and the frame maps it back
    lat = lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)])
    rng = random.Random(17)
    found = 0
    while found < 12:
        omega = tuple(Fraction(rng.randrange(-9, 10), 2) for _ in range(4))
        try:
            w, dom = locate_weyl_chamber(lat, omega)
        except OnWall:
            continue
        found += 1
        assert all(x > 0 for x in dom)
        assert w.apply_dual(dom) == omega
        assert w.apply_dual_inverse(omega) == dom


def test_every_weyl_chamber_is_reachable():
    lat = a2()
    rho = (Fraction(2), Fraction(3))
    for w in lat.enumerate_weyl():
        omega = w.apply_dual(rho)
        got, dom = locate_weyl_chamber(lat, omega)
        assert got == w
        assert dom == rho

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from stabwalk import (
    FAMILY,
    RIGID,
    ComplexDivisor,
    ForbiddenStratum,
    IndexOutOfRange,
    KClass,
    chain_lattice,
    classify,
    coherent_heart,
    generators,
    heart_for_stratum,
    line_bundle_class,
    partial_perverse_heart,
    perverse_heart,
    perverse_simples,
    point_class,
    stability_check,
    tilted_heart,
)
from reference import det_int


def _pt(beta, omega):
    return ComplexDivisor(tuple(Fraction(x) for x in beta), tuple(Fraction(x) for x in omega))


def test_coherent_generators():
    h = coherent_heart(chain_lattice(2))
    gens = generators(h)
    assert gens == (
        (KClass(1, (0, 0)), RIGID),
        (KClass(0, (1, 0)), FAMILY),
        (KClass(0, (0, 1)), FAMILY),
    )


def test_tilted_generators():
    lat = chain_lattice(1)
    assert {c for c, _ in generators(tilted_heart(lat, 1, 1))} == {
        KClass(1, (0,)),
        KClass(0, (-1,)),
        KClass(1, (1,)),
    }
    assert {c for c, _ in generators(tilted_heart(lat, 1, 2))} == {
        KClass(1, (0,)),
        KClass(-1, (-1,)),
        KClass(2, (1,)),
    }


def test_tilted_pair_comes_from_adjacent_degrees():
    # the rigid pair at strip k is -[L(k-2)] and [L(k-1)]
    lat = chain_lattice(2)
    for i in (1, 2):
        for k in (-1, 0, 3):
            gens = {c for c, tag in generators(tilted_heart(lat, i, k)) if tag == RIGID}
            gens.discard(point_class(2))
            assert gens == {-line_bundle_class(2, i, k - 2), line_bundle_class(2, i, k - 1)}


def test_heart_for_stratum_dispatch():
    lat = chain_lattice(1)
    h = heart_for_stratum(lat, classify(lat, _pt([Fraction(1, 2)], [1])))
    assert h.kind == "coherent" and h.strips == ()
    h = heart_for_stratum(lat, classify(lat, _pt([Fraction(1, 2)], [0])))
    assert h.kind == "tilted" and h.strips == ((1, 1),)
    with pytest.raises(ForbiddenStratum):
        heart_for_stratum(lat, classify(lat, _pt([0], [0])))


def test_deep_stratum_heart():
    lat = chain_lattice(2)
    h = heart_for_stratum(lat, classify(lat, _pt([Fraction(1, 3), Fraction(1, 2)], [0, 0])))
    assert h.kind == "partial_perverse"
    assert h.strips == ((1, 1), (2, 1))
    assert stability_check(h, _pt([Fraction(1, 3), Fraction(1, 2)], [0, 0])).passed


def test_coherent_stability_at_ample_point():
    lat = chain_lattice(2)
    p = _pt([Fraction(1, 2), Fraction(1, 3)], [1, 2])
    rep = stability_check(coherent_heart(lat), p)
    assert rep.passed
    by_class = {e.kclass: e.charge for e in rep.entries}
    assert (by_class[point_class(2)].re, by_class[point_class(2)].im) == (-1, 0)
    assert by_class[KClass(0, (1, 0))].im == 1


def test_tilted_stability_on_and_off_strip():
    lat = chain_lattice(1)
    h = tilted_heart(lat, 1, 1)
    rep = stability_check(h, _pt([Fraction(1, 2)], [0]))
    assert rep.passed
    charges = sorted((e.charge.re, e.charge.im) for e in rep.entries)
    assert charges == [(-1, 0), (Fraction(-1, 2), 0), (Fraction(-1, 2), 0)]

    rep = stability_check(h, _pt([Fraction(3, 2)], [0]))
    assert not rep.passed
    bad = [e for e in rep.entries if not e.ok]
    assert [(e.kclass, e.charge.re) for e in bad] == [(KClass(1, (1,)), Fraction(1, 2))]


def test_wall_pair_signs_across_strip():
    # inside strip k both rigid wall charges sit in (-1, 0); outside one flips
    lat = chain_lattice(1)
    for k in (-2, 0, 1, 3):
        h = tilted_heart(lat, 1, k)
        inside = _pt([Fraction(2 * k - 1, 2)], [0])
        rep = stability_check(h, inside)
        assert rep.passed
        for e in rep.entries:
            if e.kclass != point_class(1):
                assert Fraction(-1) < e.charge.re < 0
        outside = _pt([Fraction(2 * k + 1, 2)], [0])
        assert not stability_check(h, outside).passed


def test_stability_uses_frame():
    # same wall, approached from a reflected chamber: frame makes it pass
    lat = chain_lattice(2)
    p = _pt([Fraction(1, 3), Fraction(2, 7)], [0, -1])
    lab = classify(lat, p)
    h = heart_for_stratum(lat, lab)
    assert h.frame.word == (2, 1)
    assert stability_check(h, p).passed
    assert not stability_check(tilted_heart(lat, lab.curve, lab.strip), p).passed


def test_perverse_hearts_pin_every_curve():
    lat = chain_lattice(2)
    h0 = perverse_heart(lat, 0)
    hm = perverse_heart(lat, -1)
    assert h0.strips == ((1, 0), (2, 0))
    assert hm.strips == ((1, 1), (2, 1))
    assert h0.kind == "perverse_0"
    assert hm.kind == "perverse_minus_1"
    assert {c for c, _ in generators(hm)} == {
        KClass(1, (0, 0)),
        KClass(0, (-1, 0)), KClass(1, (1, 0)),
        KClass(0, (0, -1)), KClass(1, (0, 1)),
    }
    with pytest.raises(IndexOutOfRange):
        perverse_heart(lat, 1)


def test_perverse_simples_catalog():
    lat = chain_lattice(2)
    assert perverse_simples(lat, 0) == (
        KClass(1, (-1, -1)), KClass(0, (1, 0)), KClass(0, (0, 1)))
    assert perverse_simples(lat, -1) == (
        KClass(1, (1, 1)), KClass(0, (-1, 0)), KClass(0, (0, -1)))
    with pytest.raises(IndexOutOfRange):
        perverse_simples(lat, 2)


def test_perverse_simples_sum_and_dualizing_class():
    # the zeroth simple at perversity 0 is minus the fiber-wide degree -2
    # gluing: -(sum of degree -2 bundles + (n-1) points)
    for n in (1, 2, 3):
        lat = chain_lattice(n)
        for p in (0, -1):
            simples = perverse_simples(lat, p)
            total = simples[0]
            for s in simples[1:]:
                total = total + s
            assert total == point_class(n)
        glued = line_bundle_class(n, 1, -2)
        for i in range(2, n + 1):
            glued = glued + line_bundle_class(n, i, -2)
        glued = glued + point_class(n).scale(n - 1)
        assert -glued == perverse_simples(lat, 0)[0]


def test_perverse_simples_form_basis():
    for n in (1, 2, 3):
        lat = chain_lattice(n)
        for p in (0, -1):
            simples = perverse_simples(lat, p)
            rows = [[s.point_mult] + list(s.curve_mult) for s in simples]
            assert abs(det_int(rows)) == 1


def test_partial_perverse_validation():
    lat = chain_lattice(2)
    with pytest.raises(IndexOutOfRange):
        partial_perverse_heart(lat, [(1, 0), (1, 1)])
    with pytest.raises(IndexOutOfRange):
        partial_perverse_heart(lat, [(3, 0)])
    with pytest.raises(IndexOutOfRange):
        tilted_heart(lat, 0, 1)


@pytest.mark.parametrize("strips, bad", [([(1.9, 0)], 1.9), ([(True, 0)], True),
                                         ([(1, Fraction(3, 2))], Fraction(3, 2)),
                                         ([(2, 0), (1, 1.0)], 1.0), ([(1, False)], False)])
def test_partial_perverse_heart_takes_only_integers(strips, bad):
    with pytest.raises(IndexOutOfRange, match=re.escape(f"must be an integer, got {bad!r}")):
        partial_perverse_heart(chain_lattice(2), strips)


@pytest.mark.parametrize("i, k, bad", [(1.0, 1, 1.0), (True, 1, True), (1, 1.5, 1.5),
                                       (1, Fraction(1), Fraction(1)), (1, True, True)])
def test_tilted_heart_takes_only_integers(i, k, bad):
    with pytest.raises(IndexOutOfRange, match=re.escape(f"must be an integer, got {bad!r}")):
        tilted_heart(chain_lattice(2), i, k)

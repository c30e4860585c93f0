from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

import stabwalk.covering as covering_mod
from stabwalk import (
    DISTINCT,
    EQUAL,
    THETA_EQUAL_WORD_DISTINCT,
    BaseMismatch,
    ComplexDivisor,
    Crossing,
    Flop,
    IndexOutOfRange,
    LiftState,
    NonGenericCrossing,
    PathHitsForbidden,
    StartNotGeneric,
    Twist,
    affine_identity,
    chain_lattice,
    crossing_generator,
    default_basepoint,
    fundamental_state,
    invert,
    isolating_depth,
    lattice_from_edges,
    lift_path,
    meridian,
    meridian_waypoints,
    same_chamber,
    stack_theta,
    stack_word,
    strip_chamber_census,
    theta,
    word,
)


def _pt(beta, omega):
    return ComplexDivisor(tuple(Fraction(x) for x in beta), tuple(Fraction(x) for x in omega))


def test_crossing_generator_letters():
    lat = chain_lattice(2)
    assert crossing_generator(lat, 1, 0) == word((Flop(1),))
    assert crossing_generator(lat, 1, 3) == word((Twist((3, 0)), Flop(1)))
    assert crossing_generator(lat, 2, -1) == word((Twist((0, -1)), Flop(2)))
    with pytest.raises(IndexOutOfRange):
        crossing_generator(lat, 3, 0)


def test_crossing_generator_flips_its_strip():
    # the shadow of gamma_(1, k) carries beta offsets k - 1 + t to 1 - t
    lat = chain_lattice(1)
    for k in (-2, 0, 1, 4):
        g = theta(lat, crossing_generator(lat, 1, k))
        for t in (Fraction(1, 4), Fraction(2, 3)):
            assert g.apply((k - 1 + t,)) == (1 - t,)


def test_single_crossing():
    lat = chain_lattice(1)
    end = lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([Fraction(1, 2)], [-1])])
    assert end.stack == (Crossing(1, 1),)
    assert end.theta.linear == ((-1,),) and end.theta.trans == (1,)
    assert len(end.trace) == 1
    ev = end.trace[0]
    assert (ev.segment, ev.time, ev.curve, ev.strip, ev.action) == (0, Fraction(1, 2), 1, 1, "push")
    assert ev.point == _pt([Fraction(1, 2)], [0])
    assert ev.framed == _pt([Fraction(1, 2)], [0])


def test_recrossing_pops():
    lat = chain_lattice(1)
    down = _pt([Fraction(1, 2)], [-1])
    base = default_basepoint(lat)
    mid = lift_path(lat, [base, down])
    back = lift_path(lat, [down, base], mid)
    assert back.stack == ()
    assert back.theta.is_identity
    assert back == fundamental_state(lat)
    assert [e.action for e in back.trace] == ["push", "pop"]


def test_rectangle_is_a_pure_twist():
    lat = chain_lattice(1)
    pts = meridian_waypoints(lat, 1, 0)
    assert pts == [
        _pt([Fraction(1, 2)], [1]),
        _pt([Fraction(1, 2)], [-1]),
        _pt([Fraction(-1, 2)], [-1]),
        _pt([Fraction(-1, 2)], [1]),
        _pt([Fraction(1, 2)], [1]),
    ]
    end = lift_path(lat, pts)
    assert end.stack == (Crossing(1, 1), Crossing(1, 2))
    assert end.theta.is_translation
    assert end.theta.trans == (-1,)


def test_meridian_conifold():
    lat = chain_lattice(1)
    deck = meridian(lat, 1, 0)
    assert deck.reduced_stack == (Crossing(1, 1), Crossing(1, 2))
    assert deck.word.gens == (
        Twist((1,)), Flop(1), Twist((2,)), Flop(1), Twist((1,)))
    assert theta(lat, deck.word).is_identity


def test_meridian_strip_family():
    lat = chain_lattice(1)
    for k in range(-2, 3):
        deck = meridian(lat, 1, k)
        assert deck.reduced_stack == (Crossing(1, k + 1), Crossing(1, 2))
        raw = stack_theta(lat, deck.reduced_stack)
        assert raw.is_translation and raw.trans == (k - 1,)
        assert theta(lat, deck.word).is_identity


def test_meridian_off_center_base():
    lat = chain_lattice(1)
    deck = meridian(lat, 1, 1, base=_pt([Fraction(3, 2)], [1]))
    assert deck.reduced_stack == (Crossing(1, 2), Crossing(1, 2))
    assert stack_theta(lat, deck.reduced_stack).is_identity
    assert deck.word == stack_word(lat, deck.reduced_stack)


def test_meridian_on_larger_trees():
    a2 = chain_lattice(2)
    for i in (1, 2):
        deck = meridian(a2, i, 0)
        assert deck.reduced_stack == (Crossing(i, 1), Crossing(i, 2))
        assert theta(a2, deck.word).is_identity
    a3 = chain_lattice(3)
    deck = meridian(a3, 2, 1)
    assert deck.reduced_stack == (Crossing(2, 2), Crossing(2, 2))
    d4 = lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)])
    deck = meridian(d4, 2, 0)
    assert deck.reduced_stack == (Crossing(2, 1), Crossing(2, 2))
    assert theta(d4, deck.word).is_identity


def test_meridian_backtracks_to_start():
    lat = chain_lattice(2)
    pts = meridian_waypoints(lat, 1, 0)
    end = lift_path(lat, pts)
    home = lift_path(lat, list(reversed(pts)), end)
    assert home.stack == ()
    assert home.theta.is_identity
    assert home.position == pts[0]


def test_isolating_depth():
    assert isolating_depth(chain_lattice(1), (Fraction(1),), 1) == 1
    assert isolating_depth(chain_lattice(2), (Fraction(1), Fraction(1)), 1) == Fraction(1, 2)
    d4 = lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)])
    assert isolating_depth(d4, (Fraction(1),) * 4, 2) == Fraction(1, 2)
    # a faraway coordinate shrinks the safe depth through non-simple roots
    assert isolating_depth(chain_lattice(2), (Fraction(1), Fraction(1, 4)), 1) == Fraction(1, 8)


def test_same_chamber_rank_one():
    lat = chain_lattice(1)
    base = default_basepoint(lat)
    a = lift_path(lat, [base, _pt([Fraction(1, 2)], [-1])])
    b = lift_path(lat, [base, _pt([Fraction(3, 2)], [1]), _pt([Fraction(3, 2)], [-1])])
    assert same_chamber(a, a) == EQUAL
    assert a.stack == (Crossing(1, 1),) and b.stack == (Crossing(1, 2),)
    assert same_chamber(a, b) == DISTINCT


def test_same_chamber_three_valued():
    lat = chain_lattice(2)
    base = default_basepoint(lat)
    sa = (Crossing(1, 0), Crossing(1, 0))
    sb = (Crossing(2, 0), Crossing(2, 0))
    ta, tb = stack_theta(lat, sa), stack_theta(lat, sb)
    assert ta.is_identity and tb.is_identity
    a = LiftState(lat, base, base, sa, ta)
    b = LiftState(lat, base, base, sb, tb)
    assert same_chamber(a, b) == THETA_EQUAL_WORD_DISTINCT
    c = LiftState(lat, base, base, (Crossing(1, 1),), stack_theta(lat, (Crossing(1, 1),)))
    assert same_chamber(a, c) == DISTINCT


def test_same_chamber_base_checks():
    lat = chain_lattice(1)
    a = fundamental_state(lat)
    b = fundamental_state(lat, _pt([Fraction(1, 3)], [1]))
    with pytest.raises(BaseMismatch):
        same_chamber(a, b)
    with pytest.raises(BaseMismatch):
        same_chamber(a, fundamental_state(chain_lattice(2)))


def test_framed_omega_stays_ample():
    lat = chain_lattice(2)
    rng = random.Random(41)
    done = 0
    while done < 40:
        pts = [default_basepoint(lat)]
        for _ in range(2):
            pts.append(_pt(
                [Fraction(rng.randrange(-12, 13), 4) for _ in range(2)],
                [Fraction(rng.randrange(-12, 13), 4) for _ in range(2)]))
        try:
            end = lift_path(lat, pts)
        except (NonGenericCrossing, PathHitsForbidden):
            continue
        done += 1
        inv = theta(lat, invert(stack_word(lat, end.stack)))
        assert all(x > 0 for x in inv.apply_linear(end.position.omega))
        assert end.position == pts[-1]


def test_start_state_validation():
    lat = chain_lattice(1)
    with pytest.raises(StartNotGeneric):
        fundamental_state(lat, _pt([0], [0]))
    with pytest.raises(StartNotGeneric):
        fundamental_state(lat, _pt([Fraction(1, 2)], [-1]))
    with pytest.raises(StartNotGeneric):
        lift_path(lat, [])
    with pytest.raises(StartNotGeneric):
        lift_path(lat, [_pt([Fraction(1, 3)], [1])], fundamental_state(lat))
    # the meridian stack shadows a translation by -1, not the identity
    base = default_basepoint(lat)
    stack = (Crossing(1, 1), Crossing(1, 2))
    good = LiftState(lat, base, base, stack, stack_theta(lat, stack))
    assert lift_path(lat, [base], good).theta == good.theta
    with pytest.raises(StartNotGeneric):
        lift_path(lat, [base], LiftState(lat, base, base, stack, affine_identity(1)))


def test_default_start_is_validated_once(monkeypatch):
    calls = Counter()

    def counting(name):
        fn = getattr(covering_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(covering_mod, name, wrapper)

    counting("_validate_state")
    counting("in_complement")
    lat = chain_lattice(2)
    end = lift_path(lat, [default_basepoint(lat), _pt([Fraction(1, 3), Fraction(1, 2)], [2, 1])])
    assert end.stack == ()
    # one start check, one scan of the start point and one of the breakpoint
    assert calls == {"_validate_state": 1, "in_complement": 2}
    calls.clear()
    meridian(lat, 1, 0)  # five waypoints
    assert calls == {"_validate_state": 1, "in_complement": 5}
    calls.clear()
    strip_chamber_census(lat)  # eight lifts through two breakpoints each
    assert calls == {"_validate_state": 8, "in_complement": 24}


def test_simultaneous_crossing_rejected():
    lat = chain_lattice(2)
    base = _pt([Fraction(1, 2), Fraction(1, 3)], [1, 1])
    with pytest.raises(NonGenericCrossing):
        lift_path(lat, [base, _pt([Fraction(1, 2), Fraction(1, 3)], [-1, -1])],
                  fundamental_state(lat, base))


def test_breakpoint_on_wall_rejected():
    lat = chain_lattice(1)
    with pytest.raises(NonGenericCrossing):
        lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([Fraction(1, 2)], [0])])


def test_forbidden_crossing_rejected():
    lat = chain_lattice(1)
    with pytest.raises(PathHitsForbidden):
        lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([Fraction(-1, 2)], [-1])])
    with pytest.raises(PathHitsForbidden):
        lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([0], [0])])


def test_census_finds_two_chambers_per_strip():
    n1 = chain_lattice(1)
    assert strip_chamber_census(n1) == ((), (Crossing(1, 1),))
    a2 = chain_lattice(2)
    assert strip_chamber_census(a2, curve=1) == ((), (Crossing(1, 1),))
    assert strip_chamber_census(a2, curve=2) == ((), (Crossing(2, 1),))

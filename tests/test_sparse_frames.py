"""lift_path's stack framing equals the dense shadow of the stack.

lift_path frames points through theta^-1 of its crossing stack one sparse
step per crossing, and the event scan carries framed integer numerators
through every push and pop.  The reference here is the shadow of the
stack's inverted word, built from the identity by fm_words.theta, and the
dense affine action of that inverse on each event point.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stabwalk import (
    ComplexDivisor,
    Crossing,
    NonGenericCrossing,
    PathHitsForbidden,
    affine_identity,
    chain_lattice,
    default_basepoint,
    invert,
    lattice_from_edges,
    lift_path,
    stack_theta,
    stack_word,
    theta,
)
from stabwalk.covering import _unframe

LATTICES = {
    "A3": chain_lattice(3),
    "D4": lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)]),
    "E6": lattice_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "E8": lattice_from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)]),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_push_and_pop_match_the_dense_shadow(name):
    lat = LATTICES[name]
    rng = random.Random(f"frames-{name}")
    for _ in range(4):
        stack = []
        for _ in range(24):
            if stack and rng.random() < 0.35:
                stack.pop()
            else:
                stack.append(Crossing(rng.randint(1, lat.n), rng.randint(-3, 3)))
            inv = theta(lat, invert(stack_word(lat, stack)))
            assert stack_theta(lat, stack).compose(inv) == affine_identity(lat)
            d = tuple(rng.randint(-9, 9) for _ in range(lat.n))
            den = rng.randint(1, 7)
            # den = 0 is the linear part; den > 0 frames the point d / den
            assert _unframe(lat, stack, d) == inv.weyl.apply_dual(d)
            assert _unframe(lat, stack, d, den) == tuple(
                x + den * t for x, t in zip(inv.weyl.apply_dual(d), inv.trans))
            v = tuple(Fraction(x, den) for x in d)
            assert _unframe(lat, stack, v, 1) == inv.apply(v)


def random_point(rng, n):
    return ComplexDivisor(tuple(Fraction(rng.randrange(-16, 17), rng.randrange(2, 9))
                                for _ in range(n)),
                          tuple(Fraction(rng.randrange(-8, 13), rng.randrange(1, 5))
                                for _ in range(n)))


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_framed_event_points_match_dense_frames(name):
    lat = LATTICES[name]
    rng = random.Random(f"events-{name}")
    lifted = events = pops = 0
    while lifted < 6:
        base = default_basepoint(lat)
        out = [random_point(rng, lat.n) for _ in range(2)]
        # out and back again, so the return trip pops what the way out pushed
        pts = [base] + out + out[-2::-1] + [base]
        try:
            end = lift_path(lat, pts)
        except (NonGenericCrossing, PathHitsForbidden):
            continue
        lifted += 1
        stack = []
        for ev in end.trace:
            p0, p1 = pts[ev.segment], pts[ev.segment + 1]
            assert ev.point == ComplexDivisor(
                tuple(a + ev.time * (b - a) for a, b in zip(p0.beta, p1.beta)),
                tuple(a + ev.time * (b - a) for a, b in zip(p0.omega, p1.omega)))
            inv = theta(lat, invert(stack_word(lat, stack)))
            assert ev.framed == ComplexDivisor(inv.apply(ev.point.beta),
                                               inv.weyl.apply_dual(ev.point.omega))
            if ev.action == "push":
                stack.append(Crossing(ev.curve, ev.strip))
            else:
                assert stack.pop().curve == ev.curve
                pops += 1
            events += 1
        assert tuple(stack) == end.stack
        assert end.theta == stack_theta(lat, stack)
    assert events > 0 and pops > 0

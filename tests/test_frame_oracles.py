"""Cross-layer oracles for the frames that covering builds without lifting.

A lift's theta is a Weyl element plus a translation.  Its Weyl element is
not tracked by the lift; it follows from the stack.  Since the framed
omega of a lift is ample, it must be the Weyl chamber of the end omega,
which strata.locate_weyl_chamber finds by its own descent.

meridian builds its stack in closed form.  The oracle is the rectangle
it stands for: lifting meridian_waypoints from the fundamental chamber
must end on the same stack, for every curve of every fixture, several
strips and several bases.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stabwalk import (
    ComplexDivisor,
    NonGenericCrossing,
    PathHitsForbidden,
    Twist,
    chain_lattice,
    compose,
    default_basepoint,
    lattice_from_edges,
    lift_path,
    locate_weyl_chamber,
    meridian,
    meridian_waypoints,
    stack_word,
    theta,
    word,
)
from stabwalk.covering import _fundamental_start


def dynkin_lattice(t):
    """The tree of Dynkin type t: a chain, with D_n and E_n branching at n-2 and 3."""
    kind, n = t[0], int(t[1:])
    if kind == "A":
        return chain_lattice(n)
    branch = n - 2 if kind == "D" else 3
    return lattice_from_edges(n, [(i, i + 1) for i in range(1, n - 1)] + [(branch, n)])


FIXTURES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4", "D5", "E6", "E7", "E8"]


def random_point(rng, n):
    return ComplexDivisor(tuple(Fraction(rng.randrange(-16, 17), rng.randrange(2, 9))
                                for _ in range(n)),
                          tuple(Fraction(rng.randrange(-8, 13), rng.randrange(1, 5))
                                for _ in range(n)))


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E8"])
def test_lift_frame_is_the_weyl_chamber_of_its_end(name):
    lat = dynkin_lattice(name)
    rng = random.Random(f"theta-strata-{name}")
    lifted = crossed = 0
    while lifted < 32:
        pts = [default_basepoint(lat)] + [random_point(rng, lat.n) for _ in range(2)]
        try:
            end = lift_path(lat, pts)
        except (NonGenericCrossing, PathHitsForbidden):
            continue
        lifted += 1
        crossed += bool(end.stack)
        assert end.theta.weyl == locate_weyl_chamber(lat, end.position.omega)[0]
    assert crossed > lifted // 2


def valid_bases(lat, rng):
    """The default basepoint, one with an uneven omega, and a random one."""
    uneven = ComplexDivisor(default_basepoint(lat).beta,
                            tuple(Fraction(1, 4) if j % 2 else Fraction(3) for j in range(lat.n)))
    drawn = ComplexDivisor(tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                                 for _ in range(lat.n)),
                           tuple(Fraction(rng.randrange(1, 13), rng.randrange(1, 5))
                                 for _ in range(lat.n)))
    return default_basepoint(lat), uneven, drawn


@pytest.mark.parametrize("name", FIXTURES)
def test_closed_form_meridian_matches_the_lifted_rectangle(name):
    lat = dynkin_lattice(name)
    bases = valid_bases(lat, random.Random(f"meridian-{name}"))
    for i in range(1, lat.n + 1):
        for k in range(-3, 4):
            base = bases[(i + k) % len(bases)]
            pts = meridian_waypoints(lat, i, k, base)
            end = lift_path(lat, pts, _fundamental_start(lat, base))
            deck = meridian(lat, i, k, base)
            assert deck.reduced_stack == end.stack
            assert end.theta.is_translation
            # normalised by the right twist that undoes the end translation
            twist = word((Twist(tuple(-x for x in end.theta.trans)),) if any(end.theta.trans)
                         else ())
            assert deck.word == compose(stack_word(lat, end.stack), twist)
            assert theta(lat, deck.word).is_identity

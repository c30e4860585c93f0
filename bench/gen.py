"""Seeded input generation: points, generic paths, loops and meridian picks.

Inputs are plain tuples of Fractions; the workloads turn them into the
program's types.  Every generator takes a random.Random built from the
benchmark seed, so the same seed gives the same inputs.  Genericity and
the intended stratum kind are decided by the oracles, never by stabwalk.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from oracles import Fixture, dot, label_kind, path_crossings, vanishing

DENOMINATORS = (2, 3, 4, 5, 7, 8)
HALF = Fraction(1, 2)


def rng_for(seed: int, *parts) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def rand_frac(rng, lo, hi) -> Fraction:
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randrange(math.ceil(lo * q), math.floor(hi * q) + 1), q)


def rand_vec(rng, n, lo=-3, hi=3) -> tuple:
    return tuple(rand_frac(rng, lo, hi) for _ in range(n))


def basepoint(n: int) -> tuple:
    """The program's default basepoint: beta = 1/2, omega = 1 everywhere."""
    return (HALF,) * n, (Fraction(1),) * n


def walk_up(fx: Fixture, rng, omega, steps: int) -> tuple:
    """Move omega exactly `steps` chambers away from the fundamental one.

    The dual reflection at a coordinate with omega_j > 0 turns exactly one
    more positive root negative on omega and permutes the rest, so each
    step adds one to the descent length classify and the lifts see.
    """
    for _ in range(steps):
        up = [j for j in range(fx.n) if omega[j] > 0]
        omega = fx.coreflect(rng.choice(up), omega)
    return omega


def dominant(fx: Fixture, rng, zeros: int = 0) -> list:
    dom = [rand_frac(rng, Fraction(1, 8), 3) for _ in range(fx.n)]
    for i in rng.sample(range(fx.n), zeros):
        dom[i] = Fraction(0)
    return dom


# -- points --------------------------------------------------------------------

def point(fx: Fixture, rng, kind: str, far: bool) -> tuple:
    """One (beta, omega) point of the requested stratum kind.

    omega lies a fixed number of chambers from the fundamental one: 0 to
    2 for a short descent, three quarters of the positive roots for a
    long one.  Walls and deep strata start from a dominant vector with
    one or two zero coordinates.  Forbidden points are walls or deep
    strata with beta moved onto an integral level of a vanishing root.
    """
    zeros = {"ample_chamber": 0, "wall_strip": 1, "deep_stratum": 2,
             "forbidden": rng.choice((1, 2)) if fx.n > 1 else 1}[kind]
    while True:
        dom = dominant(fx, rng, zeros)
        free = fx.n_positive - len(vanishing(fx.roots, dom))
        length = min(3 * fx.n_positive // 4, free) if far else rng.randrange(0, min(2, free) + 1)
        omega = walk_up(fx, rng, dom, length)
        beta = rand_vec(rng, fx.n)
        if kind == "forbidden":
            v = rng.choice(vanishing(fx.roots, omega))
            j = rng.choice([j for j in range(fx.n) if v[j]])
            level = rng.randrange(-3, 4)
            rest = dot(beta, v) - beta[j] * v[j]
            beta = beta[:j] + (Fraction(level - rest, v[j]),) + beta[j + 1:]
        if label_kind(fx.roots, beta, omega) == kind:
            return beta, omega


# point_queries mix per fixture: (kind, far) pairs; rank one has no deep
# strata.  The rank-8 fixtures get two more far points, which puts the 90th
# percentile inside the block of A8's far points rather than at its edge.
POINT_MIX = (
    ("ample_chamber", False), ("ample_chamber", False), ("ample_chamber", True),
    ("ample_chamber", True), ("wall_strip", False), ("wall_strip", True),
    ("wall_strip", True), ("deep_stratum", False), ("deep_stratum", True),
    ("forbidden", False), ("forbidden", True), ("deep_stratum", True),
)
RANK8_EXTRA = (("ample_chamber", True), ("wall_strip", True))


def point_specs(fx: Fixture) -> list:
    specs = list(POINT_MIX) + (list(RANK8_EXTRA) if fx.n == 8 else [])
    return [("wall_strip" if kind == "deep_stratum" and fx.n == 1 else kind, far)
            for kind, far in specs]


def point_mix(fx: Fixture, rng) -> list:
    return [point(fx, rng, kind, far) for kind, far in point_specs(fx)]


# -- paths -----------------------------------------------------------------------

def generic_path(fx: Fixture, rng, depth: int, hops: int, closed: bool, events: int) -> list:
    """A generic polygonal path from the basepoint with exactly `events` crossings.

    The first point lies `depth` chambers out; each further point moves
    omega by at most 1 in every coordinate.  closed=False gives the
    back-and-forth path base, p1..pk, ..p1, base; closed=True gives
    base, p1..pk, base.  Fixing the crossing count keeps the cost of a
    lift the same from seed to seed.
    """
    base = basepoint(fx.n)
    while True:
        pts = [(rand_vec(rng, fx.n), walk_up(fx, rng, dominant(fx, rng), depth))]
        for _ in range(hops - 1):
            step = rand_vec(rng, fx.n, -1, 1)
            pts.append((rand_vec(rng, fx.n), tuple(a + b for a, b in zip(pts[-1][1], step))))
        path = [base] + pts + ([base] if closed else pts[-2::-1] + [base])
        crossed = path_crossings(fx.roots, path)
        if crossed is not None and len(crossed) == events:
            return path


PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)


def generic_beta(fx: Fixture, rng) -> tuple:
    """beta with beta . v non-integral for every root: no forbidden point above it.

    Coordinate j gets its own prime denominator above every root
    coefficient, so any nonzero root pairs to a non-integer.
    """
    primes = rng.sample(PRIMES, fx.n)
    return tuple(Fraction(rng.choice([a for a in range(-3 * p, 3 * p + 1) if a % p]), p)
                 for p in primes)


def wall_disc_loop(fx: Fixture, rng, depth: int) -> list:
    """A small square around a wall point, reached from the basepoint and back.

    beta is held at a generic value on the loop, so the whole omega space
    above it, and the disc the square bounds, lie in the complement.  The
    square crosses the one wall through its centre and nothing else, so
    the lift must return to the start chamber.  The wall point lies
    `depth` chambers out and the square starts on the side of the wall
    that faces the basepoint, so the path has exactly 2 * depth + 2
    crossings.
    """
    base = basepoint(fx.n)
    eps = Fraction(1, 16)
    while True:
        beta = generic_beta(fx, rng)
        q = walk_up(fx, rng, dominant(fx, rng, 1), depth)
        (v,) = vanishing(fx.roots, q)
        d1, d2 = rand_vec(rng, fx.n, -1, 1), rand_vec(rng, fx.n, -1, 1)
        corners = [tuple(c + eps * (a * x + b * y) for c, x, y in zip(q, d1, d2))
                   for a, b in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        if any(dot(c, v) == 0 for c in corners):
            continue
        while dot(corners[0], v) < 0:
            corners = corners[1:] + corners[:1]
        loop = [(beta, c) for c in corners + corners[:1]]
        path = [base, (beta, base[1])] + loop + [(beta, base[1]), base]
        crossed = path_crossings(fx.roots, path)
        loop_crossed = path_crossings(fx.roots, loop)
        if crossed is not None and loop_crossed == [v, v] and len(crossed) == 2 * depth + 2:
            return path


def square_loop(base_beta, base_omega, coords, corners) -> list:
    """Loop moving omega at two coordinates through the given corners, beta fixed."""
    path = []
    for corner in corners:
        omega = list(base_omega)
        for c, x in zip(coords, corner):
            omega[c - 1] = Fraction(x)
        path.append((tuple(base_beta), tuple(omega)))
    return path


def _f(*xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


# Loops around codimension-2 strata, the same for every seed.  Each bounds
# a disc inside the complement, so each should lift to a closed loop.
# The first two are the chain reproducers of the orthogonal and the
# adjacent case; the others repeat the two cases on D4 and A3.
CODIM2_LOOPS = (
    ("A3", square_loop(_f("1/2", "1/2", "1/3"), _f(1, 5, 1), (1, 3),
                       ((1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)))),
    ("A2", square_loop(_f("1/3", "1/5"), _f(2, 1), (1, 2),
                       ((2, 1), (-1, 2), (-2, -1), (1, -2), (2, 1)))),
    ("D4", square_loop(_f("1/3", "1/5", "1/7", "2/11"), _f(1, 5, 1, 1), (1, 3),
                       ((1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)))),
    ("A3", square_loop(_f("1/3", "1/5", "1/7"), _f(2, 1, 5), (1, 2),
                       ((2, 1), (-1, 2), (-2, -1), (1, -2), (2, 1)))),
)


def meridian_picks(fx: Fixture, rng, every_curve: bool = False) -> list:
    """Every curve at strip 0, then curves at seeded nonzero strips.

    The extra strips go to the end curves, or to every curve when
    every_curve is set.  The curves are fixed so the cost of the picks
    does not depend on the seed; a meridian's cost varies by curve, not
    by strip.
    """
    picks = [(i, 0) for i in range(1, fx.n + 1)]
    extra = range(1, fx.n + 1) if every_curve else sorted({1, fx.n})
    picks += [(i, rng.choice((-3, -2, -1, 1, 2, 3))) for i in extra]
    return picks


def kclass(fx: Fixture, rng) -> tuple:
    return rng.randrange(-3, 4), tuple(rng.randrange(-2, 3) for _ in range(fx.n))

"""Path lifting and deck bookkeeping for the chamber covering.

A lift state tracks a point moving through the parameter space together
with the chamber of the covering containing its lift.  The chamber is
recorded as a reduced stack of wall crossings relative to the starting
chamber, and the frame map theta is the affine shadow of the stack read
as a word of crossing generators.  Framing the moving point through
theta keeps its omega strictly positive between crossings, so crossings
are exactly the sign changes of framed simple coordinates, found by
solving linear equations in the segment parameter, with no rounding.
The scans run on integer numerators: each segment's start and direction
are put over one common denominator and framed once, and the framed
numerators follow the stack through every event.  A crossing time is one
fraction of two framed omega numerators and its strip one integer
division of framed beta numerators; an event's points are built as
fractions only when read.

Crossing the frame wall (i, k) appends the generator

    gamma_(i, k) = Twist(k D_i) . Flop(i)

except when it immediately recrosses the wall the state last came
through.  Seen from the new chamber that wall always sits at strip
(i, 1), so a crossing of (i, 1), when the stack top also concerns curve
i, pops the top instead and the frame returns to the previous chamber's
frame.  Chamber identity is the reduced stack; frames of the same
chamber would otherwise drift by right twists, which do not move the
chamber.

The stack is the lift's only record of its chamber.  The shadow of
gamma_(i, k) is d -> s_i d + k e_i, so theta^-1 of a stack frames a
point one crossing at a time, first crossing first, each step one
sparse coreflection: theta(gamma_(i, k))^-1 d = s_i (d - k e_i).  A push
takes framed numerators one such step further and a pop undoes the step
of the entry it removes; on omega both are the one coreflection s_i.
stack_theta folds the shadows up in closed form, for the start check and
the end state.  theta's Weyl element is the Weyl chamber of the framed
omega, and same_chamber compares chambers through it.

A meridian's stack is known in closed form, so meridian lifts nothing;
the rectangle it stands for is still drawn by meridian_waypoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .charge import ComplexDivisor, point_json
from .errors import (
    BaseMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    NonGenericCrossing,
    PathHitsForbidden,
    StartNotGeneric,
)
from .fm_words import (
    AffineMap,
    FMWord,
    Flop,
    Twist,
    affine_identity,
    compose,
    word,
)
from .lattice import RootLattice
from .linalg import common_denominator, vdot, vneg
from .strata import in_complement


@dataclass(frozen=True)
class Crossing:
    curve: int
    strip: int


@dataclass(frozen=True)
class TraceEvent:
    """One processed crossing: where, when, and what it did to the stack.
    Its point and framed point are built from its numerators on each read."""

    segment: int
    time: Fraction
    curve: int
    strip: int
    action: str  # "push" or "pop"
    nums: Tuple[tuple, tuple]  # the segment's (start, direction, denominator), beta's and omega's
    framed_nums: Tuple[tuple, tuple]  # the same framed by the stack before the event

    @property
    def point(self) -> ComplexDivisor:
        return _divisor_at(self.nums, self.time)

    @property
    def framed(self) -> ComplexDivisor:
        return _divisor_at(self.framed_nums, self.time)


@dataclass(frozen=True)
class LiftState:
    lattice: RootLattice
    base: ComplexDivisor
    position: ComplexDivisor
    stack: Tuple[Crossing, ...]
    theta: AffineMap
    trace: Tuple[TraceEvent, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stack", tuple(self.stack))


def default_basepoint(lat: RootLattice) -> ComplexDivisor:
    return ComplexDivisor((Fraction(1, 2),) * lat.n, (Fraction(1),) * lat.n)


def crossing_generator(lat: RootLattice, i: int, k: int) -> FMWord:
    """Word attached to crossing wall strip (i, k) of the current frame."""
    if not (1 <= i <= lat.n):
        raise IndexOutOfRange(f"curve index {i} not in 1..{lat.n}")
    if k == 0:
        return word((Flop(i),))
    div = tuple(k if j == i - 1 else 0 for j in range(lat.n))
    return word((Twist(div), Flop(i)))


def stack_word(lat: RootLattice, stack: Sequence[Crossing]) -> FMWord:
    u = word(())
    for c in stack:
        u = compose(u, crossing_generator(lat, c.curve, c.strip))
    return u


def stack_theta(lat: RootLattice, stack: Sequence[Crossing]) -> AffineMap:
    """theta of the stack's word: shadows folded up last crossing first."""
    trans = (0,) * lat.n
    for c in reversed(stack):
        trans = _shift(lat.coreflect(c.curve, trans), c.curve, c.strip)
    return AffineMap(lat.weyl_from_word([c.curve for c in stack]), trans)


def _unframe(lat: RootLattice, stack: Sequence[Crossing], d: tuple, den: int = 0) -> tuple:
    """Numerators d over den run through theta^-1 of the stack.

    One sparse step per crossing, first crossing first:
    theta(gamma_(i, k))^-1 d = s_i (d - k den e_i).  With den = 0 only
    the linear part acts.
    """
    for c in stack:
        if den and c.strip:
            d = _shift(d, c.curve, -c.strip * den)
        d = lat.coreflect(c.curve, d)
    return d


def _shift(d: tuple, i: int, x) -> tuple:
    """d with x added to its coordinate i."""
    return d[:i - 1] + (d[i - 1] + x,) + d[i:]


def _numerators(v0: tuple, v1: tuple) -> Tuple[tuple, tuple, int]:
    """Integer numerators of v0 and of v1 - v0 over one positive denominator."""
    nums, d = common_denominator(v0 + v1)
    n = len(v0)
    return nums[:n], tuple(b - a for a, b in zip(nums, nums[n:])), d


def _divisor_at(nums: Tuple[tuple, tuple], s: Fraction) -> ComplexDivisor:
    """beta + i omega with each part (x0 + s dx) / d, from its numerators (x0, dx, d)."""
    p, q = s.numerator, s.denominator
    return ComplexDivisor(*(tuple(Fraction(a * q + p * b, d * q) for a, b in zip(x0, dx))
                            for x0, dx, d in nums))


def _fundamental_start(lat: RootLattice, base: Optional[ComplexDivisor] = None) -> LiftState:
    """Start state over a basepoint of the fundamental chamber, unchecked."""
    p = base if base is not None else default_basepoint(lat)
    return LiftState(lat, p, p, (), affine_identity(lat))


def fundamental_state(lat: RootLattice, base: Optional[ComplexDivisor] = None) -> LiftState:
    """Start state over a basepoint of the fundamental chamber."""
    state = _fundamental_start(lat, base)
    _validate_state(state)
    return state


def _validate_state(state: LiftState) -> None:
    """Check a start state's position, its theta against its stack, and its framed omega."""
    lat = state.lattice
    if state.position.n != lat.n:
        raise StartNotGeneric("state position size differs from lattice rank")
    if not in_complement(lat, state.position):
        raise StartNotGeneric("state position lies on the forbidden locus")
    if stack_theta(lat, state.stack) != state.theta:
        raise StartNotGeneric("state theta is not the shadow of its stack")
    on, _ = common_denominator(state.position.omega)
    if not all(x > 0 for x in _unframe(lat, state.stack, on)):
        raise StartNotGeneric("framed omega of the state is not strictly ample")


def lift_path(lat: RootLattice, path: Sequence[ComplexDivisor],
              start: Optional[LiftState] = None) -> LiftState:
    """Lift a piecewise linear path, segment by segment, exactly.

    The path must begin at the state's position.  Breakpoints must be
    strictly inside chambers; a breakpoint on a wall or two walls met at
    the same instant raise NonGenericCrossing, and meeting the forbidden
    locus raises PathHitsForbidden.  Failures never mutate the caller's
    state: a fresh state is returned only on success.
    """
    if start is None:
        start = _fundamental_start(lat)
    _validate_state(start)
    pts = [p if isinstance(p, ComplexDivisor) else ComplexDivisor(*p) for p in path]
    if len(pts) < 1:
        raise StartNotGeneric("empty path")
    if pts[0] != start.position:
        raise StartNotGeneric("path does not start at the state position")
    for p in pts[1:]:  # pts[0] is the state position, checked above
        if not in_complement(lat, p):
            raise PathHitsForbidden(
                f"breakpoint {json.dumps(point_json(p))} lies on the forbidden locus")

    stack: List[Crossing] = list(start.stack)
    trace: List[TraceEvent] = list(start.trace)
    max_events = lat.positive_root_count + 1

    for seg in range(len(pts) - 1):
        p0, p1 = pts[seg], pts[seg + 1]
        if p0 == p1:
            continue
        # start, direction and denominator, framed by the stack: the framed
        # point at time s is (fb0 + s fdb) / bd + i (fw0 + s fdw) / wd
        nums = (b0, db, bd), (w0, dw, wd) = (_numerators(p0.beta, p1.beta),
                                             _numerators(p0.omega, p1.omega))
        fb0, fdb = _unframe(lat, stack, b0, bd), _unframe(lat, stack, db)
        fw0, fdw = _unframe(lat, stack, w0), _unframe(lat, stack, dw)
        p, q = 0, 1  # the last crossing time, p / q
        for _ in range(max_events):
            walls = []  # the curves whose coordinate vanishes first in (p / q, 1], at c / d
            for j, (a, b) in enumerate(zip(fw0, fdw)):
                if a == 0 and b == 0:
                    raise NonGenericCrossing(
                        f"segment {seg} runs inside the wall of curve {j + 1}")
                # coordinate j vanishes at s = -a / b = |a| / |b|
                if a * b < 0 and abs(a) <= abs(b):
                    a, b = abs(a), abs(b)
                    if a * q <= p * b:
                        continue
                    if not walls or a * d < c * b:
                        c, d, walls = a, b, [j + 1]
                    elif a * d == c * b:
                        walls.append(j + 1)
            if not walls:
                break
            if len(walls) > 1:
                raise NonGenericCrossing(
                    f"segment {seg} meets walls {walls} at the same instant")
            if c == d:
                raise NonGenericCrossing(
                    f"breakpoint after segment {seg} lies on a wall")
            (i,), p, q = walls, c, d
            s = Fraction(p, q)
            # framed beta_i at s lies in the strip (k - 1, k)
            k, r = divmod(fb0[i - 1] * q + p * fdb[i - 1], bd * q)
            if not r:
                raise PathHitsForbidden(
                    f"crossing of curve {i} at framed offset {k}, an integer")
            k += 1
            framed = (fb0, fdb, bd), (fw0, fdw, wd)
            if stack and stack[-1].curve == i and k == 1:
                # undo the popped entry's step: s_i d + k_top e_i
                fb0 = _shift(lat.coreflect(i, fb0), i, stack.pop().strip * bd)
                trace.append(TraceEvent(seg, s, i, k, "pop", nums, framed))
            else:
                fb0 = lat.coreflect(i, _shift(fb0, i, -k * bd))
                stack.append(Crossing(i, k))
                trace.append(TraceEvent(seg, s, i, k, "push", nums, framed))
            fdb, fw0, fdw = (lat.coreflect(i, x) for x in (fdb, fw0, fdw))
        else:
            raise AssertionError("event scan failed to terminate")
        # segment end must be strictly inside the current chamber
        if any(a + b == 0 for a, b in zip(fw0, fdw)):
            raise NonGenericCrossing(
                f"breakpoint after segment {seg} lies on a wall")

    return LiftState(lat, start.base, pts[-1], tuple(stack), stack_theta(lat, stack),
                     tuple(trace))


@dataclass(frozen=True)
class DeckElement:
    """Deck transformation of the covering, as a word plus its gallery."""

    word: FMWord
    reduced_stack: Tuple[Crossing, ...]


def isolating_depth(lat: RootLattice, omega: Sequence, i: int) -> Fraction:
    """Descent depth along coordinate i that crosses only the wall of e_i.

    From an ample omega, lowering omega_i hits the wall of a positive
    root v with v_i > 0 at omega_i = -(sum of the other terms of
    omega . v) / v_i, which is strictly negative.  Half the least such
    magnitude (capped by omega_i itself) keeps every wall but the
    simple one out of reach.
    """
    if not (1 <= i <= lat.n):
        raise IndexOutOfRange(f"curve index {i} not in 1..{lat.n}")
    if len(omega) != lat.n:
        raise DimensionMismatch(f"omega length {len(omega)} differs from lattice rank {lat.n}")
    on, od = common_denominator(omega)
    floor = None  # highest crossing as (numerator, vi): omega_i = num / (vi od)
    for r in lat.positive_roots():
        v = r.coords
        vi = v[i - 1]
        if vi <= 0 or not any(v[j] for j in range(lat.n) if j != i - 1):
            continue
        rest = vdot(on, v) - on[i - 1] * vi
        if floor is None or -rest * floor[1] > floor[0] * vi:
            floor = (-rest, vi)
    if floor is None:
        return Fraction(omega[i - 1])
    return min(Fraction(omega[i - 1]), Fraction(-floor[0], 2 * floor[1] * od))


def meridian_waypoints(lat: RootLattice, i: int, k: int,
                       base: Optional[ComplexDivisor] = None) -> List[ComplexDivisor]:
    """Rectangle looping once around the wall puncture (i, k).

    Moves only the i-th coordinate pair: right to beta offset k + 1/2,
    down below the wall, left to offset k - 1/2, and back up to the
    base.  The descent depth stays above the walls of every other root
    so only the i-th wall is crossed.
    """
    p = base if base is not None else default_basepoint(lat)
    depth = isolating_depth(lat, p.omega, i)

    def with_coord(pt: ComplexDivisor, beta_i=None, omega_i=None) -> ComplexDivisor:
        nb = list(pt.beta)
        no = list(pt.omega)
        if beta_i is not None:
            nb[i - 1] = Fraction(beta_i)
        if omega_i is not None:
            no[i - 1] = Fraction(omega_i)
        return ComplexDivisor(tuple(nb), tuple(no))

    w0 = p
    w1 = with_coord(w0, beta_i=Fraction(2 * k + 1, 2))
    w2 = with_coord(w1, omega_i=-depth)
    w3 = with_coord(w2, beta_i=Fraction(2 * k - 1, 2))
    w4 = with_coord(w3, omega_i=p.omega[i - 1])
    w5 = p
    waypoints = [w0]
    for w in (w1, w2, w3, w4, w5):
        if w != waypoints[-1]:
            waypoints.append(w)
    return waypoints


def meridian(lat: RootLattice, i: int, k: int,
             base: Optional[ComplexDivisor] = None) -> DeckElement:
    """Deck element of the loop encircling the wall puncture (i, k).

    The loop is the rectangle of meridian_waypoints, which crosses only
    the wall of curve i.  Its stack is known in closed form, so nothing
    is lifted.  The way down crosses at framed beta_i = k + 1/2 and
    pushes (i, k + 1).  After s_i, framed beta_i at beta_i = k - 1/2 is
    -(k - 1/2 - (k + 1)) = 3/2 whatever the other coordinates, so the
    way up pushes (i, 2).  The base only has to be a valid start.  The
    word is normalized by a right twist into the subgroup acting
    trivially on divisor coordinates; right twists do not move chambers.
    """
    stack = (Crossing(i, k + 1), Crossing(i, 2))
    u = stack_word(lat, stack)  # refuses a bad curve index before the base is checked
    fundamental_state(lat, base)
    offset = stack_theta(lat, stack).trans
    if any(offset):
        u = compose(u, word((Twist(vneg(offset)),)))
    return DeckElement(u, stack)


EQUAL = "equal"
DISTINCT = "distinct"
# same Weyl element (frames equal up to a right twist), distinct stacks
UNDECIDED = "undecided"


def same_chamber(a: LiftState, b: LiftState) -> str:
    """Compare the chambers of two lift states over the same base.

    Identical reduced stacks mean the same chamber.  A chamber fixes the
    Weyl element of its model, the one in its frame, so distinct Weyl
    elements mean distinct chambers.  Frames of one chamber may still
    differ by a right twist, which changes only the translation part, so
    distinct stacks whose frames are equal up to a right twist are
    genuinely distinct only when the base fundamental group is free,
    which holds at rank one; otherwise the honest answer is the
    three-valued verdict.
    """
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise BaseMismatch("states live over different lattices")
    if a.base != b.base:
        raise BaseMismatch("states are based at different points")
    if a.stack == b.stack:
        return EQUAL
    if a.lattice.n == 1:
        return DISTINCT
    if a.theta.weyl != b.theta.weyl:
        return DISTINCT
    return UNDECIDED


def strip_chamber_census(lat: RootLattice, curve: int = 1,
                         samples: int = 8) -> Tuple[Tuple[Crossing, ...], ...]:
    """Chambers reachable from the basepoint by one crossing over one strip.

    Probes the strip between beta offsets 0 and 1 at several rational
    abscissas, lifting a straight descent at each; returns the distinct
    reduced stacks, the untouched start chamber included.
    """
    base = default_basepoint(lat)
    depth = isolating_depth(lat, base.omega, curve)
    labels = {()}
    for s in range(samples):
        x = Fraction(2 * s + 1, 2 * samples)
        mid = ComplexDivisor(
            tuple(x if j == curve - 1 else b for j, b in enumerate(base.beta)),
            base.omega)
        down = ComplexDivisor(
            mid.beta,
            tuple(-depth if j == curve - 1 else o for j, o in enumerate(base.omega)))
        end = lift_path(lat, [base, mid, down])
        labels.add(end.stack)
    return tuple(sorted(labels, key=lambda st: [(c.curve, c.strip) for c in st]))

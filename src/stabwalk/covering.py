"""Path lifting and deck bookkeeping for the chamber covering.

A lift state tracks a point moving through the parameter space together
with the chamber of the covering containing its lift.  The chamber is
recorded as a reduced stack of wall crossings relative to the starting
chamber, and the frame map theta is the affine shadow of the stack read
as a word of crossing generators.  Framing the moving point through
theta keeps its omega strictly positive between crossings, so crossings
are exactly the sign changes of framed simple coordinates, found by
solving linear equations in the segment parameter, with no rounding.

Crossing the frame wall (i, k) appends the generator

    gamma_(i, k) = Twist(k D_i) . Flop(i)

except when it immediately recrosses the wall the state last came
through.  Seen from the new chamber that wall always sits at strip
(i, 1), so a crossing of (i, 1), when the stack top also concerns curve
i, pops the top instead and the frame returns to the previous chamber's
frame.  Chamber identity is the reduced stack; frames of the same
chamber would otherwise drift by right twists, which do not move the
chamber.

A lift keeps one frame pair (theta, theta^-1) per prefix of the stack,
built once from the start state's stack.  A push appends the pair one
crossing longer, with theta^-1 taken from the inverted word of gamma; a
pop drops the last pair, so going back to the previous frame costs
nothing and no frame is ever rebuilt or inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .charge import ComplexDivisor, strip_index
from .errors import (
    BaseMismatch,
    IndexOutOfRange,
    NonGenericCrossing,
    NotEncirclable,
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
    invert,
    theta,
    word,
)
from .lattice import RootLattice
from .linalg import vadd, vscale, vsub
from .strata import in_complement


@dataclass(frozen=True)
class Crossing:
    curve: int
    strip: int


@dataclass(frozen=True)
class TraceEvent:
    """One processed crossing: where, when, and what it did to the stack."""

    segment: int
    time: Fraction
    curve: int
    strip: int
    action: str  # "push" or "pop"
    point: ComplexDivisor
    framed: ComplexDivisor


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
    return theta(lat, stack_word(lat, stack))


def _push_frame(lat: RootLattice, frames: List[Tuple[AffineMap, AffineMap]], c: Crossing):
    """Append the frame pair (theta, theta^-1) one crossing beyond the last."""
    g = crossing_generator(lat, c.curve, c.strip)
    th, th_inv = frames[-1]
    frames.append((th.compose(theta(lat, g)), theta(lat, invert(g)).compose(th_inv)))


def _fundamental_start(lat: RootLattice, base: Optional[ComplexDivisor] = None) -> LiftState:
    """Start state over a basepoint of the fundamental chamber, unchecked."""
    p = base if base is not None else default_basepoint(lat)
    return LiftState(lat, p, p, (), affine_identity(lat.n))


def fundamental_state(lat: RootLattice, base: Optional[ComplexDivisor] = None) -> LiftState:
    """Start state over a basepoint of the fundamental chamber."""
    state = _fundamental_start(lat, base)
    _validate_state(state)
    return state


def _validate_state(state: LiftState) -> List[Tuple[AffineMap, AffineMap]]:
    """Check a start state; return the frame pairs of its stack's prefixes."""
    lat = state.lattice
    if state.position.n != lat.n:
        raise StartNotGeneric("state position size differs from lattice rank")
    if not in_complement(lat, state.position):
        raise StartNotGeneric("state position lies on the forbidden locus")
    frames = [(affine_identity(lat.n), affine_identity(lat.n))]
    for c in state.stack:
        _push_frame(lat, frames, c)
    if frames[-1][0] != state.theta:
        raise StartNotGeneric("state theta is not the shadow of its stack")
    framed_omega = frames[-1][1].apply_linear(state.position.omega)
    if not all(x > 0 for x in framed_omega):
        raise StartNotGeneric("framed omega of the state is not strictly ample")
    return frames


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
    frames = _validate_state(start)
    pts = [p if isinstance(p, ComplexDivisor) else ComplexDivisor(*p) for p in path]
    if len(pts) < 1:
        raise StartNotGeneric("empty path")
    if pts[0] != start.position:
        raise StartNotGeneric("path does not start at the state position")
    for p in pts[1:]:  # pts[0] is the state position, checked above
        if p.n != lat.n:
            raise PathHitsForbidden("breakpoint size differs from lattice rank")
        if not in_complement(lat, p):
            raise PathHitsForbidden(f"breakpoint {p} lies on the forbidden locus")

    stack: List[Crossing] = list(start.stack)
    trace: List[TraceEvent] = list(start.trace)
    max_events = len(lat.positive_roots()) + 1

    for seg in range(len(pts) - 1):
        p0, p1 = pts[seg], pts[seg + 1]
        if p0 == p1:
            continue
        dbeta = vsub(p1.beta, p0.beta)
        domega = vsub(p1.omega, p0.omega)
        t = Fraction(0)
        for _ in range(max_events):
            th_inv = frames[-1][1]
            # framed omega along the segment is a0 + s b, coordinatewise
            a0 = th_inv.apply_linear(p0.omega)
            b = th_inv.apply_linear(domega)
            for j in range(lat.n):
                if b[j] == 0 and a0[j] == 0:
                    raise NonGenericCrossing(
                        f"segment {seg} runs inside the wall of curve {j + 1}")
            hits = []
            for j in range(lat.n):
                if b[j] != 0:
                    s = -Fraction(a0[j]) / Fraction(b[j])
                    if t < s <= 1:
                        hits.append((s, j + 1))
            if not hits:
                break
            s_min = min(h[0] for h in hits)
            at_min = [h for h in hits if h[0] == s_min]
            if len(at_min) > 1:
                walls = sorted(h[1] for h in at_min)
                raise NonGenericCrossing(
                    f"segment {seg} meets walls {walls} at the same instant")
            if s_min == 1:
                raise NonGenericCrossing(
                    f"breakpoint after segment {seg} lies on a wall")
            s, i = at_min[0]
            pos = ComplexDivisor(vadd(p0.beta, vscale(s, dbeta)),
                                 vadd(p0.omega, vscale(s, domega)))
            framed = ComplexDivisor(th_inv.apply(pos.beta),
                                    th_inv.apply_linear(pos.omega))
            fb = framed.beta[i - 1]
            if fb.denominator == 1:
                raise PathHitsForbidden(
                    f"crossing of curve {i} at framed offset {fb}, an integer")
            k = strip_index(fb)
            if stack and stack[-1].curve == i and k == 1:
                stack.pop()
                frames.pop()
                trace.append(TraceEvent(seg, s, i, k, "pop", pos, framed))
            else:
                stack.append(Crossing(i, k))
                _push_frame(lat, frames, stack[-1])
                trace.append(TraceEvent(seg, s, i, k, "push", pos, framed))
            t = s
        else:
            raise AssertionError("event scan failed to terminate")
        # segment end must be strictly inside the current chamber
        end_framed = frames[-1][1].apply_linear(p1.omega)
        if any(x == 0 for x in end_framed):
            raise NonGenericCrossing(
                f"breakpoint after segment {seg} lies on a wall")

    return LiftState(lat, start.base, pts[-1], tuple(stack), frames[-1][0], tuple(trace))


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
    floor = None
    for r in lat.positive_roots():
        v = r.coords
        if v[i - 1] <= 0 or not any(v[j] for j in range(lat.n) if j != i - 1):
            continue
        rest = sum(omega[j] * v[j] for j in range(lat.n) if j != i - 1)
        crossing = -Fraction(rest, v[i - 1])
        if floor is None or crossing > floor:
            floor = crossing
    if floor is None:
        return Fraction(omega[i - 1])
    return min(Fraction(omega[i - 1]), -floor / 2)


def meridian_waypoints(lat: RootLattice, i: int, k: int,
                       base: Optional[ComplexDivisor] = None) -> List[ComplexDivisor]:
    """Rectangle looping once around the wall puncture (i, k).

    Moves only the i-th coordinate pair: right to beta offset k + 1/2,
    down below the wall, left to offset k - 1/2, and back up to the
    base.  The descent depth stays above the walls of every other root
    so only the i-th wall is crossed.
    """
    if not (1 <= i <= lat.n):
        raise IndexOutOfRange(f"curve index {i} not in 1..{lat.n}")
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

    The loop is a rectangle in the i-th coordinate pair: it crosses the
    wall downward through strip k + 1, passes under the puncture at
    beta offset k, and comes back up through strip k.  The end word is
    normalized by a right twist into the subgroup acting trivially on
    divisor coordinates; right twists do not move chambers.
    """
    waypoints = meridian_waypoints(lat, i, k, base)
    end = lift_path(lat, waypoints, _fundamental_start(lat, waypoints[0]))
    if len(end.stack) != 2 or not end.theta.is_translation:
        raise NotEncirclable(
            f"rectangle around ({i}, {k}) did not close into a pure twist")
    u = stack_word(lat, end.stack)
    offset = end.theta.trans
    if any(offset):
        u = compose(u, word((Twist(tuple(-x for x in offset)),)))
    return DeckElement(u, end.stack)


EQUAL = "equal"
DISTINCT = "distinct"
THETA_EQUAL_WORD_DISTINCT = "theta_equal_word_distinct"


def same_chamber(a: LiftState, b: LiftState) -> str:
    """Compare the chambers of two lift states over the same base.

    Identical reduced stacks mean the same chamber.  Distinct stacks
    with distinct frames mean distinct chambers.  Distinct stacks with
    equal frames are genuinely distinct only when the base fundamental
    group is free, which holds at rank one; otherwise the honest answer
    is the three-valued verdict.
    """
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise BaseMismatch("states live over different lattices")
    if a.base != b.base:
        raise BaseMismatch("states are based at different points")
    if a.stack == b.stack:
        return EQUAL
    if a.lattice.n == 1:
        return DISTINCT
    if a.theta != b.theta:
        return DISTINCT
    return THETA_EQUAL_WORD_DISTINCT


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

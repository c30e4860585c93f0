"""Path lifting and deck bookkeeping for the chamber covering.

A lift state tracks a point moving through the parameter space together
with the chamber of the covering containing its lift.  The chamber is
recorded as a reduced stack of wall crossings relative to the starting
chamber, and the frame map theta is the affine shadow of the stack read
as a word of crossing generators.  Framing the moving point through
theta keeps its omega strictly positive between crossings, so crossings
are exactly the sign changes of framed simple coordinates, found by
solving linear equations in the segment parameter, with no rounding.
The scans run on integer numerators: each segment's start omega and its
direction are put over one common denominator and framed once, and a
crossing time is one fraction of two framed numerators; only the event
points themselves are built as fractions.

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
sparse coreflection: theta(gamma_(i, k))^-1 d = s_i (d - k e_i).  The
segment's framed omega numerators follow the stack the same way: s_i is
an involution, so a push and a pop at curve i both coreflect them once.
theta itself is built only by stack_theta, for the start check and the
end state, as a Weyl element plus a translation.  Its Weyl element is
the Weyl chamber of the framed omega, and same_chamber compares chambers
through it.

A meridian's stack is known in closed form, so meridian lifts nothing;
the rectangle it stands for is still drawn by meridian_waypoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .charge import ComplexDivisor, strip_index
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
    theta,
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


def _unframe(lat: RootLattice, stack: Sequence[Crossing], d: tuple, den: int = 0) -> tuple:
    """Numerators d over den run through theta^-1 of the stack.

    One sparse step per crossing, first crossing first:
    theta(gamma_(i, k))^-1 d = s_i (d - k den e_i).  With den = 0 only
    the linear part acts.
    """
    for c in stack:
        if den and c.strip:
            d = tuple(x - c.strip * den if j == c.curve - 1 else x for j, x in enumerate(d))
        d = lat.coreflect(c.curve, d)
    return d


def _numerators(v0: tuple, v1: tuple) -> Tuple[tuple, tuple, int]:
    """Integer numerators of v0 and of v1 - v0 over one positive denominator."""
    nums, d = common_denominator(v0 + v1)
    n = len(v0)
    return nums[:n], tuple(b - a for a, b in zip(nums, nums[n:])), d


def _along(x0: Sequence[int], dx: Sequence[int], d: int, s: Fraction) -> tuple:
    """(x0 + s dx) / d, coordinatewise, from integer numerators."""
    p, q = s.numerator, s.denominator
    return tuple(Fraction(a * q + p * b, d * q) for a, b in zip(x0, dx))


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
            raise PathHitsForbidden(f"breakpoint {p} lies on the forbidden locus")

    stack: List[Crossing] = list(start.stack)
    trace: List[TraceEvent] = list(start.trace)
    max_events = lat.positive_root_count + 1

    for seg in range(len(pts) - 1):
        p0, p1 = pts[seg], pts[seg + 1]
        if p0 == p1:
            continue
        # start and direction over one denominator, omega's then framed by
        # the stack: the framed omega at time s is (fw0 + s fdw) / wd
        b0, db, bd = _numerators(p0.beta, p1.beta)
        w0, dw, wd = _numerators(p0.omega, p1.omega)
        fw0, fdw = (_unframe(lat, stack, x) for x in (w0, dw))
        t = Fraction(0)
        for _ in range(max_events):
            hits = []
            for j, (a, b) in enumerate(zip(fw0, fdw)):
                if a == 0 and b == 0:
                    raise NonGenericCrossing(
                        f"segment {seg} runs inside the wall of curve {j + 1}")
                # coordinate j vanishes at s = -a / b, wanted in (t, 1]
                if a * b < 0 and abs(a) <= abs(b):
                    s = Fraction(-a, b)
                    if s > t:
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
            pos = ComplexDivisor(_along(b0, db, bd, s), _along(w0, dw, wd, s))
            nb, d = common_denominator(pos.beta)
            framed = ComplexDivisor(tuple(Fraction(x, d) for x in _unframe(lat, stack, nb, d)),
                                    _along(fw0, fdw, wd, s))
            fb = framed.beta[i - 1]
            if fb.denominator == 1:
                raise PathHitsForbidden(
                    f"crossing of curve {i} at framed offset {fb}, an integer")
            k = strip_index(fb)
            if stack and stack[-1].curve == i and k == 1:
                stack.pop()
                trace.append(TraceEvent(seg, s, i, k, "pop", pos, framed))
            else:
                stack.append(Crossing(i, k))
                trace.append(TraceEvent(seg, s, i, k, "push", pos, framed))
            fw0, fdw = lat.coreflect(i, fw0), lat.coreflect(i, fdw)
            t = s
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

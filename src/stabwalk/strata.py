"""Stratification of the stability parameter space of a curve tree.

A parameter is a pair (beta, omega) of divisor coordinate vectors.  The
forbidden locus consists of points where some root v has omega . v = 0
and beta . v integral.  Away from it, omega either misses every
reflection wall (an open chamber, labeled by the reflection group
element framing it) or lies on walls; framing the point into the closed
fundamental cone turns vanishing pairings into simple coordinates and
reads off one strip integer per vanishing coordinate.

A point query is one descent on integer numerators.  omega is walked
into the closed fundamental cone, omega = w omega_+ with omega_+
dominant.  A positive root pairs to zero with omega_+ exactly when it is
supported on the set J of vanishing coordinates: the stabilizer of
omega_+ is the parabolic subgroup of J (Steinberg; Humphreys, Reflection
Groups and Coxeter Groups, 1.12).  So the roots vanishing on omega are
w(Phi_J), and since beta . w(u) = (w^-1 beta) . u, the forbidden test
and the strips read beta's numerators framed through the same word, on
the positive roots of Phi_J alone; an empty J leaves nothing to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .charge import ComplexDivisor, strip_index
from .errors import DimensionMismatch, OnWall
from .lattice import Root, RootLattice, WeylElement
from .linalg import IntVec, common_denominator, to_vec, vdot


@dataclass(frozen=True)
class AmpleChamber:
    """omega is regular; weyl maps the fundamental cone onto its chamber."""

    weyl: WeylElement

    kind = "ample_chamber"


@dataclass(frozen=True)
class WallStrip:
    """Exactly one framed simple pairing vanishes; strip counts beta there."""

    curve: int
    strip: int
    frame: WeylElement

    kind = "wall_strip"


@dataclass(frozen=True)
class DeepStratum:
    """Two or more framed simple pairings vanish at once."""

    vanishing: Tuple[int, ...]
    strips: Tuple[Tuple[int, int], ...]
    frame: WeylElement

    kind = "deep_stratum"


@dataclass(frozen=True)
class Forbidden:
    """The point lies on the integral hyperplane of the given root."""

    root: Root
    level: int

    kind = "forbidden"


StratumLabel = AmpleChamber | WallStrip | DeepStratum | Forbidden


def _descend_to_dominant(lat: RootLattice, o: IntVec) -> Tuple[WeylElement, IntVec]:
    """Walk the integer numerators o of omega into the closed fundamental cone.

    Returns the frame and the framed numerators.  Each step coreflects
    at the first negative coordinate and removes one inversion, so the
    frame is the minimal one and vanishing coordinates are never touched;
    the word loop carries the frame's key w^-1 rho through the same steps.
    """
    o, word = list(o), []

    def letters():
        for _ in range(lat.positive_root_count + 1):
            for i, x in enumerate(o, 1):
                if x < 0:
                    break
            else:
                return
            word.append(i)
            yield i
        raise AssertionError("descent walk failed to terminate")

    key = lat._coreflect_word(letters(), (1,) * lat.n, o)
    return WeylElement(lat, tuple(word), key), tuple(o)


def _forbidden_root(lat: RootLattice, frame: WeylElement, vanishing: Tuple[int, ...],
                    fb: IntVec, d: int) -> Optional[Tuple[Root, int]]:
    """Least frame(u), u in Phi_J+, with fb . u / d integral (a minimal frame keeps it > 0)."""
    best = None
    for u in lat._positive_roots_on(vanishing):
        level, rem = divmod(vdot(fb, u.coords), d)
        if rem == 0:
            v = u.coords
            for i in reversed(frame.word):
                v = lat.reflect(i, v)
            if best is None or v < best[0]:
                best = (v, level)
    return None if best is None else (Root(best[0]), best[1])


def in_complement(lat: RootLattice, p: ComplexDivisor) -> bool:
    """True when no root has omega . v = 0 together with beta . v integral."""
    if p.n != lat.n:
        raise DimensionMismatch("parameter size differs from lattice rank")
    # a strictly positive omega needs no descent; a Fraction has its numerator's sign
    return all(x.numerator > 0 for x in p.omega) or not isinstance(classify(lat, p), Forbidden)


def locate_weyl_chamber(lat: RootLattice, omega: Sequence):
    """Frame a regular omega: the unique (w, dominant representative).

    The dual action of w carries the representative back to omega.
    Raises OnWall when omega pairs to zero with some root.
    """
    o = to_vec(omega)
    if len(o) != lat.n:
        raise DimensionMismatch("omega size differs from lattice rank")
    # at beta = 0 every wall through omega is forbidden
    label = classify(lat, ComplexDivisor((0,) * lat.n, o))
    if isinstance(label, Forbidden):
        raise OnWall(f"omega pairs to zero with root {label.root.coords}")
    return label.weyl, label.weyl.apply_dual_inverse(o)


def classify(lat: RootLattice, p: ComplexDivisor) -> StratumLabel:
    """Stratum label of a parameter point.

    omega is framed first; no vanishing framed coordinate gives an open
    chamber.  Otherwise beta is framed through the same word, a forbidden
    point is reported with the offending root, and the rest get a wall
    strip or a deep stratum, with one strip integer per vanishing curve.
    """
    if p.n != lat.n:
        raise DimensionMismatch("parameter size differs from lattice rank")
    frame, fo = _descend_to_dominant(lat, common_denominator(p.omega)[0])
    vanishing = tuple(j + 1 for j, x in enumerate(fo) if x == 0)
    if not vanishing:
        return AmpleChamber(frame)
    bn, d = common_denominator(p.beta)
    fb = frame.apply_dual_inverse(bn)
    forbidden = _forbidden_root(lat, frame, vanishing, fb, d)
    if forbidden is not None:
        return Forbidden(*forbidden)
    # e_i is in Phi_J, so fb_i / d is no integer here
    strips = tuple((i, strip_index(Fraction(fb[i - 1], d))) for i in vanishing)
    if len(vanishing) == 1:
        return WallStrip(vanishing[0], strips[0][1], frame)
    return DeepStratum(vanishing, strips, frame)

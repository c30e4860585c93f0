"""Stratification of the stability parameter space of a curve tree.

A parameter is a pair (beta, omega) of divisor coordinate vectors.  The
forbidden locus consists of points where some root v has omega . v = 0
and beta . v integral.  Away from it, omega either misses every
reflection wall (an open chamber, labeled by the reflection group
element framing it) or lies on walls; framing the point into the closed
fundamental cone turns vanishing pairings into simple coordinates and
reads off one strip integer per vanishing coordinate.

The forbidden test scans the positive roots on integer numerators: beta
and omega are each put over one common denominator, so omega . v = 0 is
an integer dot product and the level of beta . v is one divmod by
beta's denominator.  The descent into the fundamental cone also walks
omega's integer numerators, one sparse coreflection per step, and frames
beta's numerators through the resulting word, as frame_point does, only
when some coordinate vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .charge import ComplexDivisor, _frame_vec, strip_index
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


def _forbidden_root(lat: RootLattice, p: ComplexDivisor) -> Optional[Tuple[Root, int]]:
    """First positive root with omega . v = 0 and beta . v integral, with that level.

    A strictly positive omega pairs strictly positively with every
    positive root, so it needs no scan.
    """
    on, _ = common_denominator(p.omega)
    if all(x > 0 for x in on):
        return None
    bn, bd = common_denominator(p.beta)
    for r in lat.positive_roots():
        if vdot(on, r.coords) == 0:
            level, rem = divmod(vdot(bn, r.coords), bd)
            if rem == 0:
                return r, level
    return None


def in_complement(lat: RootLattice, p: ComplexDivisor) -> bool:
    """True when no root has omega . v = 0 together with beta . v integral."""
    if p.n != lat.n:
        raise DimensionMismatch("parameter size differs from lattice rank")
    return _forbidden_root(lat, p) is None


def _descend_to_dominant(lat: RootLattice, o: IntVec):
    """Walk the integer numerators o of omega into the closed fundamental cone.

    Returns the frame and the framed numerators.  Repeatedly coreflects
    at a simple root pairing strictly negatively with omega.  Each step
    removes exactly one inversion, so the walk stops after at most the
    number of positive roots, and the resulting frame is the minimal one;
    coordinates that vanish are never touched.
    """
    word = []
    for _ in range(len(lat.positive_roots()) + 1):
        i = next((j + 1 for j, x in enumerate(o) if x < 0), None)
        if i is None:
            return lat.weyl_from_word(word), o
        o = lat.coreflect(i, o)
        word.append(i)
    raise AssertionError("descent walk failed to terminate")


def locate_weyl_chamber(lat: RootLattice, omega: Sequence):
    """Frame a regular omega: the unique (w, dominant representative).

    The dual action of w carries the representative back to omega.
    Raises OnWall when omega pairs to zero with some root.
    """
    o = to_vec(omega)
    if len(o) != lat.n:
        raise DimensionMismatch("omega size differs from lattice rank")
    # at beta = 0 every wall through omega is forbidden
    on_wall = _forbidden_root(lat, ComplexDivisor((0,) * lat.n, o))
    if on_wall is not None:
        raise OnWall(f"omega pairs to zero with root {on_wall[0].coords}")
    on, od = common_denominator(o)
    w, dom = _descend_to_dominant(lat, on)
    return w, tuple(Fraction(x, od) for x in dom)


def classify(lat: RootLattice, p: ComplexDivisor) -> StratumLabel:
    """Stratum label of a parameter point.

    Forbidden points are reported first, with the offending root.  For
    the rest omega is framed into the closed fundamental cone; no
    vanishing framed coordinate gives an open chamber, one gives a wall
    strip, several give a deep stratum with one strip integer each, read
    off beta framed through the same word.
    """
    if p.n != lat.n:
        raise DimensionMismatch("parameter size differs from lattice rank")
    forbidden = _forbidden_root(lat, p)
    if forbidden is not None:
        return Forbidden(*forbidden)
    frame, fo = _descend_to_dominant(lat, common_denominator(p.omega)[0])
    vanishing = tuple(j + 1 for j, x in enumerate(fo) if x == 0)
    if not vanishing:
        return AmpleChamber(frame)
    fb = _frame_vec(frame, p.beta)
    strips = tuple((i, strip_index(fb[i - 1])) for i in vanishing)
    if len(vanishing) == 1:
        return WallStrip(vanishing[0], strips[0][1], frame)
    return DeepStratum(vanishing, strips, frame)

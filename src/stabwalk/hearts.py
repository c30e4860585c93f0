"""Candidate hearts attached to strata, described by generator classes.

Every heart in the catalog is presented by the same template: the point
class, one curve family per curve not pinned to a wall, and for each
pinned curve i with strip integer k the rigid pair given by the degree
k - 2 bundle shifted by one and the degree k - 1 bundle.  The empty
pinned set recovers coherent sheaves supported on the tree; pinning a
single curve gives the wall tilt; pinning every curve at strips 0 or 1
gives the two perverse hearts of the full contraction.

A heart also records the reflection frame it was located through, so
its stability check can be evaluated at points far from the fundamental
cone.  The check frames the integer numerators of beta and omega through
the frame's word once and sums every generator's charge on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .charge import (
    ComplexDivisor,
    ExactComplex,
    KClass,
    _charge,
    curve_class,
    line_bundle_class,
    point_class,
)
from .errors import ForbiddenStratum, IndexOutOfRange
from .lattice import RootLattice, WeylElement
from .linalg import common_denominator
from .strata import AmpleChamber, DeepStratum, Forbidden, StratumLabel, WallStrip

RIGID = "rigid"
FAMILY = "curve_family"


@dataclass(frozen=True)
class HeartDescriptor:
    n: int
    kind: str
    strips: Tuple[Tuple[int, int], ...]
    frame: WeylElement

    @property
    def pinned(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.strips)


def _identity_frame(lat: RootLattice, frame: Optional[WeylElement]) -> WeylElement:
    return frame if frame is not None else lat.weyl_identity()


def _int_datum(name: str, x) -> int:
    # bool is an int subclass, and int() would truncate a float silently
    if type(x) is not int:
        raise IndexOutOfRange(f"{name} must be an integer, got {x!r}")
    return x


def coherent_heart(lat: RootLattice, frame: Optional[WeylElement] = None) -> HeartDescriptor:
    return HeartDescriptor(lat.n, "coherent", (), _identity_frame(lat, frame))


def tilted_heart(lat: RootLattice, i: int, k: int,
                 frame: Optional[WeylElement] = None) -> HeartDescriptor:
    if not (1 <= _int_datum("curve index", i) <= lat.n):
        raise IndexOutOfRange(f"curve index {i} not in 1..{lat.n}")
    return HeartDescriptor(lat.n, "tilted", ((i, _int_datum(f"strip of curve {i}", k)),),
                           _identity_frame(lat, frame))


def partial_perverse_heart(lat: RootLattice, strips, frame: Optional[WeylElement] = None,
                           kind: str = "partial_perverse") -> HeartDescriptor:
    pairs = tuple(sorted((_int_datum("curve index", i), _int_datum(f"strip of curve {i}", k))
                         for i, k in strips))
    for i, _ in pairs:
        if not (1 <= i <= lat.n):
            raise IndexOutOfRange(f"curve index {i} not in 1..{lat.n}")
    if len({i for i, _ in pairs}) != len(pairs):
        raise IndexOutOfRange("repeated curve index in strips")
    return HeartDescriptor(lat.n, kind, pairs, _identity_frame(lat, frame))


def perverse_heart(lat: RootLattice, perversity: int) -> HeartDescriptor:
    """Heart of the full contraction at perversity 0 or -1.

    Perversity 0 pins every curve at strip 0, perversity -1 at strip 1.
    """
    if perversity == 0:
        strip = 0
        kind = "perverse_0"
    elif perversity == -1:
        strip = 1
        kind = "perverse_minus_1"
    else:
        raise IndexOutOfRange(f"perversity {perversity} not in {{0, -1}}")
    return partial_perverse_heart(lat, [(i, strip) for i in range(1, lat.n + 1)],
                                  kind=kind)


def heart_for_stratum(lat: RootLattice, label: StratumLabel) -> HeartDescriptor:
    """Catalog heart attached to a stratum label."""
    if isinstance(label, Forbidden):
        raise ForbiddenStratum("no heart is attached to the forbidden locus")
    if isinstance(label, AmpleChamber):
        return coherent_heart(lat, label.weyl)
    if isinstance(label, WallStrip):
        return tilted_heart(lat, label.curve, label.strip, label.frame)
    if isinstance(label, DeepStratum):
        return partial_perverse_heart(lat, label.strips, label.frame)
    raise TypeError(f"not a stratum label: {label!r}")


def generators(h: HeartDescriptor) -> Tuple[Tuple[KClass, str], ...]:
    """Generator classes of a heart with their rigidity tags.

    Curve families need charges of positive imaginary part; rigid
    generators need charges on the negative real axis.
    """
    pinned = set(h.pinned)
    gens = [(point_class(h.n), RIGID)]
    for j in range(1, h.n + 1):
        if j not in pinned:
            gens.append((curve_class(h.n, j), FAMILY))
    for i, k in h.strips:
        gens.append((-line_bundle_class(h.n, i, k - 2), RIGID))
        gens.append((line_bundle_class(h.n, i, k - 1), RIGID))
    return tuple(gens)


@dataclass(frozen=True)
class StabilityEntry:
    kclass: KClass
    tag: str
    charge: ExactComplex
    ok: bool


@dataclass(frozen=True)
class StabilityReport:
    passed: bool
    entries: Tuple[StabilityEntry, ...]


def stability_check(h: HeartDescriptor, p: ComplexDivisor) -> StabilityReport:
    """Evaluate the charge of every generator at p, framed through h.

    A failing generator is recorded, not raised; callers inspect the
    report.
    """
    bn, bd = common_denominator(p.beta)
    on, od = common_denominator(p.omega)
    fb, fo = h.frame.apply_dual_inverse(bn), h.frame.apply_dual_inverse(on)
    entries = []
    for c, tag in generators(h):
        z = _charge(fb, bd, fo, od, c)
        if tag == FAMILY:
            ok = z.im > 0
        else:
            ok = z.im == 0 and z.re < 0
        entries.append(StabilityEntry(c, tag, z, ok))
    return StabilityReport(all(e.ok for e in entries), tuple(entries))


def perverse_simples(lat: RootLattice, perversity: int) -> Tuple[KClass, ...]:
    """Classes of the simple objects of the two perverse hearts.

    At perversity 0 these are the shifted dualizing sheaf of the whole
    fiber, (1, (-1, ..., -1)), and the basis classes; at perversity -1
    the fiber structure sheaf (1, (1, ..., 1)) and the negated basis
    classes.  In both cases they sum to the point class.
    """
    n = lat.n
    if perversity == 0:
        return (KClass(1, (-1,) * n),) + tuple(curve_class(n, i) for i in range(1, n + 1))
    if perversity == -1:
        return (KClass(1, (1,) * n),) + tuple(-curve_class(n, i) for i in range(1, n + 1))
    raise IndexOutOfRange(f"perversity {perversity} not in {{0, -1}}")

"""Exception taxonomy shared by all stabwalk modules."""

from __future__ import annotations


class StabwalkError(Exception):
    """Base class for every domain error raised by this package."""


class NotATree(StabwalkError):
    """The dual graph is not a finite tree."""


class NotNegativeDefinite(StabwalkError):
    """The intersection form of the curve tree is not negative definite."""


class DimensionMismatch(StabwalkError):
    """Vector or matrix sizes do not match the lattice rank."""


class CapExceeded(StabwalkError):
    """Group enumeration exceeded the caller-supplied element cap."""


class IndexOutOfRange(StabwalkError):
    """A curve index or perversity value is outside its allowed range."""


class OutOfSector(StabwalkError):
    """A charge value lies outside the closed upper sector used for phases."""


class OnWall(StabwalkError):
    """A chamber location was requested for a vector lying on a reflection wall."""


class ForbiddenStratum(StabwalkError):
    """No heart is attached to points of the forbidden locus."""


class PathHitsForbidden(StabwalkError):
    """A path meets the forbidden locus, at a breakpoint or at a wall crossing."""


class NonGenericCrossing(StabwalkError):
    """A path crosses walls non-transversally or hits several at once."""


class StartNotGeneric(StabwalkError):
    """A lift was started from an invalid state or off the path's first point."""


class BaseMismatch(StabwalkError):
    """Two lift states based at different starting data were compared."""


class UnsupportedSlice(StabwalkError):
    """The requested plot slice is not a valid two-dimensional projection."""

"""Free words in twist and flop generators with their affine shadow.

Words are stored as written, leftmost letter applied last.  Nothing is
simplified: two words are compared letter by letter, through their
affine shadow on divisor coordinates, or through chamber bookkeeping in
the covering module; the three comparisons are deliberately kept apart.

The shadow homomorphism sends a twist by the divisor L to the
translation by L and the flop at curve i to the dual reflection there,
with zero translation part, a normalization pinned down by boundary
matching of adjacent chambers.  Flops are involutions and a twist is
undone by the opposite twist, so the shadow of the inverted word is the
inverse of the shadow; that is how every inverse in the package is
taken.  The shadow is a Weyl element, the product of the word's flops,
plus a translation that runs each twist through the flops to its left,
one sparse coreflection each; no matrix is built unless one is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from .errors import DimensionMismatch
from .lattice import RootLattice, WeylElement
from .linalg import IntMat, IntVec, vadd, vneg


@dataclass(frozen=True)
class Twist:
    """Tensoring by the line bundle with the given divisor exponents."""

    divisor: IntVec

    def __post_init__(self):
        object.__setattr__(self, "divisor", tuple(int(x) for x in self.divisor))


@dataclass(frozen=True)
class Flop:
    """The flop functor at one curve of the tree."""

    curve: int


Generator = Union[Twist, Flop]


@dataclass(frozen=True)
class FMWord:
    gens: Tuple[Generator, ...]

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))

    def __len__(self) -> int:
        return len(self.gens)


def word(gens: Iterable[Generator]) -> FMWord:
    return FMWord(tuple(gens))


def compose(u: FMWord, v: FMWord) -> FMWord:
    """Concatenation u then v, so v is applied first."""
    return FMWord(u.gens + v.gens)


def invert(u: FMWord) -> FMWord:
    out = []
    for g in reversed(u.gens):
        if isinstance(g, Twist):
            out.append(Twist(vneg(g.divisor)))
        else:
            out.append(g)
    return FMWord(tuple(out))


@dataclass(frozen=True)
class AffineMap:
    """Integral affine map d -> w d + trans on divisor coordinates.

    w is a Weyl element acting through its dual action, one sparse step
    per letter; composing two maps concatenates their words.
    """

    weyl: WeylElement
    trans: IntVec

    def __post_init__(self):
        object.__setattr__(self, "trans", tuple(self.trans))

    @property
    def linear(self) -> IntMat:
        """The linear part as a dense matrix, built on demand for output."""
        return self.weyl.dual_mat

    @property
    def is_identity(self) -> bool:
        return self.weyl.is_identity and not any(self.trans)

    @property
    def is_translation(self) -> bool:
        return self.weyl.is_identity

    def apply(self, d):
        return vadd(self.weyl.apply_dual(d), self.trans)

    def compose(self, other: "AffineMap") -> "AffineMap":
        return AffineMap(self.weyl.compose(other.weyl),
                         vadd(self.trans, self.weyl.apply_dual(other.trans)))


def affine_identity(lat: RootLattice) -> AffineMap:
    return AffineMap(lat.weyl_identity(), (0,) * lat.n)


def theta(lat: RootLattice, u: FMWord) -> AffineMap:
    """Affine shadow of a word on divisor coordinates.

    The Weyl element is the product of the word's flops.  Reading the
    word from the right carries each twist through the flops to its left.
    """
    flops, trans = [], (0,) * lat.n
    for g in reversed(u.gens):
        if isinstance(g, Twist):
            if len(g.divisor) != lat.n:
                raise DimensionMismatch("twist divisor size differs from rank")
            trans = vadd(trans, g.divisor)
        elif isinstance(g, Flop):
            trans = lat.coreflect(g.curve, trans)
            flops.append(g.curve)
        else:
            raise TypeError(f"not a generator: {g!r}")
    return AffineMap(lat.weyl_from_word(reversed(flops)), trans)


def model_of(lat: RootLattice, u: FMWord) -> WeylElement:
    """Reflection group element underlying the word's shadow.

    Twists only translate, so it is the product of the word's flops.
    """
    return lat.weyl_from_word([g.curve for g in u.gens if isinstance(g, Flop)])


def is_in_g(lat: RootLattice, u: FMWord) -> bool:
    """Words whose underlying model is the original one."""
    return theta(lat, u).is_translation


def is_in_g0(lat: RootLattice, u: FMWord) -> bool:
    """Words whose shadow fixes every divisor coordinate."""
    return theta(lat, u).is_identity

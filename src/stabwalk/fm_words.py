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
taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from .errors import DimensionMismatch
from .lattice import RootLattice, WeylElement
from .linalg import (
    IntMat,
    IntVec,
    identity_mat,
    mat_mul,
    mat_vec,
    vadd,
    vneg,
)


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
    """Integral affine map d -> linear d + trans on divisor coordinates."""

    linear: IntMat
    trans: IntVec

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(tuple(r) for r in self.linear))
        object.__setattr__(self, "trans", tuple(self.trans))

    @property
    def n(self) -> int:
        return len(self.trans)

    @property
    def is_identity(self) -> bool:
        return self.linear == identity_mat(self.n) and not any(self.trans)

    @property
    def is_translation(self) -> bool:
        return self.linear == identity_mat(self.n)

    def apply(self, d):
        return vadd(mat_vec(self.linear, d), self.trans)

    def apply_linear(self, d):
        return mat_vec(self.linear, d)

    def compose(self, other: "AffineMap") -> "AffineMap":
        if self.n != other.n:
            raise DimensionMismatch("composing maps of different rank")
        return AffineMap(mat_mul(self.linear, other.linear),
                         vadd(self.trans, mat_vec(self.linear, other.trans)))


def affine_identity(n: int) -> AffineMap:
    return AffineMap(identity_mat(n), (0,) * n)


def theta(lat: RootLattice, u: FMWord) -> AffineMap:
    """Affine shadow of a word on divisor coordinates."""
    acc = affine_identity(lat.n)
    for g in u.gens:
        if isinstance(g, Twist):
            if len(g.divisor) != lat.n:
                raise DimensionMismatch("twist divisor size differs from rank")
            step = AffineMap(identity_mat(lat.n), g.divisor)
        elif isinstance(g, Flop):
            step = AffineMap(lat.generator(g.curve).dual_mat, (0,) * lat.n)
        else:
            raise TypeError(f"not a generator: {g!r}")
        acc = acc.compose(step)
    return acc


def ch1_structure(lat: RootLattice, u: FMWord) -> IntVec:
    """Accumulated divisor offset of the word, the translation part."""
    return theta(lat, u).trans


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

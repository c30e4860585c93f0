"""Curve lattice of a contracted tree of rational curves.

The lattice is generated by the curve classes e_1..e_N of the tree.  Its
pairing has (e_i, e_i) = -2 and (e_i, e_j) = 1 exactly when the curves
meet, and must be negative definite for the tree to come from an actual
contraction.  Dual coordinates live in the divisor basis D_1..D_N with
D_i . e_j given by the Kronecker delta, not by the gram form.  The tree
is the one datum: it is negative definite exactly when it is a Dynkin
diagram of type A, D or E (Bourbaki, Lie Groups VI 4), so its shape
gives the type, and the type gives |Phi+| and |W| in closed form.
Positive roots, of the whole system or of a parabolic subsystem, are
built by height from the simple roots.

The simple reflection s_i is one sparse step on either side, reflect on
curve classes and coreflect on divisor coordinates, each touching curve
i and its tree neighbours only.  A Weyl element is its word in simple
reflections; every action and the group enumeration run on those two
steps, and matrices are built from the word on demand.  On divisor
coordinates there is one word loop, which updates lists in place letter
by letter; coreflect is that loop on a one-letter word.  Callers that
frame a point feed it integer numerators over one common denominator
and divide once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Tuple

from .errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NotATree,
    NotNegativeDefinite,
)
from .linalg import IntMat, IntVec, identity_mat, mat_vec, transpose, vdot

WEYL_CAP_DEFAULT = 100_000
# |Phi+| and |W| of each type (Humphreys, Reflection Groups and Coxeter Groups 2.11)
_COUNTS = {
    "A": lambda n: (n * (n + 1) // 2, math.factorial(n + 1)),
    "D": lambda n: (n * (n - 1), 2 ** (n - 1) * math.factorial(n)),
    "E": {6: (36, 51_840), 7: (63, 2_903_040), 8: (120, 696_729_600)}.get,
}


@dataclass(frozen=True)
class DualGraph:
    """Tree of exceptional curves, vertices numbered 1..n_curves."""

    n_curves: int
    edges: Tuple[Tuple[int, int], ...]


def build_graph(n_curves: int, edges: Iterable[Sequence[int]]) -> DualGraph:
    """Validate and normalize a dual graph; raises NotATree otherwise."""
    if not isinstance(n_curves, int) or n_curves < 1:
        raise NotATree(f"need at least one curve, got {n_curves!r}")
    norm = set()
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2 or not all(isinstance(v, int) for v in pair):
            raise NotATree(f"malformed edge {e!r}")
        i, j = pair
        if i == j or not (1 <= i <= n_curves) or not (1 <= j <= n_curves):
            raise NotATree(f"edge {e!r} out of range")
        key = (min(i, j), max(i, j))
        if key in norm:
            raise NotATree(f"duplicate edge {key}")
        norm.add(key)
    if len(norm) != n_curves - 1:
        raise NotATree("a tree on n vertices has exactly n-1 edges")
    # connectivity by union-find
    parent = list(range(n_curves + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in norm:
        parent[find(i)] = find(j)
    if len({find(v) for v in range(1, n_curves + 1)}) != 1:
        raise NotATree("graph is disconnected")
    return DualGraph(n_curves, tuple(sorted(norm)))


@dataclass(frozen=True)
class Root:
    """Integer class with self-pairing -2; coordinates share a single sign."""

    coords: IntVec


class WeylElement:
    """Reflection group element, stored as a word in simple reflections.

    The first letter is outermost, w = s_w1 s_w2 ..., on both sides.
    Every action runs the word through RootLattice.reflect or the divisor
    word loop, one sparse step per letter.  Equality compares the lattice
    and the key w^-1 rho with rho = (1, ..., 1) in divisor coordinates:
    only the identity fixes the regular rho, so within one lattice the
    key determines w.  Hashing uses the key alone.  mat and dual_mat are
    built from the word whenever they are asked for.
    """

    __slots__ = ("lattice", "word", "key")

    def __init__(self, lattice: "RootLattice", word: Tuple[int, ...], key: IntVec):
        self.lattice = lattice
        self.word = word
        self.key = key

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, WeylElement) and self.key == other.key
                and (self.lattice is other.lattice or self.lattice == other.lattice))

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word})"

    @property
    def is_identity(self) -> bool:
        return self.key == (1,) * self.lattice.n

    def apply_dual(self, d: Sequence) -> tuple:
        """Action on divisor coordinates: the last letter acts first."""
        return self.lattice._coreflect_word(reversed(self.word), d)

    def apply_dual_inverse(self, d: Sequence) -> tuple:
        """Inverse action on divisor coordinates: the first letter acts first."""
        return self.lattice._coreflect_word(self.word, d)

    @property
    def mat(self) -> IntMat:
        """Action on curve classes; column j is the image of e_j."""
        cols = []
        for x in identity_mat(self.lattice.n):
            for i in reversed(self.word):
                x = self.lattice.reflect(i, x)
            cols.append(x)
        return transpose(cols)

    @property
    def dual_mat(self) -> IntMat:
        """Action on divisor coordinates, the inverse transpose of mat."""
        return transpose([self.apply_dual(e) for e in identity_mat(self.lattice.n)])

    def compose(self, other: "WeylElement") -> "WeylElement":
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise DimensionMismatch("composing Weyl elements of different lattices")
        return WeylElement(self.lattice, self.word + other.word,
                           other.apply_dual_inverse(self.key))

    def inverse(self) -> "WeylElement":
        return self.lattice.weyl_from_word(self.word[::-1])


@dataclass(frozen=True)
class RootLattice:
    graph: DualGraph

    @cached_property
    def n(self) -> int:
        return self.graph.n_curves

    @cached_property
    def _neighbours(self) -> Tuple[Tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for i, j in self.graph.edges:
            nbrs[i - 1].append(j - 1)
            nbrs[j - 1].append(i - 1)
        return tuple(tuple(sorted(nb)) for nb in nbrs)

    @cached_property
    def gram(self) -> IntMat:
        return tuple(tuple(-2 if j == k else int(j in nb) for j in range(self.n))
                     for k, nb in enumerate(self._neighbours))

    # -- type and counts from the shape ------------------------------------------

    @cached_property
    def dynkin_type(self) -> Tuple[str, int]:
        """("A", n), ("D", n) or ("E", n), read off the tree in one walk.
        Any other tree raises NotNegativeDefinite, naming the curve at fault."""
        nbrs = self._neighbours
        branches = [k for k, nb in enumerate(nbrs) if len(nb) > 2]
        if not branches:
            return "A", self.n
        b = branches[0]
        if len(branches) > 1:
            fault = f"curves {b + 1} and {branches[1] + 1} both branch"
        elif len(nbrs[b]) > 3:
            fault = f"curve {b + 1} meets {len(nbrs[b])} curves"
        else:
            arms = []
            for k in nbrs[b]:  # walk each arm out to its leaf
                prev, length = b, 1
                while len(nbrs[k]) == 2:
                    prev, k = k, nbrs[k][0] + nbrs[k][1] - prev
                    length += 1
                arms.append(length)
            arms.sort()
            if arms[:2] == [1, 1] or (arms[:2] == [1, 2] and arms[2] <= 4):
                return ("D" if arms[1] == 1 else "E"), self.n
            fault = f"curve {b + 1} branches into arms of {arms[0]}, {arms[1]} and {arms[2]} curves"
        raise NotNegativeDefinite(
            f"{fault}; the negative definite trees are A_n, D_n, E6, E7 and E8")

    @cached_property
    def positive_root_count(self) -> int:
        return _COUNTS[self.dynkin_type[0]](self.n)[0]

    @cached_property
    def weyl_order(self) -> int:
        return _COUNTS[self.dynkin_type[0]](self.n)[1]

    # -- pairing and simple reflections ------------------------------------

    def _coords(self, v) -> tuple:
        c = v.coords if isinstance(v, Root) else tuple(v)
        if len(c) != self.n:
            raise DimensionMismatch(f"expected length {self.n}, got {len(c)}")
        return c

    def pairing(self, v, w):
        """Gram pairing of two curve-side vectors."""
        return vdot(self._coords(v), mat_vec(self.gram, self._coords(w)))

    def _index(self, i: int) -> int:
        if not (1 <= i <= self.n):
            raise IndexOutOfRange(f"curve index {i} not in 1..{self.n}")
        return i - 1

    def reflect(self, i: int, x: Sequence) -> tuple:
        """Simple reflection s_i of a curve class, x + (e_i, x) e_i:
        x_i -> -x_i + the sum of x_j over the tree neighbours j of curve i."""
        k = self._index(i)
        out = list(x)
        out[k] = sum(x[j] for j in self._neighbours[k]) - x[k]
        return tuple(out)

    def coreflect(self, i: int, d: Sequence) -> tuple:
        """Simple reflection s_i of divisor coordinates, adjoint to reflect."""
        return self._coreflect_word((i,), d)

    def _coreflect_word(self, word: Iterable[int], d: Sequence, *carried: list) -> tuple:
        """Run d through s_i once per letter i, first letter first, in place:
        d_i -> -d_i, then d_j += d_i for each tree neighbour j of curve i.
        Carried lists of the same length take the same steps in place, and a
        descent may pick each letter from a carried list as it stands."""
        out = list(d)
        neighbours = self._neighbours
        n = len(neighbours)
        if len(out) != n:
            raise DimensionMismatch(f"expected length {self.n}, got {len(out)}")
        vecs = (out, *carried)
        for i in word:
            if not 0 < i <= n:
                self._index(i)  # raises IndexOutOfRange
            k = i - 1
            nbrs = neighbours[k]
            for v in vecs:
                x = v[k]
                v[k] = -x
                for j in nbrs:
                    v[j] += x
        return tuple(out)

    # -- Weyl elements -------------------------------------------------------

    def weyl_identity(self) -> WeylElement:
        return self.weyl_from_word(())

    def weyl_from_word(self, word: Iterable[int]) -> WeylElement:
        """Product of simple reflections, first letter outermost on both sides."""
        word = tuple(word)
        return WeylElement(self, word, self._coreflect_word(word, (1,) * self.n))

    # -- enumeration --------------------------------------------------------

    @cached_property
    def _subsystems(self) -> dict:
        return {}

    def _positive_roots_on(self, curves: Tuple[int, ...]) -> Tuple[Root, ...]:
        """Positive roots supported on the given curves, sorted and cached per set:
        the positive roots of their subsystem, built by height from its simple roots."""
        if curves not in self._subsystems:
            nbrs, ks = self._neighbours, [self._index(i) for i in curves]
            found = layer = {tuple(int(j == k) for j in range(self.n)) for k in ks}
            while layer:  # v + e_k is a root exactly when (v, e_k) = 1
                layer = {v[:k] + (v[k] + 1,) + v[k + 1:] for v in layer for k in ks
                         if sum(v[j] for j in nbrs[k]) - 2 * v[k] == 1}
                found = found | layer
            self._subsystems[curves] = tuple(Root(v) for v in sorted(found))
        return self._subsystems[curves]

    def positive_roots(self) -> Tuple[Root, ...]:
        return self._positive_roots_on(tuple(range(1, self.n + 1)))

    def enumerate_roots(self) -> Tuple[Root, ...]:
        """All self-pairing -2 classes, sorted."""
        pos = self.positive_roots()
        # negation reverses the order, and every negative root sorts first
        return tuple(Root(tuple(-c for c in r.coords)) for r in reversed(pos)) + pos

    def capped_weyl_order(self, cap: int) -> int:
        """|W|, refused with CapExceeded when it is above cap."""
        if self.weyl_order > cap:
            raise CapExceeded(f"more than {cap} elements")
        return self.weyl_order

    def enumerate_weyl(self, cap: int = WEYL_CAP_DEFAULT) -> Tuple[WeylElement, ...]:
        """Full reflection group, breadth-first over keys: the key of w s_i
        is coreflect(i, key of w).  Refused with CapExceeded when |W| > cap."""
        self.capped_weyl_order(cap)
        rho = (1,) * self.n
        words = {rho: ()}
        queue = [rho]
        for key in queue:  # read while it grows, so the search is breadth-first
            for i in range(1, self.n + 1):
                img = self.coreflect(i, key)
                if img not in words:
                    words[img] = words[key] + (i,)
                    queue.append(img)
        return tuple(WeylElement(self, word, key) for key, word in words.items())


def build_lattice(graph: DualGraph) -> RootLattice:
    """Lattice of a dual graph; raises NotNegativeDefinite unless its shape is
    a Dynkin diagram of type A, D or E (see RootLattice.dynkin_type)."""
    lat = RootLattice(graph)
    lat.dynkin_type  # raises NotNegativeDefinite for any other shape
    return lat


def lattice_from_edges(n_curves: int, edges: Iterable[Sequence[int]]) -> RootLattice:
    return build_lattice(build_graph(n_curves, edges))


def chain_lattice(n: int) -> RootLattice:
    """Chain of n curves, the simplest family of examples."""
    return lattice_from_edges(n, [(i, i + 1) for i in range(1, n)])

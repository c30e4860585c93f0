"""Curve lattice of a contracted tree of rational curves.

The lattice is generated by the curve classes e_1..e_N of the tree.  Its
pairing has (e_i, e_i) = -2 and (e_i, e_j) = 1 exactly when the curves
meet, and must be negative definite for the tree to come from an actual
contraction.  Dual coordinates live in the divisor basis D_1..D_N with
D_i . e_j given by the Kronecker delta, not by the gram form.

The simple reflection s_i is one sparse step on either side, reflect on
curve classes and coreflect on divisor coordinates, each touching curve
i and its tree neighbours only.  A Weyl element is its word in simple
reflections; every action, the root closure and the group enumeration
run on those two steps, and matrices are built from the word on demand.
On divisor coordinates there is one word loop, which updates lists in
place letter by letter; coreflect is that loop on a one-letter word.
Callers that frame a point feed it integer numerators over one common
denominator and divide once at the end.
"""

from __future__ import annotations

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
from .linalg import IntMat, IntVec, identity_mat, leading_minors, mat_vec, transpose, vdot

WEYL_CAP_DEFAULT = 100_000


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

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)


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
    gram: IntMat

    @cached_property
    def n(self) -> int:
        return self.graph.n_curves

    # -- pairing and simple reflections ------------------------------------

    def _coords(self, v) -> tuple:
        c = v.coords if isinstance(v, Root) else tuple(v)
        if len(c) != self.n:
            raise DimensionMismatch(f"expected length {self.n}, got {len(c)}")
        return c

    def pairing(self, v, w):
        """Gram pairing of two curve-side vectors."""
        return vdot(self._coords(v), mat_vec(self.gram, self._coords(w)))

    @cached_property
    def _neighbours(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(j for j, g in enumerate(row) if g == 1) for row in self.gram)

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

    def simple_root(self, i: int) -> Root:
        k = self._index(i)
        return Root(tuple(1 if j == k else 0 for j in range(self.n)))

    def weyl_identity(self) -> WeylElement:
        return self.weyl_from_word(())

    def weyl_from_word(self, word: Iterable[int]) -> WeylElement:
        """Product of simple reflections, first letter outermost on both sides."""
        word = tuple(word)
        return WeylElement(self, word, self._coreflect_word(word, (1,) * self.n))

    # -- enumeration --------------------------------------------------------

    @cached_property
    def _root_closure(self) -> Tuple[Tuple[Root, ...], Tuple[Root, ...]]:
        seen = {self.simple_root(i).coords for i in range(1, self.n + 1)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(1, self.n + 1):
                    img = self.reflect(i, v)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        roots = tuple(Root(c) for c in sorted(seen))
        return roots, tuple(r for r in roots if r.is_positive)

    def enumerate_roots(self) -> Tuple[Root, ...]:
        """All self-pairing -2 classes, closed under simple reflections."""
        return self._root_closure[0]

    def positive_roots(self) -> Tuple[Root, ...]:
        return self._root_closure[1]

    @cached_property
    def _parabolic(self) -> dict:
        return {}

    def _parabolic_roots(self, curves: Tuple[int, ...]) -> Tuple[IntVec, ...]:
        """Positive roots supported on the given curves, in positive_roots() order:
        the positive roots of the subsystem their simple roots span, cached per set."""
        if curves not in self._parabolic:
            self._parabolic[curves] = tuple(
                r.coords for r in self.positive_roots()
                if all(c == 0 or j + 1 in curves for j, c in enumerate(r.coords)))
        return self._parabolic[curves]

    def enumerate_weyl(self, cap: int = WEYL_CAP_DEFAULT) -> Tuple[WeylElement, ...]:
        """Full reflection group, breadth-first over keys: the key of w s_i
        is coreflect(i, key of w).

        Raises CapExceeded as soon as more than cap distinct elements appear.
        """
        rho = (1,) * self.n
        words = {rho: ()}
        queue = [rho]
        for key in queue:  # read while it grows, so the search is breadth-first
            for i in range(1, self.n + 1):
                img = self.coreflect(i, key)
                if img not in words:
                    if len(words) + 1 > cap:
                        raise CapExceeded(f"more than {cap} elements")
                    words[img] = words[key] + (i,)
                    queue.append(img)
        return tuple(WeylElement(self, word, key) for key, word in words.items())


def build_lattice(graph: DualGraph) -> RootLattice:
    """Gram form of a dual graph; raises NotNegativeDefinite when it fails.

    Definiteness is decided exactly: every leading principal minor of the
    negated gram matrix must be positive.
    """
    n = graph.n_curves
    adj = {(i, j) for i, j in graph.edges} | {(j, i) for i, j in graph.edges}
    gram = tuple(
        tuple(-2 if i == j else (1 if (i + 1, j + 1) in adj else 0)
              for j in range(n))
        for i in range(n)
    )
    neg = tuple(tuple(-x for x in row) for row in gram)
    minors = leading_minors(neg)
    if any(m <= 0 for m in minors):
        raise NotNegativeDefinite(
            f"leading minors of the negated gram matrix are {minors}")
    return RootLattice(graph, gram)


def lattice_from_edges(n_curves: int, edges: Iterable[Sequence[int]]) -> RootLattice:
    return build_lattice(build_graph(n_curves, edges))


def chain_lattice(n: int) -> RootLattice:
    """Chain of n curves, the simplest family of examples."""
    return lattice_from_edges(n, [(i, i + 1) for i in range(1, n)])

"""Curve lattice of a contracted tree of rational curves.

The lattice is generated by the curve classes e_1..e_N of the tree.  Its
pairing has (e_i, e_i) = -2 and (e_i, e_j) = 1 exactly when the curves
meet, and must be negative definite for the tree to come from an actual
contraction.  Dual coordinates live in the divisor basis D_1..D_N with
D_i . e_j given by the Kronecker delta, not by the gram form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Tuple

from .errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NotARoot,
    NotATree,
    NotNegativeDefinite,
)
from .linalg import (
    IntMat,
    IntVec,
    identity_mat,
    leading_minors,
    mat_mul,
    mat_vec,
    transpose,
    vadd,
    vdot,
    vscale,
)

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
    """Reflection group element, stored as its action on both sides.

    mat acts on curve classes (columns of mat are images of the e_i).
    dual_mat is the action on divisor coordinates; it equals the transpose
    of mat for a single reflection and extends multiplicatively, so for a
    product it is the inverse transpose of mat.  word is a witness in
    simple reflection indices, first letter outermost.
    """

    __slots__ = ("n", "mat", "dual_mat", "word")

    def __init__(self, n: int, mat: IntMat, dual_mat: IntMat, word: Tuple[int, ...]):
        self.n = n
        self.mat = mat
        self.dual_mat = dual_mat
        self.word = word

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word}, mat={self.mat})"

    @property
    def is_identity(self) -> bool:
        return self.mat == identity_mat(self.n)

    def apply_dual(self, d: Sequence) -> tuple:
        """Action on divisor-side coordinates."""
        return mat_vec(self.dual_mat, d)

    def apply_dual_inverse(self, d: Sequence) -> tuple:
        # inverse of the dual action is plain transpose of mat
        return mat_vec(transpose(self.mat), d)

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.n, mat_mul(self.mat, other.mat),
                           mat_mul(self.dual_mat, other.dual_mat), self.word + other.word)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.n, transpose(self.dual_mat), transpose(self.mat),
                           self.word[::-1])


@dataclass(frozen=True)
class RootLattice:
    graph: DualGraph
    gram: IntMat

    @property
    def n(self) -> int:
        return self.graph.n_curves

    # -- pairing and reflections -------------------------------------------

    def _coords(self, v) -> tuple:
        c = v.coords if isinstance(v, Root) else tuple(v)
        if len(c) != self.n:
            raise DimensionMismatch(f"expected length {self.n}, got {len(c)}")
        return c

    def pairing(self, v, w):
        """Gram pairing of two curve-side vectors."""
        return vdot(self._coords(v), mat_vec(self.gram, self._coords(w)))

    def is_root(self, v) -> bool:
        c = self._coords(v)
        if not all(isinstance(x, int) for x in c):
            return False
        if self.pairing(c, c) != -2:
            return False
        return all(x >= 0 for x in c) or all(x <= 0 for x in c)

    def _check_root(self, v) -> IntVec:
        c = self._coords(v)
        if not self.is_root(c):
            raise NotARoot(f"{c} has self-pairing != -2 or mixed signs")
        return c

    def reflect(self, v, x) -> tuple:
        """Reflection r_v(x) = x + (v, x) v on curve-side coordinates."""
        c = self._check_root(v)
        xs = self._coords(x)
        return vadd(xs, vscale(self.pairing(c, xs), c))

    def coreflect(self, v, d) -> tuple:
        """Dual reflection on divisor coordinates, adjoint to reflect.

        Determined by coreflect(v, d) . x = d . reflect(v, x) for all x.
        """
        c = self._check_root(v)
        ds = self._coords(d)
        return vadd(ds, vscale(vdot(ds, c), mat_vec(self.gram, c)))

    # -- simple roots and reflection matrices ------------------------------

    def simple_root(self, i: int) -> Root:
        if not (1 <= i <= self.n):
            raise IndexOutOfRange(f"curve index {i} not in 1..{self.n}")
        return Root(tuple(1 if j == i - 1 else 0 for j in range(self.n)))

    def simple_roots(self) -> Tuple[Root, ...]:
        return tuple(self.simple_root(i) for i in range(1, self.n + 1))

    def reflection_mat(self, i: int) -> IntMat:
        e = self.simple_root(i).coords
        cols = [self.reflect(e, self.simple_root(j).coords)
                for j in range(1, self.n + 1)]
        return transpose(cols)

    @cached_property
    def _generators(self) -> Tuple[WeylElement, ...]:
        mats = [self.reflection_mat(i) for i in range(1, self.n + 1)]
        return tuple(WeylElement(self.n, m, transpose(m), (i,))
                     for i, m in enumerate(mats, 1))

    def generator(self, i: int) -> WeylElement:
        """The simple reflection s_i, built once per lattice.

        Every Weyl element is built from these.
        """
        if not (1 <= i <= self.n):
            raise IndexOutOfRange(f"curve index {i} not in 1..{self.n}")
        return self._generators[i - 1]

    def weyl_identity(self) -> WeylElement:
        eye = identity_mat(self.n)
        return WeylElement(self.n, eye, eye, ())

    def weyl_from_word(self, word: Sequence[int]) -> WeylElement:
        """Product of simple reflections, first letter outermost on both sides."""
        w = self.weyl_identity()
        for i in word:
            w = w.compose(self.generator(i))
        return w

    # -- enumeration --------------------------------------------------------

    @cached_property
    def _root_closure(self) -> Tuple[Tuple[Root, ...], Tuple[Root, ...]]:
        seen = {r.coords for r in self.simple_roots()}
        frontier = list(seen)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(1, self.n + 1):
                    img = tuple(self.reflect(self.simple_root(i).coords, v))
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

    def enumerate_weyl(self, cap: int = WEYL_CAP_DEFAULT) -> Tuple[WeylElement, ...]:
        """Full reflection group by closure under the simple generators.

        Raises CapExceeded as soon as more than cap distinct elements appear.
        """
        gens = self._generators
        ident = self.weyl_identity()
        seen = {ident.mat: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for step in gens:
                    prod = w.compose(step)
                    if prod.mat not in seen:
                        if len(seen) + 1 > cap:
                            raise CapExceeded(f"more than {cap} elements")
                        seen[prod.mat] = prod
                        nxt.append(prod)
            frontier = nxt
        return tuple(seen.values())


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

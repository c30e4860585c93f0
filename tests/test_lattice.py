from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from stabwalk import (
    CapExceeded,
    DimensionMismatch,
    Flop,
    IndexOutOfRange,
    NotATree,
    NotNegativeDefinite,
    build_graph,
    build_lattice,
    chain_lattice,
    coherent_heart,
    lattice_from_edges,
    theta,
    word,
)
from stabwalk.linalg import identity_mat, mat_vec, transpose
from reference import leading_minors


def mat_mul(a, b):
    """Dense reference product, kept here because src/ needs none."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def d4_lattice():
    return lattice_from_edges(4, [(1, 2), (1, 3), (1, 4)])


def dense_reflection(gram, i):
    """Dense reference for s_i on curve classes: R_i = I + e_i (row i of gram)."""
    n = len(gram)
    return tuple(tuple((r == c) + (gram[i - 1][c] if r == i - 1 else 0) for c in range(n))
                 for r in range(n))


def brute_force_roots(lat, bound):
    """Every integer vector with |v_i| <= bound and self pairing -2."""
    hits = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=lat.n):
        if lat.pairing(v, v) == -2:
            hits.add(v)
    return hits


def test_gram_single_curve():
    lat = chain_lattice(1)
    assert lat.gram == ((-2,),)


def test_gram_two_curves_one_edge():
    lat = lattice_from_edges(2, [(1, 2)])
    assert lat.gram == ((-2, 1), (1, -2))


def test_gram_no_edge_means_zero():
    # a 2-vertex graph needs its single edge to be a tree at all
    with pytest.raises(NotATree):
        build_graph(2, [])


def test_star_valence_four_rejected():
    with pytest.raises(NotNegativeDefinite):
        lattice_from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)])


def prufer_tree(n, seq):
    """Edges of the labelled tree on 1..n with Pruefer sequence seq."""
    degree = [0] + [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(1, n + 1) if degree[u] == 1))
    return edges


# the extended diagrams, each the smallest tree its rule refuses
AFFINE_TREES = {
    "D4~": (5, [(1, 2), (1, 3), (1, 4), (1, 5)], r"curve 1 meets 4 curves"),
    "D5~": (6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], r"curves 3 and 4 both branch"),
    "D7~": (8, [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)],
            r"curves 3 and 6 both branch"),
    "E6~": (7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)],
            r"curve 1 branches into arms of 2, 2 and 2 curves"),
    "E7~": (8, [(1, 2), (1, 3), (3, 4), (4, 5), (1, 6), (6, 7), (7, 8)],
            r"curve 1 branches into arms of 1, 3 and 3 curves"),
    "E8~": (9, [(4, 1), (4, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)],
            r"curve 4 branches into arms of 1, 2 and 5 curves"),
}


def test_shape_verdict_matches_leading_minors():
    """The tree's shape accepts exactly the trees whose negated gram form has
    positive leading minors: every labelled tree of up to 6 curves, plus
    the extended diagrams."""
    trees = [(1, [])] + [(n, prufer_tree(n, seq)) for n in range(2, 7)
                         for seq in itertools.product(range(1, n + 1), repeat=n - 2)]
    assert len(trees) == 1442
    trees += [(n, edges) for n, edges, _ in AFFINE_TREES.values()]
    for n, edges in trees:
        graph = build_graph(n, edges)
        adjacent = set(graph.edges) | {(j, i) for i, j in graph.edges}
        negated = [[2 if i == j else -((i, j) in adjacent) for j in range(1, n + 1)]
                   for i in range(1, n + 1)]
        definite = all(m > 0 for m in leading_minors(negated))
        try:
            build_lattice(graph)
        except NotNegativeDefinite:
            assert not definite, edges
        else:
            assert definite, edges


@pytest.mark.parametrize("name", list(AFFINE_TREES))
def test_refusal_names_the_curve(name):
    n, edges, msg = AFFINE_TREES[name]
    with pytest.raises(NotNegativeDefinite, match=f"^{msg}; the negative definite trees are "):
        lattice_from_edges(n, edges)


def test_tree_validation():
    with pytest.raises(NotATree):
        build_graph(0, [])
    with pytest.raises(NotATree):
        build_graph(3, [(1, 2)])  # disconnected
    with pytest.raises(NotATree):
        build_graph(3, [(1, 2), (2, 3), (1, 3)])  # cycle
    with pytest.raises(NotATree):
        build_graph(2, [(1, 1)])  # self loop
    with pytest.raises(NotATree):
        build_graph(2, [(1, 3)])  # index out of range
    with pytest.raises(NotATree):
        build_graph(3, [(1, 2), (2, 1)])  # duplicate edge


def test_pairing_values():
    lat = chain_lattice(2)
    assert lat.pairing((1, 0), (0, 1)) == 1
    assert lat.pairing((1, 1), (1, 1)) == -2
    for i in range(2):
        e = tuple(1 if j == i else 0 for j in range(2))
        assert lat.pairing(e, e) == -2
    with pytest.raises(DimensionMismatch):
        lat.pairing((1,), (0, 1))


def test_reflect_examples():
    lat1 = chain_lattice(1)
    assert lat1.reflect(1, (1,)) == (-1,)
    lat2 = chain_lattice(2)
    assert lat2.reflect(1, (0, 1)) == (1, 1)
    rng = random.Random(7)
    for _ in range(20):
        x = tuple(rng.randrange(-4, 5) for _ in range(2))
        for i in (1, 2):
            assert lat2.reflect(i, lat2.reflect(i, x)) == x
            assert lat2.reflect(i, x) == mat_vec(dense_reflection(lat2.gram, i), x)


def test_coreflect_examples():
    lat1 = chain_lattice(1)
    assert lat1.coreflect(1, (1,)) == (-1,)
    lat2 = chain_lattice(2)
    assert lat2.coreflect(1, (0, 1)) == (0, 1)
    lat = d4_lattice()
    rng = random.Random(11)
    for _ in range(20):
        d = tuple(Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3))) for _ in range(4))
        x = tuple(rng.randrange(-4, 5) for _ in range(4))
        for i in (1, 2, 3, 4):
            assert lat.coreflect(i, lat.coreflect(i, d)) == d
            assert lat.coreflect(i, d) == mat_vec(transpose(dense_reflection(lat.gram, i)), d)
            # adjointness against the curve-side reflection
            lhs = sum(a * b for a, b in zip(lat.coreflect(i, d), x))
            rhs = sum(a * b for a, b in zip(d, lat.reflect(i, x)))
            assert lhs == rhs


def test_root_enumeration_counts():
    assert len(chain_lattice(1).enumerate_roots()) == 2
    assert len(chain_lattice(2).enumerate_roots()) == 6
    assert len(chain_lattice(3).enumerate_roots()) == 12
    assert len(d4_lattice().enumerate_roots()) == 24


def test_two_curve_roots_exact_set():
    lat = chain_lattice(2)
    got = {r.coords for r in lat.enumerate_roots()}
    assert got == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}


def test_roots_match_brute_force():
    for lat in (chain_lattice(1), chain_lattice(2), chain_lattice(3),
                chain_lattice(4), d4_lattice()):
        got = {r.coords for r in lat.enumerate_roots()}
        assert got == brute_force_roots(lat, 6)
        # no root leaves the brute-force box
        assert all(abs(c) <= 6 for v in got for c in v)


def test_root_invariants():
    lat = d4_lattice()
    for r in lat.enumerate_roots():
        assert lat.pairing(r.coords, r.coords) == -2
        assert all(c >= 0 for c in r.coords) or all(c <= 0 for c in r.coords)
    pos = lat.positive_roots()
    assert len(pos) * 2 == len(lat.enumerate_roots())
    assert all(min(r.coords) >= 0 for r in pos)


def test_weyl_orders():
    assert len(chain_lattice(1).enumerate_weyl()) == 2
    assert len(chain_lattice(2).enumerate_weyl()) == 6
    assert len(chain_lattice(3).enumerate_weyl()) == 24
    assert len(d4_lattice().enumerate_weyl()) == 192


def test_weyl_elements_preserve_gram():
    lat = chain_lattice(3)
    g = lat.gram
    for w in lat.enumerate_weyl():
        assert mat_mul(mat_mul(transpose(w.mat), g), w.mat) == g
        assert mat_mul(transpose(w.mat), w.dual_mat) == identity_mat(3)
        # the stored word regenerates the element
        assert lat.weyl_from_word(w.word) == w


def test_weyl_identity_and_inverse():
    lat = chain_lattice(2)
    e = lat.weyl_identity()
    assert e.is_identity
    for w in lat.enumerate_weyl():
        assert w.compose(w.inverse()).is_identity
        assert w.inverse().compose(w).is_identity
        assert w.apply_dual_inverse((1, 2)) == w.inverse().apply_dual((1, 2))


def test_weyl_generator_dual_is_transpose():
    lat = chain_lattice(2)
    for i in (1, 2):
        r = lat.weyl_from_word((i,))
        assert r.dual_mat == transpose(r.mat)
        assert r.mat == dense_reflection(lat.gram, i)


def test_reflection_mat_acts_like_reflect():
    lat = d4_lattice()
    for i in (1, 2, 3, 4):
        m = dense_reflection(lat.gram, i)
        for x in ((1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 3, 1)):
            assert mat_vec(m, x) == lat.reflect(i, x)
        # reflections of roots are roots
        for r in lat.enumerate_roots():
            assert lat.pairing(lat.reflect(i, r.coords), lat.reflect(i, r.coords)) == -2


@pytest.mark.parametrize("i", [0, -1, 5])
def test_curve_index_out_of_range(i):
    lat = d4_lattice()
    msg = rf"^curve index {i} not in 1\.\.4$"
    with pytest.raises(IndexOutOfRange, match=msg):
        lat.reflect(i, (1, 0, 0, 0))
    with pytest.raises(IndexOutOfRange, match=msg):
        lat.coreflect(i, (1, 0, 0, 0))
    with pytest.raises(IndexOutOfRange, match=msg):
        lat.weyl_from_word((1, i))
    with pytest.raises(IndexOutOfRange, match=msg):
        theta(lat, word((Flop(1), Flop(i))))


def test_weyl_cap():
    with pytest.raises(CapExceeded):
        chain_lattice(2).enumerate_weyl(cap=3)


def test_weyl_closed_under_composition():
    lat = chain_lattice(2)
    group = set(lat.enumerate_weyl())
    assert identity_mat(2) in {w.mat for w in group}
    for a in group:
        for b in group:
            ab = a.compose(b)
            assert ab in group and ab == lat.weyl_from_word(a.word + b.word)
            assert ab.mat == mat_mul(a.mat, b.mat)


def dynkin_lattice(t):
    """The tree of Dynkin type t: a chain, with D_n and E_n branching at n-2 and 3."""
    kind, n = t[0], int(t[1:])
    if kind == "A":
        return chain_lattice(n)
    branch = n - 2 if kind == "D" else 3
    return lattice_from_edges(n, [(i, i + 1) for i in range(1, n - 1)] + [(branch, n)])


ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4", "D5", "E6", "E7", "E8"]
LARGER_D = ["D6", "D7", "D8"]
ENUMERATED = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"]


@pytest.mark.parametrize("t", ALL_TYPES + LARGER_D)
def test_root_count_matches_sympy(t):
    root_system = pytest.importorskip("sympy.liealgebras.root_system")
    lat = dynkin_lattice(t)
    assert lat.dynkin_type == (t[0], int(t[1:]))
    count = len(root_system.RootSystem(t).all_roots())
    assert len(lat.enumerate_roots()) == 2 * lat.positive_root_count == count
    pos = lat.positive_roots()
    assert len(pos) == lat.positive_root_count
    assert [r.coords for r in lat.enumerate_roots()] == sorted(
        [r.coords for r in pos] + [tuple(-c for c in r.coords) for r in pos])
    # each parabolic subsystem is the full system filtered to its curves
    for size in range(1, lat.n + 1):
        for curves in itertools.combinations(range(1, lat.n + 1), size):
            assert lat._positive_roots_on(curves) == tuple(
                r for r in pos if all(c == 0 or j + 1 in curves for j, c in enumerate(r.coords)))


@pytest.mark.parametrize("t", ALL_TYPES + LARGER_D)
def test_weyl_order_matches_sympy(t):
    weyl_group = pytest.importorskip("sympy.liealgebras.weyl_group")
    lat = dynkin_lattice(t)
    # sympy returns an mpf for the A and D types
    order = int(weyl_group.WeylGroup(t).group_order())
    assert lat.weyl_order == order
    if t in ENUMERATED:
        assert len(lat.enumerate_weyl()) == order


def test_weyl_elements_of_different_lattices_differ():
    a4, d4 = dynkin_lattice("A4"), dynkin_lattice("D4")
    wa = a4.weyl_from_word((1, 2, 3, 4, 3, 2, 1))
    wd = d4.weyl_from_word((1, 2, 3, 4, 2, 1, 3, 2, 4))
    # same key, different actions: the key pins w down only within a lattice
    assert wa.key == wd.key and wa.mat != wd.mat
    assert wa != wd and wd != wa
    assert wa == dynkin_lattice("A4").weyl_from_word(wa.word)
    assert coherent_heart(a4) != coherent_heart(d4)
    assert coherent_heart(a4) == coherent_heart(dynkin_lattice("A4"))
    # composing across lattices is refused; an equal lattice composes
    with pytest.raises(DimensionMismatch, match="different lattices"):
        a4.weyl_from_word((1, 2)).compose(d4.weyl_from_word((2, 4)))
    with pytest.raises(DimensionMismatch, match="different lattices"):
        a4.weyl_from_word((1,)).compose(chain_lattice(3).weyl_from_word((1,)))
    ab = a4.weyl_from_word((1, 2)).compose(dynkin_lattice("A4").weyl_from_word((2, 4)))
    assert ab.key == (-1, 2, 2, -1) and ab == a4.weyl_from_word((1, 2, 2, 4))


def test_word_loop_refuses_wrong_lengths():
    a4 = dynkin_lattice("A4")
    w = a4.weyl_from_word((1, 2))
    for d in ((1, 2), (1, 2, 3, 4, 5)):
        msg = rf"^expected length 4, got {len(d)}$"
        for call in (lambda: a4._coreflect_word((1, 2), d), lambda: a4.coreflect(1, d),
                     lambda: w.apply_dual(d), lambda: w.apply_dual_inverse(d)):
            with pytest.raises(DimensionMismatch, match=msg):
                call()
    # the empty word checks the length too
    with pytest.raises(DimensionMismatch):
        a4._coreflect_word((), (1, 2, 3))

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
        # closure never leaves the brute-force box
        assert all(abs(c) <= 6 for v in got for c in v)


def test_root_invariants():
    lat = d4_lattice()
    for r in lat.enumerate_roots():
        assert lat.pairing(r.coords, r.coords) == -2
        assert all(c >= 0 for c in r.coords) or all(c <= 0 for c in r.coords)
    pos = lat.positive_roots()
    assert len(pos) * 2 == len(lat.enumerate_roots())
    assert all(r.is_positive for r in pos)


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


@pytest.mark.parametrize("t", ALL_TYPES)
def test_root_count_matches_sympy(t):
    root_system = pytest.importorskip("sympy.liealgebras.root_system")
    assert len(dynkin_lattice(t).enumerate_roots()) == len(root_system.RootSystem(t).all_roots())


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_weyl_order_matches_sympy(t):
    weyl_group = pytest.importorskip("sympy.liealgebras.weyl_group")
    # sympy returns an mpf for the A and D types
    assert len(dynkin_lattice(t).enumerate_weyl()) == int(weyl_group.WeylGroup(t).group_order())


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

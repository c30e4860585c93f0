from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from stabwalk import (
    CapExceeded,
    DimensionMismatch,
    NotARoot,
    NotATree,
    NotNegativeDefinite,
    build_graph,
    build_lattice,
    chain_lattice,
    lattice_from_edges,
)
from stabwalk.lattice import RootLattice
from stabwalk.linalg import identity_mat, mat_mul, mat_vec, transpose


def d4_lattice():
    return lattice_from_edges(4, [(1, 2), (1, 3), (1, 4)])


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
    assert lat1.reflect((1,), (1,)) == (-1,)
    lat2 = chain_lattice(2)
    assert lat2.reflect((1, 0), (0, 1)) == (1, 1)
    rng = random.Random(7)
    for _ in range(20):
        x = tuple(rng.randrange(-4, 5) for _ in range(2))
        for r in lat2.enumerate_roots():
            assert lat2.reflect(r.coords, lat2.reflect(r.coords, x)) == x


def test_reflect_rejects_non_roots():
    lat = chain_lattice(2)
    with pytest.raises(NotARoot):
        lat.reflect((2, 0), (1, 0))
    with pytest.raises(NotARoot):
        lat.reflect((1, -1), (1, 0))  # mixed signs


def test_coreflect_examples():
    lat1 = chain_lattice(1)
    assert lat1.coreflect((1,), (1,)) == (-1,)
    lat2 = chain_lattice(2)
    assert lat2.coreflect((1, 0), (0, 1)) == (0, 1)
    rng = random.Random(11)
    for _ in range(20):
        d = tuple(Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3))) for _ in range(2))
        x = tuple(rng.randrange(-4, 5) for _ in range(2))
        for r in lat2.enumerate_roots():
            v = r.coords
            assert lat2.coreflect(v, lat2.coreflect(v, d)) == d
            # adjointness against the curve-side reflection
            lhs = sum(a * b for a, b in zip(lat2.coreflect(v, d), x))
            rhs = sum(a * b for a, b in zip(d, lat2.reflect(v, x)))
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
        assert r.mat == lat.reflection_mat(i)
        assert lat.generator(i).dual_mat == transpose(lat.reflection_mat(i))


def test_reflection_mat_acts_like_reflect():
    lat = chain_lattice(3)
    for i in (1, 2, 3):
        m = lat.reflection_mat(i)
        e = lat.simple_root(i).coords
        for x in ((1, 0, 0), (0, 1, 0), (2, -1, 3)):
            assert mat_vec(m, x) == lat.reflect(e, x)


def test_each_generator_builds_one_reflection_matrix(monkeypatch):
    calls = []
    real = RootLattice.reflection_mat

    def counting(self, i):
        calls.append(i)
        return real(self, i)
    monkeypatch.setattr(RootLattice, "reflection_mat", counting)
    assert len(d4_lattice().enumerate_weyl()) == 192
    assert sorted(calls) == [1, 2, 3, 4]
    calls.clear()
    w = (1, 2, 3, 1, 4, 2)
    assert d4_lattice().weyl_from_word(w).word == w
    assert calls == list(w)


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

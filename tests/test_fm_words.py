from __future__ import annotations

import random

from stabwalk import (
    AffineMap,
    DimensionMismatch,
    Flop,
    IndexOutOfRange,
    Twist,
    affine_identity,
    chain_lattice,
    compose,
    invert,
    is_in_g,
    is_in_g0,
    model_of,
    theta,
    word,
)
from stabwalk.linalg import transpose

import pytest


def mat_mul(a, b):
    """Dense reference product, kept here because src/ needs none."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def rand_word(rng, n, length):
    gens = []
    for _ in range(length):
        if rng.random() < 0.5:
            gens.append(Twist(tuple(rng.randrange(-2, 3) for _ in range(n))))
        else:
            gens.append(Flop(rng.randrange(1, n + 1)))
    return word(gens)


def test_shadow_of_generators():
    lat = chain_lattice(1)
    t = theta(lat, word((Twist((2,)),)))
    assert t.linear == ((1,),) and t.trans == (2,)
    f = theta(lat, word((Flop(1),)))
    assert f.linear == ((-1,),) and f.trans == (0,)


def test_shadow_of_flop_has_no_offset():
    lat = chain_lattice(3)
    for i in (1, 2, 3):
        t = theta(lat, word((Flop(i),)))
        assert t.trans == (0, 0, 0)
        # the dual reflection: transpose of R_i = I + e_i (row i of gram)
        assert t.linear == tuple(tuple((r == c) + (lat.gram[i - 1][r] if c == i - 1 else 0)
                                       for c in range(3)) for r in range(3))


def test_double_flop_word_is_translation():
    lat = chain_lattice(1)
    u = word((Twist((1,)), Flop(1), Twist((2,)), Flop(1)))
    t = theta(lat, u)
    assert t.is_translation and not t.is_identity
    assert t.trans == (-1,)
    assert is_in_g(lat, u)
    assert not is_in_g0(lat, u)


def test_ch1_structure_of_letters():
    lat = chain_lattice(2)
    assert theta(lat, word((Twist((3, -1)),))).trans == (3, -1)
    assert theta(lat, word((Flop(2),))).trans == (0, 0)


def test_shadow_is_a_homomorphism():
    lat = chain_lattice(2)
    rng = random.Random(23)
    for _ in range(60):
        u = rand_word(rng, 2, rng.randrange(0, 5))
        v = rand_word(rng, 2, rng.randrange(0, 5))
        assert theta(lat, compose(u, v)) == theta(lat, u).compose(theta(lat, v))


def test_shadow_image_decomposes():
    lat = chain_lattice(2)
    duals = {w.dual_mat for w in lat.enumerate_weyl()}
    rng = random.Random(29)
    for _ in range(40):
        t = theta(lat, rand_word(rng, 2, rng.randrange(0, 6)))
        assert t.linear in duals
        assert all(isinstance(x, int) for x in t.trans)


def test_invert():
    u = word((Twist((1, -2)), Flop(1), Twist((0, 3))))
    v = invert(u)
    assert v.gens == (Twist((0, -3)), Flop(1), Twist((-1, 2)))
    assert invert(v) == u
    lat = chain_lattice(2)
    rng = random.Random(31)
    for _ in range(25):
        u = rand_word(rng, 2, rng.randrange(0, 6))
        assert theta(lat, compose(u, invert(u))).is_identity
        assert theta(lat, compose(invert(u), u)).is_identity


def test_no_free_cancellation():
    f = word((Flop(1),))
    ff = compose(f, f)
    assert len(ff) == 2
    lat = chain_lattice(1)
    assert is_in_g0(lat, ff)


def test_model_of():
    lat = chain_lattice(2)
    assert model_of(lat, word(())).is_identity
    for i in (1, 2):
        assert model_of(lat, word((Flop(i),))) == lat.weyl_from_word((i,))
    assert model_of(lat, word((Flop(1), Flop(1)))).is_identity
    # twists are invisible to the model
    u = word((Twist((5, 5)), Flop(2), Twist((-1, 0))))
    assert model_of(lat, u) == lat.weyl_from_word((2,))


def test_model_preserves_pairing():
    lat = chain_lattice(3)
    rng = random.Random(37)
    for _ in range(20):
        m = model_of(lat, rand_word(rng, 3, rng.randrange(0, 6))).mat
        assert mat_mul(transpose(m), mat_mul(lat.gram, m)) == lat.gram


def test_membership_examples():
    lat = chain_lattice(1)
    assert is_in_g0(lat, word(()))
    assert is_in_g(lat, word((Twist((4,)),)))
    assert not is_in_g0(lat, word((Twist((4,)),)))
    assert not is_in_g(lat, word((Flop(1),)))
    five = word((Twist((1,)), Flop(1), Twist((2,)), Flop(1), Twist((1,))))
    assert is_in_g0(lat, five)


def test_affine_map_algebra():
    lat = chain_lattice(2)
    # s_1 s_2 sends D_1 to D_2 - D_1 and D_2 to -D_1 on divisor coordinates
    a = AffineMap(lat.weyl_from_word((1, 2)), (2, 0))
    assert a.linear == ((-1, -1), (1, 0))
    assert a.apply((1, 1)) == (0, 1)
    assert a.weyl.apply_dual((1, 1)) == (-2, 1)
    assert not a.is_translation and not a.is_identity
    assert affine_identity(lat).apply((5, -3)) == (5, -3)
    assert a.compose(affine_identity(lat)) == a == affine_identity(lat).compose(a)
    # t1 + w1 t2, with the Weyl elements composed
    b = AffineMap(lat.weyl_from_word((2,)), (0, 3))
    ab = a.compose(b)
    assert ab.weyl == lat.weyl_from_word((1, 2, 2)) == lat.weyl_from_word((1,))
    assert ab.trans == (2 - 3, 0)
    for d in ((1, 0), (0, 1), (3, -2)):
        assert ab.apply(d) == a.apply(b.apply(d))
    with pytest.raises(DimensionMismatch):
        a.compose(affine_identity(chain_lattice(3)))
    with pytest.raises(DimensionMismatch):
        a.apply((1, 1, 1))


def test_shadow_validates_letters():
    lat = chain_lattice(2)
    with pytest.raises(DimensionMismatch):
        theta(lat, word((Twist((1,)),)))
    with pytest.raises(IndexOutOfRange):
        theta(lat, word((Flop(3),)))

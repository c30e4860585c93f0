"""The inverse of a word's shadow is the shadow of the inverted word.

No module of the package inverts a matrix by elimination: affine frames
and Weyl elements alike are inverted by inverting their words.  These
properties check both against the forward maps on random twist/flop
words over four ADE trees, check that two words of one Weyl element give
one element, and check every action of a Weyl element, which runs its
word one sparse step per letter, against products of dense reflection
matrices built from the gram.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from stabwalk import (
    Flop,
    Twist,
    chain_lattice,
    invert,
    lattice_from_edges,
    model_of,
    theta,
    word,
)
from stabwalk.linalg import identity_mat, mat_vec, transpose

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LATTICES = {
    "A2": chain_lattice(2),
    "A3": chain_lattice(3),
    "D4": lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)]),
    "E6": lattice_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
}


@st.composite
def lattice_and_word(draw):
    lat = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    twist = st.builds(Twist, st.tuples(*[st.integers(-3, 3)] * lat.n))
    flop = st.builds(Flop, st.integers(1, lat.n))
    u = word(draw(st.lists(st.one_of(twist, flop), max_size=12)))
    i = draw(st.integers(1, lat.n))
    j = draw(st.integers(1, lat.n).filter(lambda x: x != i))
    d = draw(st.tuples(*[st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))] * lat.n))
    return lat, u, (draw(st.integers(0, len(u))), i, j), d


def mat_mul(a, b):
    """Dense reference product, kept here because src/ needs none."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def dense_reflection(gram, i):
    """Dense reference for s_i on curve classes: R_i = I + e_i (row i of gram)."""
    n = len(gram)
    return tuple(tuple((r == c) + (gram[i - 1][c] if r == i - 1 else 0) for c in range(n))
                 for r in range(n))


def braid_pair(lat, i, j):
    """Two words of one element: iji = jij on an edge, ij = ji off it."""
    if lat.gram[i - 1][j - 1]:
        return (i, j, i), (j, i, j)
    return (i, j), (j, i)


@pytest.mark.parametrize("lat,i,j", [(LATTICES["A2"], 1, 2), (LATTICES["A3"], 1, 3)])
def test_braid_related_words_are_one_element(lat, i, j):
    u, v = (lat.weyl_from_word(w) for w in braid_pair(lat, i, j))
    assert u.word != v.word
    assert u == v and hash(u) == hash(v)
    assert u.mat == v.mat and u.dual_mat == v.dual_mat


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(lattice_and_word())
def test_inverse_is_the_inverted_word(case):
    lat, u, (cut, i, j), _ = case
    eye = identity_mat(lat.n)
    t, t_inv = theta(lat, u), theta(lat, invert(u))
    assert t.compose(t_inv).is_identity and t_inv.compose(t).is_identity

    m = model_of(lat, u)
    assert mat_mul(transpose(m.mat), m.dual_mat) == eye
    assert m.dual_mat == t.linear

    w = lat.weyl_from_word([g.curve for g in u.gens if isinstance(g, Flop)])
    assert (m.mat, m.dual_mat, m.word) == (w.mat, w.dual_mat, w.word)
    for prod in (w.compose(w.inverse()), w.inverse().compose(w)):
        assert prod.is_identity and prod.dual_mat == eye
    assert w.inverse().word == tuple(reversed(w.word))

    # either side of a braid relation spliced into the word gives one element
    a, b = (lat.weyl_from_word(w.word[:cut] + p + w.word[cut:]) for p in braid_pair(lat, i, j))
    assert a == b and hash(a) == hash(b) and a.mat == b.mat


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(lattice_and_word())
def test_sparse_actions_match_dense_products(case):
    lat, u, _, d = case
    w = model_of(lat, u)
    eye = identity_mat(lat.n)
    mat, dual = eye, eye
    for i in w.word:  # first letter outermost on both sides
        mat = mat_mul(mat, dense_reflection(lat.gram, i))
        dual = mat_mul(dual, transpose(dense_reflection(lat.gram, i)))
    assert w.mat == mat and w.dual_mat == dual
    assert w.apply_dual(d) == mat_vec(dual, d)
    # the inverse of the dual action is the transpose of mat
    assert w.apply_dual_inverse(d) == mat_vec(transpose(mat), d)
    assert w.key == mat_vec(transpose(mat), (1,) * lat.n)

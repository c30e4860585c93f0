"""Framing on integer numerators agrees with a dense Fraction reference.

classify's strips, stability_check's charges and locate_weyl_chamber put
each vector over one common denominator, run the integer numerators
through the frame's word and divide once at the end.  The reference here
pulls the Fraction vector back densely, as the transpose of the frame's
matrix on curve classes, on points of four ADE trees whose omega sits up
to three quarters of the positive roots away from the fundamental cone.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import stabwalk.strata as strata_mod
from stabwalk import (
    AmpleChamber,
    ComplexDivisor,
    DeepStratum,
    Forbidden,
    RootLattice,
    chain_lattice,
    classify,
    heart_for_stratum,
    lattice_from_edges,
    locate_weyl_chamber,
    stability_check,
    strip_index,
)
from stabwalk.linalg import common_denominator, mat_vec, transpose

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LATTICES = {
    "A3": chain_lattice(3),
    "D4": lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)]),
    "E6": lattice_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "E8": lattice_from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)]),
}


def dense_pullback(w, v):
    """w^-1 on divisor coordinates, the transpose of w's curve-side matrix."""
    return mat_vec(transpose(w.mat), tuple(Fraction(x) for x in v))


@st.composite
def framed_case(draw):
    lat = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    n = lat.n
    # a reduced word: appending i lengthens w exactly when its key w^-1 rho
    # has a positive i-th coordinate, so the descent back takes len(word) steps
    word, key = [], (1,) * n
    for _ in range(draw(st.integers(0, 3 * len(lat.positive_roots()) // 4))):
        i = draw(st.sampled_from([j + 1 for j, x in enumerate(key) if x > 0]))
        word.append(i)
        key = lat.coreflect(i, key)
    w = lat.weyl_from_word(word)
    beta = tuple(Fraction(draw(st.integers(-40, 40)), draw(st.integers(2, 8)))
                 for _ in range(n))
    dominant = tuple(Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 8)))
                     for _ in range(n))
    # a few zero coordinates put omega on walls, away from the open chamber
    zeros = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    on_walls = tuple(0 if j in zeros else x for j, x in enumerate(dominant))
    return lat, w, beta, dominant, w.apply_dual(on_walls)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(framed_case())
def test_integer_framing_matches_dense_pullback(case):
    lat, w, beta, dominant, omega = case
    assert w.apply_dual(beta) == mat_vec(w.dual_mat, beta)
    assert w.apply_dual_inverse(beta) == dense_pullback(w, beta)

    for v in (beta, omega):
        nums, d = common_denominator(v)
        assert tuple(Fraction(x, d) for x in w.apply_dual_inverse(nums)) == dense_pullback(w, v)

    p = ComplexDivisor(beta, omega)

    regular = w.apply_dual(dominant)
    frame, dom = locate_weyl_chamber(lat, regular)
    assert frame == w and len(frame.word) == len(w.word)
    assert dom == dominant == dense_pullback(frame, regular)

    label = classify(lat, p)
    if isinstance(label, Forbidden):
        return
    frame = label.weyl if isinstance(label, AmpleChamber) else label.frame
    fb, fo = dense_pullback(frame, beta), dense_pullback(frame, omega)
    assert all(x >= 0 for x in fo)
    vanishing = tuple(j + 1 for j, x in enumerate(fo) if x == 0)
    strips = tuple((i, strip_index(fb[i - 1])) for i in vanishing)
    if isinstance(label, DeepStratum):
        assert (label.vanishing, label.strips) == (vanishing, strips)
    elif not isinstance(label, AmpleChamber):
        assert ((label.curve, label.strip),) == strips

    heart = heart_for_stratum(lat, label)
    fb, fo = dense_pullback(heart.frame, beta), dense_pullback(heart.frame, omega)
    for e in stability_check(heart, p).entries:
        m = e.kclass.curve_mult
        assert (e.charge.re, e.charge.im) == (
            -e.kclass.point_mult + sum(b * x for b, x in zip(fb, m)),
            sum(o * x for o, x in zip(fo, m)))


def test_point_queries_feed_the_word_loop_integers_only(monkeypatch):
    lat = LATTICES["E8"]
    loop = RootLattice._coreflect_word
    entries = []

    def recording(self, word, d, *carried):
        entries.extend(d)
        for c in carried:
            entries.extend(c)
        return loop(self, word, d, *carried)

    far = lat.weyl_from_word((1, 2, 3, 4, 5, 6, 7, 8) * 8)
    # curves 1 and 4 on walls: the frame is far's shortest coset representative
    omega = far.apply_dual((0, Fraction(1, 3), 2, 0, 1, Fraction(5, 2), 1, 3))
    beta = tuple(Fraction(k, 7) for k in range(3, 11))
    p = ComplexDivisor(beta, omega)
    monkeypatch.setattr(RootLattice, "_coreflect_word", recording)
    label = classify(lat, p)
    assert isinstance(label, DeepStratum) and len(label.frame.word) > 40
    stability_check(heart_for_stratum(lat, label), p)
    assert entries and not any(isinstance(x, Fraction) for x in entries)


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__neg__")


def test_stability_check_sums_charges_on_integers(monkeypatch):
    lat = LATTICES["E8"]
    far = lat.weyl_from_word((1, 2, 3, 4, 5, 6, 7, 8) * 8)
    omega = far.apply_dual((0, Fraction(1, 3), 0, 2, 0, Fraction(5, 2), 1, 3))
    p = ComplexDivisor(tuple(Fraction(k, 7) for k in range(3, 11)), omega)
    label = classify(lat, p)
    assert isinstance(label, DeepStratum) and len(label.vanishing) == 3
    heart = heart_for_stratum(lat, label)
    counts = {"points": 0, "arithmetic": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ComplexDivisor, "__post_init__",
                        counting("points", ComplexDivisor.__post_init__))
    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting("arithmetic", getattr(Fraction, name)))
    report = stability_check(heart, p)
    monkeypatch.undo()
    assert report.passed and len(report.entries) == 1 + 5 + 2 * 3
    assert counts == {"points": 0, "arithmetic": 0}


def test_open_chamber_classify_runs_one_descent_and_no_forbidden_test(monkeypatch):
    lat = LATTICES["E8"]
    calls = {"positive_roots": 0, "_positive_roots_on": 0, "_forbidden_root": 0,
             "common_denominator": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(RootLattice, "positive_roots")
    counting(RootLattice, "_positive_roots_on")
    counting(strata_mod, "_forbidden_root")
    counting(strata_mod, "common_denominator")
    far = lat.weyl_from_word((1, 2, 3, 4, 5, 6, 7, 8) * 8)
    p = ComplexDivisor((Fraction(1, 2),) * 8,
                       far.apply_dual(tuple(Fraction(k, 3) for k in range(1, 9))))
    label = classify(lat, p)
    assert isinstance(label, AmpleChamber) and label.weyl == far
    # the descent bound is the closed-form root count, omega is put over one
    # denominator once, and an open chamber builds no roots and tests nothing
    assert calls == {"positive_roots": 0, "_positive_roots_on": 0, "_forbidden_root": 0,
                     "common_denominator": 1}

"""The forbidden test on a stratum's own roots agrees with a full Fraction scan.

`in_complement` and `classify` frame omega into the closed fundamental
cone and test only the positive roots supported on its vanishing framed
coordinates, on beta's numerators framed through the same word.  This
property scans every positive root in plain Fraction arithmetic instead,
on random points of five ADE trees: points moved onto the wall or an
integral level (negative ones among them) of a chosen root, and points
built as a Weyl word applied to a dominant vector with one to three zero
coordinates, which sit on deep strata far from the fundamental cone.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from stabwalk import (
    ComplexDivisor,
    Forbidden,
    chain_lattice,
    classify,
    in_complement,
    lattice_from_edges,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LATTICES = {
    "A2": chain_lattice(2),
    "A3": chain_lattice(3),
    "D4": lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)]),
    "E6": lattice_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "E8": lattice_from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)]),
}

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def reference_forbidden(lat, p):
    for r in lat.positive_roots():
        if sum(o * c for o, c in zip(p.omega, r.coords)) == 0:
            level = sum(b * c for b, c in zip(p.beta, r.coords))
            if level.denominator == 1:
                return r, int(level)
    return None


@st.composite
def lattice_and_point(draw):
    lat = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    beta = list(draw(st.lists(rationals, min_size=lat.n, max_size=lat.n)))
    omega = list(draw(st.lists(rationals, min_size=lat.n, max_size=lat.n)))
    move = draw(st.sampled_from(["none", "wall", "level", "descent", "descent_level"]))
    if move.startswith("descent"):
        # a reduced word: appending i lengthens w exactly when its key
        # w^-1 rho has a positive i-th coordinate
        word, key = [], (1,) * lat.n
        for _ in range(draw(st.integers(0, len(lat.positive_roots())))):
            up = [j + 1 for j, x in enumerate(key) if x > 0]
            if not up:
                break
            word.append(draw(st.sampled_from(up)))
            key = lat.coreflect(word[-1], key)
        w = lat.weyl_from_word(word)
        zeros = draw(st.sets(st.integers(0, lat.n - 1), min_size=1, max_size=min(3, lat.n)))
        dominant = [0 if j in zeros else abs(x) + 1 for j, x in enumerate(omega)]
        omega = list(w.apply_dual(dominant))
        if move == "descent_level":
            # put beta . v = k on v = w(u) for a positive root u on the zeros
            on_zeros = [r.coords for r in lat.positive_roots()
                        if all(c == 0 or j in zeros for j, c in enumerate(r.coords))]
            u = draw(st.sampled_from(on_zeros))
            v = tuple(sum(row[j] * c for j, c in enumerate(u)) for row in w.mat)
            j = draw(st.sampled_from([j for j, c in enumerate(v) if c]))
            k = draw(st.integers(-4, 4))
            beta[j] += (k - sum(b * c for b, c in zip(beta, v))) / v[j]
    elif move != "none":
        # shift one coordinate so that omega . v = 0, and for "level" also
        # beta . v = k, on a chosen positive root v
        v = draw(st.sampled_from(lat.positive_roots())).coords
        j = draw(st.sampled_from([j for j, c in enumerate(v) if c]))
        omega[j] -= sum(o * c for o, c in zip(omega, v)) / v[j]
        if move == "level":
            k = draw(st.integers(-4, 4))
            beta[j] += (k - sum(b * c for b, c in zip(beta, v))) / v[j]
    return lat, ComplexDivisor(tuple(beta), tuple(omega)), move


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(lattice_and_point())
def test_integer_scan_matches_fraction_scan(case):
    lat, p, move = case
    ref = reference_forbidden(lat, p)
    if move.endswith("level"):
        assert ref is not None
    assert in_complement(lat, p) == (ref is None)
    label = classify(lat, p)
    if ref is None:
        assert not isinstance(label, Forbidden)
    else:
        assert label == Forbidden(*ref)
        assert type(label.level) is int

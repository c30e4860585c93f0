"""The integer forbidden-locus scan agrees with a Fraction reference scan.

`in_complement` and `classify` test omega . v = 0 and the integrality of
beta . v on integer numerators over one common denominator.  This
property replays the same scan in plain Fraction arithmetic on random
points of four ADE trees, including points moved onto an integral
level (negative ones among them) of a vanishing root.
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
    move = draw(st.sampled_from(["none", "wall", "level"]))
    if move != "none":
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
    if move == "level":
        assert ref is not None
    assert in_complement(lat, p) == (ref is None)
    label = classify(lat, p)
    if ref is None:
        assert not isinstance(label, Forbidden)
    else:
        assert label == Forbidden(*ref)
        assert type(label.level) is int

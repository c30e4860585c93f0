"""Closed loops in a generic beta slice never lift to chambers judged distinct.

With beta given a distinct prime denominator per coordinate, above every
root coefficient, no root pairs integrally with beta.  The whole omega
slice at that beta then lies in the complement of the forbidden locus and
is contractible, so by the covering theorem every closed omega-polygon
lifts to a loop that ends in its start chamber.  same_chamber may leave
that undecided, but it must never answer DISTINCT.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from stabwalk import (
    DISTINCT,
    ComplexDivisor,
    NonGenericCrossing,
    chain_lattice,
    fundamental_state,
    lattice_from_edges,
    lift_path,
    same_chamber,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LATTICES = {
    "A2": chain_lattice(2),
    "A3": chain_lattice(3),
    "D4": lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)]),
    "E6": lattice_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
}
PRIMES = (7, 11, 13, 17, 19, 23)  # each above every E6 root coefficient


@st.composite
def slice_loop(draw):
    lat = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    beta = tuple(Fraction(draw(st.integers(-3 * p, 3 * p).filter(lambda a, p=p: a % p)), p)
                 for p in PRIMES[:lat.n])
    coord = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))
    vertices = draw(st.lists(st.tuples(*[coord] * lat.n), min_size=2, max_size=4))
    return lat, beta, vertices


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(slice_loop())
def test_closed_slice_loops_never_end_distinct(case):
    lat, beta, vertices = case
    start = fundamental_state(lat, ComplexDivisor(beta, (Fraction(1),) * lat.n))
    loop = [start.position] + [ComplexDivisor(beta, o) for o in vertices] + [start.position]
    try:
        end = lift_path(lat, loop, start)
    except NonGenericCrossing:
        hypothesis.reject()
    assert end.position == start.position
    assert same_chamber(start, end) != DISTINCT

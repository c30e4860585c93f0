from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import stabwalk.covering as covering_mod
from stabwalk import serialize
from stabwalk import (
    DISTINCT,
    EQUAL,
    UNDECIDED,
    BaseMismatch,
    ComplexDivisor,
    Crossing,
    DimensionMismatch,
    Flop,
    IndexOutOfRange,
    LiftState,
    NonGenericCrossing,
    PathHitsForbidden,
    StartNotGeneric,
    Twist,
    WeylElement,
    affine_identity,
    chain_lattice,
    crossing_generator,
    default_basepoint,
    fundamental_state,
    invert,
    isolating_depth,
    lattice_from_edges,
    lift_path,
    meridian,
    meridian_waypoints,
    same_chamber,
    stack_theta,
    stack_word,
    strip_chamber_census,
    theta,
    word,
)
from stabwalk.cli import main as cli_main


def _pt(beta, omega):
    return ComplexDivisor(tuple(Fraction(x) for x in beta), tuple(Fraction(x) for x in omega))


def test_crossing_generator_letters():
    lat = chain_lattice(2)
    assert crossing_generator(lat, 1, 0) == word((Flop(1),))
    assert crossing_generator(lat, 1, 3) == word((Twist((3, 0)), Flop(1)))
    assert crossing_generator(lat, 2, -1) == word((Twist((0, -1)), Flop(2)))
    with pytest.raises(IndexOutOfRange):
        crossing_generator(lat, 3, 0)


def test_crossing_generator_flips_its_strip():
    # the shadow of gamma_(1, k) carries beta offsets k - 1 + t to 1 - t
    lat = chain_lattice(1)
    for k in (-2, 0, 1, 4):
        g = theta(lat, crossing_generator(lat, 1, k))
        for t in (Fraction(1, 4), Fraction(2, 3)):
            assert g.apply((k - 1 + t,)) == (1 - t,)


def test_single_crossing():
    lat = chain_lattice(1)
    end = lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([Fraction(1, 2)], [-1])])
    assert end.stack == (Crossing(1, 1),)
    assert end.theta.linear == ((-1,),) and end.theta.trans == (1,)
    assert len(end.trace) == 1
    ev = end.trace[0]
    assert (ev.segment, ev.time, ev.curve, ev.strip, ev.action) == (0, Fraction(1, 2), 1, 1, "push")
    assert ev.point == _pt([Fraction(1, 2)], [0])
    assert ev.framed == _pt([Fraction(1, 2)], [0])


def test_recrossing_pops():
    lat = chain_lattice(1)
    down = _pt([Fraction(1, 2)], [-1])
    base = default_basepoint(lat)
    mid = lift_path(lat, [base, down])
    back = lift_path(lat, [down, base], mid)
    assert back.stack == ()
    assert back.theta.is_identity
    assert back == fundamental_state(lat)
    assert [e.action for e in back.trace] == ["push", "pop"]


def test_rectangle_is_a_pure_twist():
    lat = chain_lattice(1)
    pts = meridian_waypoints(lat, 1, 0)
    assert pts == [
        _pt([Fraction(1, 2)], [1]),
        _pt([Fraction(1, 2)], [-1]),
        _pt([Fraction(-1, 2)], [-1]),
        _pt([Fraction(-1, 2)], [1]),
        _pt([Fraction(1, 2)], [1]),
    ]
    end = lift_path(lat, pts)
    assert end.stack == (Crossing(1, 1), Crossing(1, 2))
    assert end.theta.is_translation
    assert end.theta.trans == (-1,)


def test_meridian_conifold():
    lat = chain_lattice(1)
    deck = meridian(lat, 1, 0)
    assert deck.reduced_stack == (Crossing(1, 1), Crossing(1, 2))
    assert deck.word.gens == (
        Twist((1,)), Flop(1), Twist((2,)), Flop(1), Twist((1,)))
    assert theta(lat, deck.word).is_identity


def test_meridian_strip_family():
    lat = chain_lattice(1)
    for k in range(-2, 3):
        deck = meridian(lat, 1, k)
        assert deck.reduced_stack == (Crossing(1, k + 1), Crossing(1, 2))
        raw = stack_theta(lat, deck.reduced_stack)
        assert raw.is_translation and raw.trans == (k - 1,)
        assert theta(lat, deck.word).is_identity


def test_meridian_off_center_base():
    lat = chain_lattice(1)
    deck = meridian(lat, 1, 1, base=_pt([Fraction(3, 2)], [1]))
    assert deck.reduced_stack == (Crossing(1, 2), Crossing(1, 2))
    assert stack_theta(lat, deck.reduced_stack).is_identity
    assert deck.word == stack_word(lat, deck.reduced_stack)


def test_meridian_on_larger_trees():
    a2 = chain_lattice(2)
    for i in (1, 2):
        deck = meridian(a2, i, 0)
        assert deck.reduced_stack == (Crossing(i, 1), Crossing(i, 2))
        assert theta(a2, deck.word).is_identity
    a3 = chain_lattice(3)
    deck = meridian(a3, 2, 1)
    assert deck.reduced_stack == (Crossing(2, 2), Crossing(2, 2))
    d4 = lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)])
    deck = meridian(d4, 2, 0)
    assert deck.reduced_stack == (Crossing(2, 1), Crossing(2, 2))
    assert theta(d4, deck.word).is_identity


def test_meridian_backtracks_to_start():
    lat = chain_lattice(2)
    pts = meridian_waypoints(lat, 1, 0)
    end = lift_path(lat, pts)
    home = lift_path(lat, list(reversed(pts)), end)
    assert home.stack == ()
    assert home.theta.is_identity
    assert home.position == pts[0]


def test_isolating_depth():
    assert isolating_depth(chain_lattice(1), (Fraction(1),), 1) == 1
    assert isolating_depth(chain_lattice(2), (Fraction(1), Fraction(1)), 1) == Fraction(1, 2)
    d4 = lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)])
    assert isolating_depth(d4, (Fraction(1),) * 4, 2) == Fraction(1, 2)
    # a faraway coordinate shrinks the safe depth through non-simple roots
    assert isolating_depth(chain_lattice(2), (Fraction(1), Fraction(1, 4)), 1) == Fraction(1, 8)
    # i - 1 must not index from the end: 0 and -1 are refused like n + 1
    a3 = chain_lattice(3)
    for i in (0, -1, 4):
        for call in (lambda: isolating_depth(a3, (Fraction(1),) * 3, i),
                     lambda: strip_chamber_census(a3, curve=i),
                     lambda: meridian_waypoints(a3, i, 0)):
            with pytest.raises(IndexOutOfRange, match=rf"^curve index {i} not in 1\.\.3$"):
                call()


def test_isolating_depth_refuses_a_wrong_length_omega():
    # a short omega used to raise a bare IndexError, a long one gave 1/2
    a3 = chain_lattice(3)
    for n in (2, 4):
        with pytest.raises(DimensionMismatch,
                           match=rf"^omega length {n} differs from lattice rank 3$"):
            isolating_depth(a3, (Fraction(1),) * n, 3)


def test_same_chamber_rank_one():
    lat = chain_lattice(1)
    base = default_basepoint(lat)
    a = lift_path(lat, [base, _pt([Fraction(1, 2)], [-1])])
    b = lift_path(lat, [base, _pt([Fraction(3, 2)], [1]), _pt([Fraction(3, 2)], [-1])])
    assert same_chamber(a, a) == EQUAL
    assert a.stack == (Crossing(1, 1),) and b.stack == (Crossing(1, 2),)
    assert same_chamber(a, b) == DISTINCT


def test_same_chamber_three_valued():
    lat = chain_lattice(2)
    base = default_basepoint(lat)
    sa = (Crossing(1, 0), Crossing(1, 0))
    sb = (Crossing(2, 0), Crossing(2, 0))
    ta, tb = stack_theta(lat, sa), stack_theta(lat, sb)
    assert ta.is_identity and tb.is_identity
    a = LiftState(lat, base, base, sa, ta)
    b = LiftState(lat, base, base, sb, tb)
    assert same_chamber(a, b) == UNDECIDED
    c = LiftState(lat, base, base, (Crossing(1, 1),), stack_theta(lat, (Crossing(1, 1),)))
    assert same_chamber(a, c) == DISTINCT


def test_same_chamber_base_checks():
    lat = chain_lattice(1)
    a = fundamental_state(lat)
    b = fundamental_state(lat, _pt([Fraction(1, 3)], [1]))
    with pytest.raises(BaseMismatch):
        same_chamber(a, b)
    with pytest.raises(BaseMismatch):
        same_chamber(a, fundamental_state(chain_lattice(2)))


def test_framed_omega_stays_ample():
    lat = chain_lattice(2)
    rng = random.Random(41)
    done = 0
    while done < 40:
        pts = [default_basepoint(lat)]
        for _ in range(2):
            pts.append(_pt(
                [Fraction(rng.randrange(-12, 13), 4) for _ in range(2)],
                [Fraction(rng.randrange(-12, 13), 4) for _ in range(2)]))
        try:
            end = lift_path(lat, pts)
        except (NonGenericCrossing, PathHitsForbidden):
            continue
        done += 1
        inv = theta(lat, invert(stack_word(lat, end.stack)))
        assert all(x > 0 for x in inv.weyl.apply_dual(end.position.omega))
        assert end.position == pts[-1]


def test_start_state_validation():
    lat = chain_lattice(1)
    with pytest.raises(StartNotGeneric):
        fundamental_state(lat, _pt([0], [0]))
    with pytest.raises(StartNotGeneric):
        fundamental_state(lat, _pt([Fraction(1, 2)], [-1]))
    with pytest.raises(StartNotGeneric):
        lift_path(lat, [])
    with pytest.raises(StartNotGeneric):
        lift_path(lat, [_pt([Fraction(1, 3)], [1])], fundamental_state(lat))
    # the meridian stack shadows a translation by -1, not the identity
    base = default_basepoint(lat)
    stack = (Crossing(1, 1), Crossing(1, 2))
    good = LiftState(lat, base, base, stack, stack_theta(lat, stack))
    assert lift_path(lat, [base], good).theta == good.theta
    with pytest.raises(StartNotGeneric):
        lift_path(lat, [base], LiftState(lat, base, base, stack, affine_identity(lat)))
    # a non-empty stack whose theta agrees but frames omega out of the cone
    one = (Crossing(1, 1),)
    with pytest.raises(StartNotGeneric, match="not strictly ample"):
        lift_path(lat, [base], LiftState(lat, base, base, one, stack_theta(lat, one)))


TWO_PIECE_LATTICES = {
    "A3": chain_lattice(3),
    "D4": lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)]),
    "E6": lattice_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
}


@pytest.mark.parametrize("name", sorted(TWO_PIECE_LATTICES))
def test_lifting_in_two_pieces_equals_lifting_once(name):
    lat = TWO_PIECE_LATTICES[name]
    rng = random.Random(f"two-pieces-{name}")
    # distinct prime denominators above every root coefficient: no root
    # pairs integrally with beta, so no point over it is forbidden
    primes = rng.sample([5, 7, 11, 13, 17, 19], lat.n)
    beta = tuple(Fraction(rng.choice([a for a in range(-2 * p, 2 * p) if a % p]), p)
                 for p in primes)
    start = fundamental_state(lat, _pt(beta, [1] * lat.n))
    split = 0
    while split < 6:
        pts = [start.position] + [
            _pt(beta, [Fraction(rng.randrange(-60, 61), 16) for _ in range(lat.n)])
            for _ in range(4)]
        try:
            once = lift_path(lat, pts, start)
        except NonGenericCrossing:
            continue
        cut = rng.randrange(1, len(pts) - 1)
        mid = lift_path(lat, pts[:cut + 1], start)
        if not mid.stack:
            continue
        split += 1
        twice = lift_path(lat, pts[cut:], mid)
        assert twice == once and twice.theta == stack_theta(lat, once.stack)
        # the second call counts its segments from its own start
        shifted = mid.trace + tuple(
            replace(ev, segment=ev.segment + cut) for ev in twice.trace[len(mid.trace):])
        assert shifted == once.trace


def test_default_start_is_validated_once(monkeypatch, tmp_path, capsys):
    calls = Counter()

    def counting(name):
        fn = getattr(covering_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(covering_mod, name, wrapper)

    counting("_validate_state")
    counting("in_complement")
    lat = chain_lattice(2)
    end = lift_path(lat, [default_basepoint(lat), _pt([Fraction(1, 3), Fraction(1, 2)], [2, 1])])
    assert end.stack == ()
    # one start check, one scan of the start point and one of the breakpoint
    assert calls == {"_validate_state": 1, "in_complement": 2}
    calls.clear()
    meridian(lat, 1, 0)  # lifts nothing: one check of the base
    assert calls == {"_validate_state": 1, "in_complement": 1}
    calls.clear()
    strip_chamber_census(lat)  # eight lifts through two breakpoints each
    assert calls == {"_validate_state": 8, "in_complement": 24}
    calls.clear()
    graph = tmp_path / "a2.json"
    graph.write_text(json.dumps({"n_curves": 2, "edges": [[1, 2]]}))
    assert cli_main(["plot", "--graph", str(graph), "--meridian", "0"]) == 0
    assert capsys.readouterr().out.startswith("<svg")
    assert calls == {"_validate_state": 1, "in_complement": 5}


def test_push_builds_no_frame_from_identity(monkeypatch):
    import stabwalk.fm_words as fm_words_mod

    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((fm_words_mod, "theta"), (fm_words_mod.AffineMap, "compose"),
                        (ComplexDivisor, "__post_init__")):
        counting(owner, name)
    dual_mat = WeylElement.dual_mat.fget

    def counting_dual_mat(w):
        calls["dual_mat"] += 1
        return dual_mat(w)
    monkeypatch.setattr(WeylElement, "dual_mat", property(counting_dual_mat))
    lat = lattice_from_edges(4, [(1, 2), (2, 3), (2, 4)])
    beta = (Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(5, 17))
    start = fundamental_state(lat, _pt(beta, [1, 1, 1, 1]))
    far = _pt(beta, [-1, Fraction(-2, 3), Fraction(-3, 2), Fraction(-1, 2)])
    calls.clear()
    assert lift_path(lat, [start.position], start).trace == ()
    still = dict(calls)
    calls.clear()
    end = lift_path(lat, [start.position, far, start.position], start)
    actions = Counter(ev.action for ev in end.trace)
    assert actions == {"push": 12, "pop": 12} and end.stack == ()
    # theta is built in closed form, never from a word and never as a matrix,
    # and no event builds its points until they are read
    assert calls == still == {}
    ev = end.trace[5]
    assert ev.point.n == 4 and calls == {"__post_init__": 1}
    assert ev.framed.omega[ev.curve - 1] == 0 and calls == {"__post_init__": 2}
    calls.clear()
    # the counters are live: composing builds no matrix, output builds one
    composed = stack_theta(lat, (Crossing(1, 2), Crossing(3, 0))).compose(end.theta)
    assert calls == {"compose": 1}
    serialize.affine_json(composed)
    assert calls["dual_mat"] == 1


def test_simultaneous_crossing_rejected():
    lat = chain_lattice(2)
    base = _pt([Fraction(1, 2), Fraction(1, 3)], [1, 1])
    with pytest.raises(NonGenericCrossing):
        lift_path(lat, [base, _pt([Fraction(1, 2), Fraction(1, 3)], [-1, -1])],
                  fundamental_state(lat, base))


def test_breakpoint_on_wall_rejected():
    lat = chain_lattice(1)
    with pytest.raises(NonGenericCrossing):
        lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([Fraction(1, 2)], [0])])


def test_forbidden_crossing_rejected():
    lat = chain_lattice(1)
    with pytest.raises(PathHitsForbidden):
        lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([Fraction(-1, 2)], [-1])])
    with pytest.raises(PathHitsForbidden):
        lift_path(lat, [_pt([Fraction(1, 2)], [1]), _pt([0], [0])])


def test_census_finds_two_chambers_per_strip():
    n1 = chain_lattice(1)
    assert strip_chamber_census(n1) == ((), (Crossing(1, 1),))
    a2 = chain_lattice(2)
    assert strip_chamber_census(a2, curve=1) == ((), (Crossing(1, 1),))
    assert strip_chamber_census(a2, curve=2) == ((), (Crossing(2, 1),))

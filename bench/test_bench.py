"""Tests of the benchmark itself: each oracle flags a corrupted output, and
inputs are a function of the seed.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as C  # noqa: E402
import gen  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

F = Fraction


@pytest.fixture(scope="module")
def sw():
    return W.load_program(cli=True)


@pytest.fixture(scope="module")
def lats(sw):
    return W.build_lattices(sw, W.fixtures())


# -- the oracles agree with closed forms and with each other ---------------------------------

@pytest.mark.parametrize("name", sorted(O.FIXTURES))
def test_root_oracle_matches_closed_form(name):
    fx = O.Fixture(name)
    assert len(fx.roots) == fx.n_positive
    assert all(O.pair(fx.gram, v, v) == -2 for v in fx.roots)


def test_closed_forms():
    assert O.closed_form("A", 3) == (6, 24)
    assert O.closed_form("D", 4) == (12, 192)
    assert O.closed_form("D", 5) == (20, 1920)
    assert O.closed_form("E", 6) == (36, 51840)


def test_word_matrix_is_the_product_of_reflections():
    fx = O.Fixture("D4")
    word = (1, 2, 4, 2, 3)
    m = O.identity(4)
    for i in word:
        m = O.mat_mul(m, O.reflection_matrix(fx.gram, i))
    assert O.word_matrix(fx, word) == m
    assert O.in_orthogonal_group(fx.gram, m)


# -- each oracle flags a corrupted output -------------------------------------------------------

def _validate_payload(fx):
    return {"valid": True, "n_curves": fx.n, "edges": [list(e) for e in fx.edges],
            "gram": [list(r) for r in fx.gram], "root_count": 2 * fx.n_positive,
            "weyl_order": fx.weyl_order}


@pytest.mark.parametrize("field, value", [
    ("gram", [[-2, 1, 0], [1, -2, 0], [0, 0, -2]]),
    ("root_count", 10),
    ("weyl_order", 23),
    ("weyl_order", None),
])
def test_validate_check_flags_corruption(field, value):
    fx = O.Fixture("A3")
    payload = _validate_payload(fx)
    assert W._check_validate(fx, payload) is None
    payload[field] = value
    assert W._check_validate(fx, payload) is not None


def test_roots_check_flags_a_missing_or_extra_root():
    fx = O.Fixture("A3")
    roots = [list(v) for v in fx.roots]
    assert W._check_roots(fx, True, {"count": 6, "roots": roots}) is None
    assert W._check_roots(fx, True, {"count": 5, "roots": roots[:-1]}) is not None
    assert W._check_roots(fx, True, {"count": 6, "roots": roots[:-1] + [[1, 0, 1]]}) is not None


def test_weyl_check_flags_a_non_isometry_and_a_wrong_word(sw):
    fx = O.Fixture("A2")
    lat = sw.chain_lattice(2)
    elements = [{"mat": [list(r) for r in w.mat], "dual_mat": [list(r) for r in w.dual_mat],
                 "word": list(w.word)} for w in lat.enumerate_weyl()]
    assert W._check_weyl(fx, True, {"order": 6, "elements": elements}) is None
    bad = json.loads(json.dumps(elements))
    bad[3]["mat"][0][0] += 1
    assert W._check_weyl(fx, True, {"order": 6, "elements": bad}) is not None
    bad = json.loads(json.dumps(elements))
    bad[3]["word"] = bad[3]["word"] + [1]
    assert W._check_weyl(fx, True, {"order": 6, "elements": bad}) is not None
    assert W._check_weyl(fx, False, {"order": 5}) is not None
    assert not O.in_orthogonal_group(fx.gram, ((1, 0), (0, F(1))))


def _label_case(sw, lats, name, kind, far, seed=3):
    fx = O.Fixture(name)
    beta, omega = gen.point(fx, gen.rng_for(seed, "test", name, kind), kind, far)
    label, heart, report = W._run_point(sw, lats[name], sw.ComplexDivisor(beta, omega))
    return fx, beta, omega, W.plain_label(label), heart, report


@pytest.mark.parametrize("kind", ["ample_chamber", "wall_strip", "deep_stratum", "forbidden"])
def test_label_check_flags_a_wrong_kind(sw, lats, kind):
    fx, beta, omega, lab, _, _ = _label_case(sw, lats, "D4", kind, True)
    assert C.check_label(fx, beta, omega, lab) is None
    other = "wall_strip" if kind != "wall_strip" else "deep_stratum"
    assert C.check_label(fx, beta, omega, dict(lab, kind=other)) is not None


def test_label_check_flags_a_wrong_strip_frame_or_level(sw, lats):
    fx, beta, omega, lab, _, _ = _label_case(sw, lats, "A3", "wall_strip", True)
    assert C.check_label(fx, beta, omega, dict(lab, strip=lab["strip"] + 1)) is not None
    assert C.check_label(fx, beta, omega, dict(lab, word=lab["word"] + (1, 1))) is not None
    fx, beta, omega, lab, _, _ = _label_case(sw, lats, "E6", "deep_stratum", True)
    strips = ((lab["strips"][0][0], lab["strips"][0][1] - 1),) + tuple(lab["strips"][1:])
    assert C.check_label(fx, beta, omega, dict(lab, strips=strips)) is not None
    fx, beta, omega, lab, _, _ = _label_case(sw, lats, "A3", "forbidden", False)
    assert C.check_label(fx, beta, omega, dict(lab, level=lab["level"] + 1)) is not None


def test_heart_check_flags_a_wrong_charge_or_verdict(sw, lats):
    fx, beta, omega, lab, heart, report = _label_case(sw, lats, "A4", "wall_strip", False)
    h, r = W.plain_report(heart, report)
    assert C.check_heart(fx, beta, omega, lab, h, r) is None
    a, m, tag, re, im, ok = r["entries"][1]
    entries = list(r["entries"])
    entries[1] = (a, m, tag, re + F(1, 3), im, ok)
    assert C.check_heart(fx, beta, omega, lab, h, dict(r, entries=entries)) is not None
    assert C.check_heart(fx, beta, omega, lab, h, dict(r, passed=False)) is not None


def _lift(sw, lats, name, depth, hops, closed, seed=4):
    fx = O.Fixture(name)
    events = W.lift_events(depth)
    path = gen.generic_path(fx, gen.rng_for(seed, "test", name), depth, hops, closed, events)
    lat = lats[name]
    pts = [sw.ComplexDivisor(b, o) for b, o in path]
    start = sw.fundamental_state(lat, pts[0])
    end, _ = W._run_lift(sw, lat, pts, start, False)
    return fx, path, events, W.plain_state(end, start)


def test_lift_check_flags_a_wrong_event_count_or_residue(sw, lats):
    fx, path, events, end = _lift(sw, lats, "A3", 3, 2, False)
    assert C.check_lift(fx, path, events, False, end) is None
    assert C.check_lift(fx, path, events + 2, False, end) is not None
    residue = dict(end, stack=((1, 1),), linear=fx.coreflections[0], trans=(1, 0, 0))
    assert C.check_lift(fx, path, events, False, residue) is not None


def test_closed_loop_check_flags_a_theta_off_the_stack(sw, lats):
    fx, path, events, end = _lift(sw, lats, "A2", 2, 3, True)
    assert C.check_lift(fx, path, events, True, end) is None
    shifted = dict(end, trans=tuple(x + 1 for x in end["trans"]))
    assert C.check_lift(fx, path, events, True, shifted) is not None


def test_meridian_check_flags_a_corrupted_word_or_stack(sw, lats):
    fx = O.Fixture("D5")
    deck = sw.meridian(lats["D5"], 3, 2)
    stack = tuple((c.curve, c.strip) for c in deck.reduced_stack)
    word = W.letters(deck.word)
    assert C.check_meridian(fx, 3, 2, stack, word) is None
    assert C.check_meridian(fx, 3, 1, stack, word) is not None
    twisted = word[:-1] + [("twist", tuple(x + 1 for x in word[-1][1]))]
    assert C.check_meridian(fx, 3, 2, stack, twisted) is not None


def test_genericity_filter_rejects_walls_double_crossings_and_forbidden_crossings():
    fx = O.Fixture("A2")
    base = gen.basepoint(2)
    on_wall = (base[0], (F(0), F(1)))
    assert O.path_crossings(fx.roots, [base, on_wall]) is None
    beta = (F(1, 3), F(1, 5))
    # through omega = 0: every wall at the same instant
    assert O.path_crossings(fx.roots, [(beta, (F(1), F(1))), (beta, (F(-1), F(-1)))]) is None
    # crosses omega_1 = 0 at beta_1 = 1
    beta = (F(1), F(1, 2))
    assert O.path_crossings(fx.roots, [(beta, (F(1), F(1))), (beta, (F(-1), F(2)))]) is None
    assert O.path_crossings(fx.roots, [((F(2, 3), F(1, 2)), (F(1), F(1))),
                                       ((F(2, 3), F(1, 2)), (F(-1), F(2)))]) is not None
    assert O.path_crossings(fx.roots, [base, (base[0], (F(-1), F(3)))]) is not None


def test_svg_check_flags_non_xml_and_missing_markers():
    svg = ('<svg xmlns="http://www.w3.org/2000/svg"><circle r="4" stroke="#cc3300"/>'
           '<circle r="4" stroke="#cc3300"/></svg>')
    assert C.check_svg(svg, 2) is None
    assert C.check_svg(svg, 3) is not None
    assert C.check_svg(svg[:-3], 2) is not None
    assert C.check_svg(svg.replace("<svg ", "<html "), 2) is not None


def test_reject_check_wants_one_json_error_object():
    good = (2, "", '{"error": "NotATree", "message": "cycle"}\n')
    assert W._cli_reject((2,), good) is None
    assert W._cli_reject((1,), good) is not None
    assert W._cli_reject((2,), (2, "", good[2] * 2)) is not None
    assert W._cli_reject((2,), (2, "x", good[2])) is not None
    assert W._cli_reject((2,), (2, "", "Traceback (most recent call last):\n")) is not None


def test_charge_check_flags_a_wrong_value():
    beta, omega = (F(1, 2), F(1, 3)), (F(1), F(2))
    re, im = O.charge(beta, omega, 1, (1, 1))
    good = {"re": str(re), "im": str(im), "in_sector": im > 0}
    assert W._check_charge(beta, omega, 1, (1, 1), good) is None
    assert W._check_charge(beta, omega, 1, (1, 1), dict(good, re=str(re + 1))) is not None
    assert W._check_charge(beta, omega, 1, (1, 1), dict(good, in_sector=False)) is not None


# -- generation is a function of the seed ---------------------------------------------------------

def _inputs(seed):
    out = []
    for name in ("A1", "A3", "D4", "E6"):
        fx = O.Fixture(name)
        out.append(gen.point_mix(fx, gen.rng_for(seed, "p", name)))
        depth = min(2, fx.n_positive)
        out.append(gen.generic_path(fx, gen.rng_for(seed, "l", name), depth, 2, False, 2 * depth + 2))
        out.append(gen.wall_disc_loop(fx, gen.rng_for(seed, "w", name), min(2, fx.n_positive - 1)))
        out.append(gen.meridian_picks(fx, gen.rng_for(seed, "m", name)))
    return out


def test_generation_is_deterministic_for_a_seed():
    assert _inputs(1) == _inputs(1)
    assert _inputs(1) != _inputs(2)


def test_generated_points_have_the_requested_kind_and_descent():
    fx = O.Fixture("E7")
    rng = gen.rng_for(9, "kinds")
    for kind in ("ample_chamber", "wall_strip", "deep_stratum", "forbidden"):
        beta, omega = gen.point(fx, rng, kind, True)
        assert O.label_kind(fx.roots, beta, omega) == kind
    beta, omega = gen.point(fx, rng, "ample_chamber", True)
    assert sum(1 for v in fx.roots if O.dot(omega, v) < 0) == 3 * fx.n_positive // 4


def test_codim2_loops_are_generic_and_independent_of_the_seed():
    for name, path in gen.CODIM2_LOOPS:
        fx = O.Fixture(name)
        assert O.path_crossings(fx.roots, path) is not None
        assert path[0] == path[-1]


# -- one round of each workload: only the known faults fail ----------------------------------------

@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_one_round_has_only_known_faults(workload, tmp_path):
    ops = W.WORKLOADS[workload](2, tmp_path)
    outs, times, _ = run.run_round(ops)
    verdicts = run.Verdicts()
    verdicts.record(ops, outs)
    assert verdicts.correct, verdicts.messages
    assert verdicts.failed == sum(1 for op in ops if op.fault)

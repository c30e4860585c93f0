"""Output checks shared by the library and the CLI workloads.

Each check takes the program's output in a plain form (tuples, ints and
Fractions, the same whether it came from objects or from JSON) and
returns None when the output agrees with the oracles, or a message.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

import oracles as O

SVG_ROOT = "{http://www.w3.org/2000/svg}svg"


def check_frame(fx: O.Fixture, mat, word, dual_mat=None):
    if not O.in_orthogonal_group(fx.gram, mat):
        return f"frame {mat} is not an integral isometry of the gram form"
    if word is not None and O.word_matrix(fx, word) != tuple(tuple(r) for r in mat):
        return f"frame matrix differs from the product of its word {word}"
    if dual_mat is not None and O.mat_mul(O.transpose(mat), dual_mat) != O.identity(fx.n):
        return "dual_mat is not the inverse transpose of mat"
    return None


def check_label(fx: O.Fixture, beta, omega, lab: dict):
    """A stratum label against the root scan and the framed point."""
    expected = O.label_kind(fx.roots, beta, omega)
    if lab["kind"] != expected:
        return f"label kind {lab['kind']}, oracle says {expected}"
    if expected == "forbidden":
        v = tuple(lab["root"])
        if v not in fx.roots or O.dot(omega, v) != 0 or O.dot(beta, v) != lab["level"]:
            return f"forbidden root {v} at level {lab['level']} does not vanish there"
        return None
    mat, word = lab["mat"], lab["word"]
    bad = check_frame(fx, mat, word, lab.get("dual_mat"))
    if bad:
        return bad
    if word is not None and len(word) != sum(1 for v in fx.roots if O.dot(omega, v) < 0):
        return f"frame word of length {len(word)} is not the minimal descent"
    fb = O.mat_vec(O.transpose(mat), beta)
    fo = O.mat_vec(O.transpose(mat), omega)
    if any(x < 0 for x in fo):
        return "framed omega is not in the closed fundamental cone"
    zeros = tuple(j + 1 for j, x in enumerate(fo) if x == 0)
    strips = tuple((i, O.strip_of(fb[i - 1])) for i in zeros)
    got = {"ample_chamber": (), "wall_strip": ((lab.get("curve"), lab.get("strip")),),
           "deep_stratum": tuple(tuple(s) for s in lab.get("strips", ()))}[expected]
    if got != strips:
        return f"label strips {got}, framed point gives {strips}"
    if expected == "deep_stratum" and tuple(lab["vanishing"]) != zeros:
        return f"vanishing {lab['vanishing']}, framed point gives {zeros}"
    return None


def label_strips(lab: dict) -> tuple:
    if lab["kind"] == "wall_strip":
        return ((lab["curve"], lab["strip"]),)
    return tuple(tuple(s) for s in lab.get("strips", ()))


def check_heart(fx: O.Fixture, beta, omega, lab: dict, heart: dict, report: dict):
    """Heart strips and frame, and every generator charge at the framed point."""
    if tuple(tuple(s) for s in heart["strips"]) != tuple(sorted(label_strips(lab))):
        return f"heart strips {heart['strips']} differ from the label"
    if tuple(tuple(r) for r in heart["mat"]) != tuple(tuple(r) for r in lab["mat"]):
        return "heart frame differs from the label frame"
    pinned = len(heart["strips"])
    if len(report["entries"]) != 1 + (fx.n - pinned) + 2 * pinned:
        return f"{len(report['entries'])} generators for {pinned} pinned curves"
    fb = O.mat_vec(O.transpose(lab["mat"]), beta)
    fo = O.mat_vec(O.transpose(lab["mat"]), omega)
    for point_mult, curve_mult, tag, re, im, ok in report["entries"]:
        if (re, im) != O.charge(fb, fo, point_mult, curve_mult):
            return f"charge of ({point_mult}, {curve_mult}) is {re} + {im}i"
        if ok != ((im > 0) if tag == "curve_family" else (im == 0 and re < 0)):
            return f"stability flag of ({point_mult}, {curve_mult}) is wrong"
    if not report["passed"]:
        return "stability check fails at the point of its own stratum"
    return None


def check_lift(fx: O.Fixture, path, events: int, closed: bool, end: dict):
    """A lift state: end point, crossing count and the recomposed frame map."""
    if end["position"] != path[-1]:
        return "lift does not end at the last point of the path"
    if end["events"] != events:
        return f"{end['events']} crossing events, oracle counts {events}"
    if (end["linear"], end["trans"]) != O.stack_theta(fx, end["stack"]):
        return "theta differs from the shadow recomposed from the stack"
    if closed and end["linear"] != O.identity(fx.n):
        return "closed loop ends with a theta that is not a translation"
    if not closed and (end["stack"] or any(end["trans"]) or end["pops"] * 2 != events):
        return f"back-and-forth lift ends with stack {end['stack']}"
    return None


def check_meridian(fx: O.Fixture, i: int, k: int, stack, letters, theta=None):
    """The stack of the rectangle, its pure-twist shadow and the normalized word."""
    if tuple(stack) != O.meridian_stack(i, k):
        return f"meridian ({i}, {k}) stack {stack}, expected {O.meridian_stack(i, k)}"
    linear, trans = O.stack_theta(fx, stack)
    if linear != O.identity(fx.n):
        return "meridian stack shadow is not a pure twist"
    expected = []
    for c, s in stack:
        if s:
            expected.append(("twist", tuple(s if j == c - 1 else 0 for j in range(fx.n))))
        expected.append(("flop", c))
    if any(trans):
        expected.append(("twist", tuple(-x for x in trans)))
    if list(letters) != expected:
        return f"meridian word {letters}, expected {expected}"
    identity = (O.identity(fx.n), (0,) * fx.n)
    if O.word_theta(fx, letters) != identity:
        return "normalized meridian word does not act trivially"
    if theta is not None and theta != identity:
        return "reported meridian theta is not the identity"
    return None


def check_svg(text: str, markers: int):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"plot output is not XML: {exc}"
    if root.tag != SVG_ROOT:
        return f"plot root element is {root.tag}"
    crossings = sum(1 for el in root.iter("{http://www.w3.org/2000/svg}circle")
                    if el.get("stroke") == "#cc3300")
    if crossings != markers:
        return f"plot marks {crossings} crossings, oracle counts {markers}"
    return None


def frac(x) -> Fraction:
    return Fraction(str(x))


def vec(xs) -> tuple:
    return tuple(frac(x) for x in xs)

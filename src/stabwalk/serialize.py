"""Canonical JSON encoding of every public value, byte stable.

Rationals travel as strings in lowest terms ("1/2", "-3", "7/3"); keys
are always emitted sorted, so equal values serialize to equal bytes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Dict, List, Sequence

from .charge import ComplexDivisor, ExactComplex, KClass
from .covering import Crossing, DeckElement, LiftState, TraceEvent
from .fm_words import AffineMap, FMWord, Flop, Twist
from .hearts import HeartDescriptor, StabilityReport
from .lattice import DualGraph, Root, WeylElement, build_graph
from .strata import AmpleChamber, DeepStratum, Forbidden, StratumLabel, WallStrip


def frac_str(x) -> str:
    return str(Fraction(x))


def parse_frac(s) -> Fraction:
    # a JSON integer or "p/q" only: Fraction() also reads exponents, as in "1e999999999"
    try:
        if type(s) is int or (isinstance(s, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s)):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass  # a zero denominator, or more digits than int() reads
    raise ValueError(f"not a rational: {json.dumps(s, default=repr)}")


def vec_json(v: Sequence) -> List[str]:
    return [frac_str(x) for x in v]


def parse_vec(xs) -> tuple:
    if not isinstance(xs, (list, tuple)):
        raise ValueError(f"expected a list of rationals, got {xs!r}")
    return tuple(parse_frac(x) for x in xs)


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- graphs ----------------------------------------------------------------

def parse_graph(data) -> DualGraph:
    if not isinstance(data, dict) or "n_curves" not in data:
        raise ValueError("graph JSON needs an object with n_curves and edges")
    return build_graph(data["n_curves"], data.get("edges", []))


# -- points and paths ------------------------------------------------------

def point_json(p: ComplexDivisor) -> Dict[str, Any]:
    return {"beta": vec_json(p.beta), "omega": vec_json(p.omega)}


def parse_point(data) -> ComplexDivisor:
    if not isinstance(data, dict) or "beta" not in data or "omega" not in data:
        raise ValueError("point JSON needs beta and omega lists")
    return ComplexDivisor(parse_vec(data["beta"]), parse_vec(data["omega"]))


def parse_path(data) -> List[ComplexDivisor]:
    if not isinstance(data, list):
        raise ValueError("path JSON must be a list of points")
    return [parse_point(p) for p in data]


# -- lattice values ----------------------------------------------------------

def root_json(r: Root) -> List[int]:
    return list(r.coords)


def weyl_json(w: WeylElement) -> Dict[str, Any]:
    return {
        "mat": [list(row) for row in w.mat],
        "dual_mat": [list(row) for row in w.dual_mat],
        "word": list(w.word),
    }


def charge_json(z: ExactComplex) -> Dict[str, str]:
    return {"re": frac_str(z.re), "im": frac_str(z.im)}


def kclass_json(c: KClass) -> Dict[str, Any]:
    return {"point_mult": c.point_mult, "curve_mult": list(c.curve_mult)}


def _json_int(name: str, x) -> int:
    # bool is an int subclass, and int() would truncate a float silently
    if type(x) is not int:
        raise ValueError(f"{name} takes JSON integers, not {json.dumps(x, default=repr)}")
    return x


def parse_kclass(data) -> KClass:
    if not isinstance(data, dict) or "point_mult" not in data or "curve_mult" not in data:
        raise ValueError("class JSON needs point_mult and curve_mult")
    return KClass(_json_int("point_mult", data["point_mult"]),
                  tuple(_json_int("curve_mult", x) for x in data["curve_mult"]))


# -- strata and hearts -------------------------------------------------------

def label_json(label: StratumLabel) -> Dict[str, Any]:
    if isinstance(label, AmpleChamber):
        return {"kind": label.kind, "weyl": weyl_json(label.weyl)}
    if isinstance(label, WallStrip):
        return {"kind": label.kind, "curve": label.curve, "strip": label.strip,
                "frame": weyl_json(label.frame)}
    if isinstance(label, DeepStratum):
        return {"kind": label.kind, "vanishing": list(label.vanishing),
                "strips": [list(s) for s in label.strips],
                "frame": weyl_json(label.frame)}
    if isinstance(label, Forbidden):
        return {"kind": label.kind, "root": root_json(label.root),
                "level": label.level}
    raise TypeError(f"not a stratum label: {label!r}")


def heart_json(h: HeartDescriptor) -> Dict[str, Any]:
    from .hearts import generators

    return {
        "kind": h.kind,
        "strips": [list(s) for s in h.strips],
        "frame": weyl_json(h.frame),
        "generators": [
            {"class": kclass_json(c), "tag": tag} for c, tag in generators(h)
        ],
    }


def report_json(r: StabilityReport) -> Dict[str, Any]:
    return {
        "passed": r.passed,
        "entries": [
            {"class": kclass_json(e.kclass), "tag": e.tag,
             "charge": charge_json(e.charge), "ok": e.ok}
            for e in r.entries
        ],
    }


# -- words, maps, lifts ------------------------------------------------------

def word_json(u: FMWord) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for g in u.gens:
        if isinstance(g, Twist):
            out.append({"twist": list(g.divisor)})
        elif isinstance(g, Flop):
            out.append({"flop": g.curve})
        else:
            raise TypeError(f"not a generator: {g!r}")
    return out


def affine_json(m: AffineMap) -> Dict[str, Any]:
    return {"linear": [list(row) for row in m.linear],
            "translation": list(m.trans)}


def crossing_json(c: Crossing) -> Dict[str, int]:
    return {"curve": c.curve, "strip": c.strip}


def trace_json(e: TraceEvent) -> Dict[str, Any]:
    return {"segment": e.segment, "time": frac_str(e.time), "curve": e.curve,
            "strip": e.strip, "action": e.action, "point": point_json(e.point),
            "framed": point_json(e.framed)}


def state_json(s: LiftState) -> Dict[str, Any]:
    return {
        "base": point_json(s.base),
        "position": point_json(s.position),
        "stack": [crossing_json(c) for c in s.stack],
        "theta": affine_json(s.theta),
        "trace": [trace_json(e) for e in s.trace],
    }


def deck_json(d: DeckElement) -> Dict[str, Any]:
    return {"word": word_json(d.word),
            "reduced_stack": [crossing_json(c) for c in d.reduced_stack]}

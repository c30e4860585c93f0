"""Command line front end.

Every command reads a dual graph from a JSON file, works in exact
rational arithmetic, and writes deterministic output: JSON with sorted
keys and "p/q" rational strings, a flat key: value table, or SVG for
plots.  Errors are reported as one JSON object on stderr and mapped to
documented exit codes:

    0  success
    1  unusable input (bad flags, unreadable files, malformed JSON)
    2  the graph is not a tree or its intersection form is not negative
       definite
    3  the input touches the forbidden locus
    4  a path fails genericity (wall tangency, double crossing, bad start)
    5  any other domain error
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from . import serialize
from .charge import central_charge
from .covering import (
    _fundamental_start,
    default_basepoint,
    fundamental_state,
    lift_path,
    meridian,
    meridian_waypoints,
    strip_chamber_census,
)
from .errors import (
    ForbiddenStratum,
    NonGenericCrossing,
    NotATree,
    NotNegativeDefinite,
    PathHitsForbidden,
    StabwalkError,
    StartNotGeneric,
)
from .fm_words import theta
from .hearts import heart_for_stratum, stability_check
from .lattice import WEYL_CAP_DEFAULT, RootLattice, build_lattice, chain_lattice
from .plot import plot_slice
from .strata import classify

EXIT_PARSE = 1
EXIT_BAD_GRAPH = 2
EXIT_FORBIDDEN = 3
EXIT_NON_GENERIC = 4
EXIT_DOMAIN = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # raise instead of exiting, so main reports bad flags as one JSON object
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--graph", metavar="FILE", help="dual graph JSON file")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    common.add_argument("--format", choices=("json", "table"), default=None,
                        help="output rendering (default json)")

    parser = _Parser(
        prog="stabwalk",
        description="chamber and wall-crossing combinatorics over a tree of rational curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common],
                   help="check the graph and report root and Weyl counts")

    p = sub.add_parser("roots", parents=[common], help="enumerate roots")
    p.add_argument("--positive", action="store_true", help="positive roots only")

    p = sub.add_parser("weyl", parents=[common], help="enumerate the reflection group")
    p.add_argument("--list", action="store_true", help="include all elements")
    p.add_argument("--cap", type=int, default=WEYL_CAP_DEFAULT,
                   help="abort enumeration beyond this many elements")

    p = sub.add_parser("classify", parents=[common], help="classify a point")
    p.add_argument("--point", required=True, metavar="JSON",
                   help='point literal {"beta": [...], "omega": [...]}')

    p = sub.add_parser("charge", parents=[common],
                       help="central charge of a class at a point")
    p.add_argument("--point", required=True, metavar="JSON")
    p.add_argument("--kclass", required=True, metavar="JSON",
                   help='class literal {"point_mult": a, "curve_mult": [...]}')

    p = sub.add_parser("heart-check", parents=[common],
                       help="heart of a point's stratum and its stability report")
    p.add_argument("--point", required=True, metavar="JSON")

    p = sub.add_parser("lift", parents=[common], help="lift a piecewise linear path")
    p.add_argument("--path", required=True, metavar="FILE",
                   help="JSON file with a list of points")

    p = sub.add_parser("meridian", parents=[common],
                       help="deck element of a loop around one wall puncture")
    p.add_argument("--curve", type=int, required=True)
    p.add_argument("--strip", type=int, required=True)
    p.add_argument("--base", metavar="JSON", help="optional basepoint literal")

    p = sub.add_parser("plot", parents=[common], help="SVG slice picture")
    p.add_argument("--curve", type=int, default=1, help="slice coordinate pair")
    p.add_argument("--point", metavar="JSON", help="slice base point literal")
    p.add_argument("--path", metavar="FILE", help="overlay and lift this path")
    p.add_argument("--meridian", metavar="K", type=int, default=None,
                   help="overlay the meridian rectangle around strip K of --curve")

    sub.add_parser("demo-conifold", parents=[common],
                   help="single curve end-to-end walkthrough")

    return parser


# built once: each build leaves hundreds of objects in reference cycles
_PARSER = build_parser()


def _load_graph(args) -> RootLattice:
    if not args.graph:
        raise ValueError("this command needs --graph FILE")
    with open(args.graph, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return build_lattice(serialize.parse_graph(data))


def _point_literal(text: str):
    return serialize.parse_point(json.loads(text))


def _load_path(path_file: str):
    with open(path_file, "r", encoding="utf-8") as fh:
        return serialize.parse_path(json.load(fh))


def cmd_validate(args) -> Dict[str, Any]:
    lat = _load_graph(args)
    return {
        "valid": True,
        "n_curves": lat.n,
        "edges": [list(e) for e in lat.graph.edges],
        "gram": [list(row) for row in lat.gram],
        "root_count": 2 * lat.positive_root_count,
        "weyl_order": lat.weyl_order,
    }


def cmd_roots(args) -> Dict[str, Any]:
    lat = _load_graph(args)
    roots = lat.positive_roots() if args.positive else lat.enumerate_roots()
    return {"count": len(roots), "roots": [serialize.root_json(r) for r in roots]}


def cmd_weyl(args) -> Dict[str, Any]:
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    lat = _load_graph(args)
    out: Dict[str, Any] = {"order": lat.capped_weyl_order(args.cap)}
    if args.list:
        out["elements"] = [serialize.weyl_json(w) for w in lat.enumerate_weyl(args.cap)]
    return out


def cmd_classify(args) -> Dict[str, Any]:
    lat = _load_graph(args)
    p = _point_literal(args.point)
    return serialize.label_json(classify(lat, p))


def cmd_charge(args) -> Dict[str, Any]:
    lat = _load_graph(args)
    p = _point_literal(args.point)
    c = serialize.parse_kclass(json.loads(args.kclass))
    if p.n != lat.n or c.n != lat.n:
        raise ValueError("point or class size differs from the graph")
    z = central_charge(p, c)
    out = serialize.charge_json(z)
    out["in_sector"] = z.in_sector
    return out


def cmd_heart_check(args) -> Dict[str, Any]:
    lat = _load_graph(args)
    p = _point_literal(args.point)
    label = classify(lat, p)
    h = heart_for_stratum(lat, label)
    report = stability_check(h, p)
    return {
        "label": serialize.label_json(label),
        "heart": serialize.heart_json(h),
        "report": serialize.report_json(report),
    }


def cmd_lift(args) -> Dict[str, Any]:
    lat = _load_graph(args)
    pts = _load_path(args.path)
    state = lift_path(lat, pts)
    return serialize.state_json(state)


def cmd_meridian(args) -> Dict[str, Any]:
    lat = _load_graph(args)
    base = _point_literal(args.base) if args.base else None
    deck = meridian(lat, args.curve, args.strip, base)
    out = serialize.deck_json(deck)
    out["theta"] = serialize.affine_json(theta(lat, deck.word))
    return out


def cmd_plot(args) -> str:
    if args.format is not None:
        raise ValueError(f"--format {args.format} does not apply to plot, which writes SVG")
    lat = _load_graph(args)
    if args.point:
        base = _point_literal(args.point)
    else:
        base = default_basepoint(lat)
    pts: Optional[List] = None
    if args.path and args.meridian is not None:
        raise ValueError("--path and --meridian are mutually exclusive")
    if args.path:
        pts = _load_path(args.path)
    elif args.meridian is not None:
        pts = meridian_waypoints(lat, args.curve, args.meridian, base)
    trace = ()
    if pts:
        state = lift_path(lat, pts, _fundamental_start(lat, pts[0]))
        trace = state.trace
        if not args.point:
            base = pts[0]
    return plot_slice(lat, base, curve=args.curve, path=pts, trace=trace)


def cmd_demo_conifold(args) -> Dict[str, Any]:
    lat = chain_lattice(1)
    state = fundamental_state(lat)
    deck = meridian(lat, 1, 0)
    census = strip_chamber_census(lat)
    return {
        "n_curves": 1,
        "root_count": 2 * lat.positive_root_count,
        "weyl_order": lat.weyl_order,
        "basepoint": serialize.point_json(state.position),
        "basepoint_label": serialize.label_json(classify(lat, state.position)),
        "meridian_1_0": {
            **serialize.deck_json(deck),
            "theta": serialize.affine_json(theta(lat, deck.word)),
        },
        "chambers_per_strip": len(census),
    }


DISPATCH = {
    "validate": cmd_validate,
    "roots": cmd_roots,
    "weyl": cmd_weyl,
    "classify": cmd_classify,
    "charge": cmd_charge,
    "heart-check": cmd_heart_check,
    "lift": cmd_lift,
    "meridian": cmd_meridian,
    "plot": cmd_plot,
    "demo-conifold": cmd_demo_conifold,
}


def _render_table(payload: Dict[str, Any]) -> str:
    lines = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, (dict, list)):
            val = json.dumps(val, sort_keys=True)
        lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(exc: Exception, code: int) -> int:
    msg = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(msg, sort_keys=True) + "\n")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        payload = DISPATCH[args.command](args)
        # rendering and writing fail too: an unwritable --out, or an integer
        # with more digits than the interpreter converts, such as a huge |W|
        if isinstance(payload, str):
            _write(payload, args.out)
        elif args.format == "table":
            _write(_render_table(payload), args.out)
        else:
            _write(serialize.dumps(payload), args.out)
    except SystemExit:  # --help; flag errors raise ArgumentError instead
        return 0
    except (NotATree, NotNegativeDefinite) as exc:
        return _fail(exc, EXIT_BAD_GRAPH)
    except (PathHitsForbidden, ForbiddenStratum) as exc:
        return _fail(exc, EXIT_FORBIDDEN)
    except (NonGenericCrossing, StartNotGeneric) as exc:
        return _fail(exc, EXIT_NON_GENERIC)
    except StabwalkError as exc:
        return _fail(exc, EXIT_DOMAIN)
    except (OSError, ValueError, argparse.ArgumentError) as exc:
        return _fail(exc, EXIT_PARSE)
    except Exception as exc:  # an internal error still ends in one JSON object
        return _fail(exc, EXIT_DOMAIN)
    return 0


if __name__ == "__main__":
    sys.exit(main())

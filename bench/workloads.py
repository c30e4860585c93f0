"""The three workloads: operation lists built from a seed, each with its check.

A workload's setup imports a fresh copy of stabwalk from the checkout's
src/, builds the fixtures and generates the inputs, and returns a list
of Op.  One round runs every op once, in order, back to back; the next
op starts when the previous one returns.  Ops look program functions up
on the module at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import checks as C
import gen
import oracles as O

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Op:
    """One timed operation: run() is timed, check(output) is not.

    fault names a known fault of the program that makes this op fail
    every time; such an op is counted as failed, not as incorrect.
    """

    __slots__ = ("name", "run", "check", "fault")

    def __init__(self, name, run, check, fault=None):
        self.name, self.run, self.check, self.fault = name, run, check, fault


def load_program(cli: bool = False):
    """Import stabwalk afresh from src/, so every set-up pays the import."""
    for name in [k for k in sys.modules if k == "stabwalk" or k.startswith("stabwalk.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sw = importlib.import_module("stabwalk")
    if Path(sw.__file__).resolve().parent != SRC / "stabwalk":
        raise RuntimeError(f"stabwalk imported from {sw.__file__}, not from {SRC}")
    if cli:
        importlib.import_module("stabwalk.cli")
    return sw


def fixtures() -> dict:
    return {name: O.Fixture(name) for name in O.FIXTURES}


# -- library outputs in plain form ---------------------------------------------------

def plain_label(label) -> dict:
    lab = {"kind": label.kind}
    if label.kind == "forbidden":
        lab.update(root=label.root.coords, level=label.level)
        return lab
    frame = label.weyl if label.kind == "ample_chamber" else label.frame
    lab.update(mat=frame.mat, word=frame.word, dual_mat=frame.dual_mat)
    if label.kind == "wall_strip":
        lab.update(curve=label.curve, strip=label.strip)
    elif label.kind == "deep_stratum":
        lab.update(vanishing=label.vanishing, strips=label.strips)
    return lab


def plain_report(heart, report) -> tuple:
    h = {"strips": heart.strips, "mat": heart.frame.mat}
    r = {"passed": report.passed,
         "entries": [(e.kclass.point_mult, e.kclass.curve_mult, e.tag, e.charge.re,
                      e.charge.im, e.ok) for e in report.entries]}
    return h, r


def plain_state(state, start) -> dict:
    new = state.trace[len(start.trace):]
    return {"position": (state.position.beta, state.position.omega),
            "events": len(new),
            "pops": sum(1 for e in new if e.action == "pop"),
            "stack": tuple((c.curve, c.strip) for c in state.stack),
            "linear": state.theta.linear, "trans": state.theta.trans}


def letters(u) -> list:
    return [("twist", g.divisor) if type(g).__name__ == "Twist" else ("flop", g.curve)
            for g in u.gens]


# -- point_queries ---------------------------------------------------------------------

def _run_point(sw, lat, p):
    label = sw.classify(lat, p)
    if label.kind == "forbidden":
        return label, None, None
    heart = sw.heart_for_stratum(lat, label)
    return label, heart, sw.stability_check(heart, p)


def _check_point(fx, beta, omega, out):
    label, heart, report = out
    lab = plain_label(label)
    bad = C.check_label(fx, beta, omega, lab)
    if bad or heart is None:
        return bad
    return C.check_heart(fx, beta, omega, lab, *plain_report(heart, report))


def build_lattices(sw, fxs) -> dict:
    """The fixtures' lattices, each with its first root closure done."""
    lats = {}
    for name, fx in fxs.items():
        lats[name] = sw.lattice_from_edges(fx.n, [list(e) for e in fx.edges])
        lats[name].enumerate_roots()
    return lats


def setup_point_queries(seed: int, workdir: Path) -> list:
    sw = load_program()
    fxs = fixtures()
    lats = build_lattices(sw, fxs)
    ops = []
    for name, fx in fxs.items():
        rng = gen.rng_for(seed, "point_queries", name)
        for (kind, far), (beta, omega) in zip(gen.point_specs(fx), gen.point_mix(fx, rng)):
            ops.append(Op(f"point {name} {kind}{' far' if far else ''}",
                          partial(_run_point, sw, lats[name], sw.ComplexDivisor(beta, omega)),
                          partial(_check_point, fx, beta, omega)))
    return ops


# -- lift_walks ---------------------------------------------------------------------------

def _run_lift(sw, lat, path, start, verdict):
    end = sw.lift_path(lat, path, start)
    return end, (sw.same_chamber(start, end) if verdict else None)


def _check_lift(fx, path, events, closed, start, out):
    end, verdict = out
    bad = C.check_lift(fx, path, events, closed, plain_state(end, start))
    if bad is None and verdict is not None and verdict != "equal":
        bad = f"a loop bounding a disc in the complement ends {verdict}, not equal"
    return bad


def _run_meridian(sw, lat, i, k):
    return sw.meridian(lat, i, k)


def _check_meridian(fx, i, k, deck):
    return C.check_meridian(fx, i, k, tuple((c.curve, c.strip) for c in deck.reduced_stack),
                            letters(deck.word))


# (fixture, depth of the first point, points, closed, count per round); the
# crossing count is fixed per entry, so a lift costs the same for every seed
LIFT_MIX = (
    ("A1", 1, 2, False, 6), ("A2", 2, 2, False, 6), ("A3", 3, 2, False, 6),
    ("D4", 4, 2, False, 2), ("E6", 6, 2, False, 2),
    ("A1", 1, 3, True, 3), ("A2", 2, 3, True, 4), ("A3", 3, 3, True, 4),
    ("D4", 4, 3, True, 2),
)

CODIM2_FAULT = ("lift_path pops only an equal stack top, so a loop around a "
                "codimension-2 stratum does not close")


def lift_events(depth: int) -> int:
    """Crossings asked of a generated path whose first point is `depth` chambers out."""
    return 2 * depth + 2


def setup_lift_walks(seed: int, workdir: Path) -> list:
    sw = load_program()
    fxs = fixtures()
    lats = build_lattices(sw, fxs)

    def cd(path):
        return [sw.ComplexDivisor(b, o) for b, o in path]

    def lift_op(kind, name, path, events, closed, verdict, fault=None):
        lat, pts = lats[name], cd(path)
        start = sw.fundamental_state(lat, pts[0])
        return Op(f"{kind} {name}", partial(_run_lift, sw, lat, pts, start, verdict),
                  partial(_check_lift, fxs[name], path, events, closed, start), fault)

    ops = []
    for name, depth, hops, closed, count in LIFT_MIX:
        rng = gen.rng_for(seed, "lift_walks", name, hops, closed)
        events = lift_events(depth)
        for _ in range(count):
            path = gen.generic_path(fxs[name], rng, depth, hops, closed, events)
            ops.append(lift_op("loop" if closed else "back-and-forth", name, path, events,
                               closed, False))
    for name, fx in fxs.items():
        rng = gen.rng_for(seed, "lift_walks", "meridian", name)
        # seeded strips at every curve of E7 and E8: E8's meridians, the
        # costliest ops, then make the block that holds the 90th percentile,
        # and the median falls inside the block of A6 meridians
        for i, k in gen.meridian_picks(fx, rng, every_curve=name in ("E7", "E8")):
            ops.append(Op(f"meridian {name}", partial(_run_meridian, sw, lats[name], i, k),
                          partial(_check_meridian, fx, i, k)))
        depth = min(fx.n, fx.n_positive - 1)
        path = gen.wall_disc_loop(fx, gen.rng_for(seed, "lift_walks", "wall", name), depth)
        ops.append(lift_op("wall disc", name, path, 2 * depth + 2, True, True))
    for name, path in gen.CODIM2_LOOPS:
        events = len(O.path_crossings(fxs[name].roots, path))
        ops.append(lift_op("codim-2 disc", name, path, events, True, True, CODIM2_FAULT))
    return ops


# -- cli_calls ---------------------------------------------------------------------------------

def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_table(text: str) -> dict:
    """Read back the flat `key: value` table rendering."""
    payload = {}
    for line in text.splitlines():
        key, sep, val = line.partition(": ")
        if not sep:
            raise ValueError(f"table line without a separator: {line!r}")
        if val in ("True", "False", "None"):
            payload[key] = {"True": True, "False": False, "None": None}[val]
            continue
        try:
            payload[key] = json.loads(val)
        except ValueError:
            payload[key] = val
    if list(payload) != sorted(payload):
        raise ValueError("table keys are not sorted")
    return payload


def _cli_ok(check, table, out):
    code, stdout, stderr = out
    if code != 0:
        return f"exit {code}: {stderr.strip()}"
    if stderr:
        return f"stderr on success: {stderr.strip()}"
    payload = parse_table(stdout) if table else json.loads(stdout)
    return check(payload)


def _cli_reject(codes, out):
    code, stdout, stderr = out
    if code not in codes:
        return f"exit {code}, expected one of {codes}"
    if stdout:
        return "output on stdout for a rejected call"
    lines = stderr.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} lines on stderr, expected one JSON error object"
    try:
        msg = json.loads(lines[0])
    except ValueError:
        msg = None
    if not isinstance(msg, dict) or set(msg) != {"error", "message"}:
        return f"stderr is not one JSON error object: {lines[0]}"
    return None


def _cli_svg(markers, out):
    code, stdout, stderr = out
    if code != 0:
        return f"exit {code}: {stderr.strip()}"
    return C.check_svg(stdout, markers)


def json_label(d: dict) -> dict:
    lab = dict(d)
    frame = d.get("weyl") or d.get("frame")
    if frame is not None:
        lab.update(mat=tuple(tuple(r) for r in frame["mat"]),
                   dual_mat=tuple(tuple(r) for r in frame["dual_mat"]),
                   word=tuple(frame["word"]) if "word" in frame else None)
    return lab


def _check_classify(fx, beta, omega, payload):
    return C.check_label(fx, beta, omega, json_label(payload))


def _check_heart_check(fx, beta, omega, payload):
    lab = json_label(payload["label"])
    bad = C.check_label(fx, beta, omega, lab)
    if bad:
        return bad
    heart = {"strips": payload["heart"]["strips"], "mat": payload["heart"]["frame"]["mat"]}
    report = {"passed": payload["report"]["passed"],
              "entries": [(e["class"]["point_mult"], tuple(e["class"]["curve_mult"]), e["tag"],
                           C.frac(e["charge"]["re"]), C.frac(e["charge"]["im"]), e["ok"])
                          for e in payload["report"]["entries"]]}
    return C.check_heart(fx, beta, omega, lab, heart, report)


def _check_charge(beta, omega, a, m, payload):
    re, im = O.charge(beta, omega, a, m)
    if (C.frac(payload["re"]), C.frac(payload["im"])) != (re, im):
        return f"charge {payload['re']} + {payload['im']}i, oracle {re} + {im}i"
    if payload["in_sector"] != (im > 0 or (im == 0 and re < 0)):
        return "in_sector flag is wrong"
    return None


def _check_validate(fx, payload):
    want = {"valid": True, "n_curves": fx.n, "edges": [list(e) for e in fx.edges],
            "gram": [list(r) for r in fx.gram], "root_count": 2 * fx.n_positive,
            "weyl_order": fx.weyl_order}
    return None if payload == want else f"validate gives {payload}, expected {want}"


def _check_weyl(fx, listed, payload):
    if payload["order"] != fx.weyl_order:
        return f"Weyl order {payload['order']}, closed form {fx.weyl_order}"
    if not listed:
        return None if "elements" not in payload else "elements listed without --list"
    elements = payload["elements"]
    if len({json.dumps(e["mat"]) for e in elements}) != fx.weyl_order:
        return "listed elements are not distinct or not all there"
    for e in elements:
        bad = C.check_frame(fx, e["mat"], e.get("word"), e["dual_mat"])
        if bad:
            return bad
    return None


def _check_roots(fx, positive, payload):
    want = set(fx.roots) | (set() if positive else {tuple(-x for x in v) for v in fx.roots})
    got = [tuple(r) for r in payload["roots"]]
    if payload["count"] != len(want) or set(got) != want or len(got) != len(want):
        return f"{payload['count']} roots, oracle has {len(want)}"
    return None


def _check_cli_lift(fx, path, events, closed, payload):
    end = {"position": (C.vec(payload["position"]["beta"]), C.vec(payload["position"]["omega"])),
           "events": len(payload["trace"]),
           "pops": sum(1 for e in payload["trace"] if e["action"] == "pop"),
           "stack": tuple((c["curve"], c["strip"]) for c in payload["stack"]),
           "linear": tuple(tuple(r) for r in payload["theta"]["linear"]),
           "trans": tuple(payload["theta"]["translation"])}
    return C.check_lift(fx, path, events, closed, end)


def json_letters(word) -> list:
    return [("twist", tuple(g["twist"])) if "twist" in g else ("flop", g["flop"]) for g in word]


def _check_cli_meridian(fx, i, k, payload):
    theta = (tuple(tuple(r) for r in payload["theta"]["linear"]),
             tuple(payload["theta"]["translation"]))
    stack = tuple((c["curve"], c["strip"]) for c in payload["reduced_stack"])
    return C.check_meridian(fx, i, k, stack, json_letters(payload["word"]), theta)


def _check_demo(payload):
    fx = O.Fixture("A1")
    if (payload["n_curves"], payload["root_count"], payload["weyl_order"],
            payload["chambers_per_strip"]) != (1, 2, 2, 2):
        return f"demo-conifold counts {payload}"
    if payload["basepoint"] != {"beta": ["1/2"], "omega": ["1"]}:
        return f"demo-conifold basepoint {payload['basepoint']}"
    if payload["basepoint_label"]["kind"] != "ample_chamber":
        return "demo-conifold basepoint is not in a chamber"
    return _check_cli_meridian(fx, 1, 0, payload["meridian_1_0"])


def point_arg(beta, omega) -> str:
    return json.dumps({"beta": [str(x) for x in beta], "omega": [str(x) for x in omega]})


def path_json(path) -> str:
    return json.dumps([{"beta": [str(x) for x in b], "omega": [str(x) for x in o]}
                       for b, o in path])


# graphs the CLI must reject, with the exit codes the contract allows
BAD_GRAPHS = {
    "malformed": ("{not json", (1,), None),
    "cycle": ('{"n_curves": 3, "edges": [[1, 2], [2, 3], [3, 1]]}', (2,), None),
    "indefinite": ('{"n_curves": 5, "edges": [[1, 5], [2, 5], [3, 5], [4, 5]]}', (2,), None),
    "edges_null": ('{"n_curves": 2, "edges": null}', (1, 2),
                   "a TypeError from iterating edges=null escapes cli.main"),
    "n_curves_true": ('{"n_curves": true, "edges": []}', (1, 2),
                      "bool passes the int check on n_curves, so the graph is accepted"),
}
KCLASS_FAULT = "a TypeError from iterating an integer curve_mult escapes cli.main"

# rank-one paths that must be rejected: a crossing at an integral beta, and a
# breakpoint on the wall
FORBIDDEN_PATH = [(("1/2",), (1,)), ((1,), (1,)), ((1,), (-1,))]
NON_GENERIC_PATH = [(("1/2",), (1,)), (("1/2",), (0,))]

# Weyl enumeration ends within seconds on A1-A5, D4 and D5.  validate and
# weyl run on the light ones, weyl --list on three of them.  A5 and D5 are
# enumerated only up to a cap, which must end in exit 5: their full
# enumerations (1 s and 3 s) would make a round too long for steady figures.
WEYL_LIGHT = ("A1", "A2", "A3", "A4", "D4")
WEYL_LISTED = ("A2", "A3", "A4")
WEYL_CAPPED = ("A5", "D5")


def setup_cli_calls(seed: int, workdir: Path) -> list:
    sw = load_program(cli=True)
    cli = sys.modules["stabwalk.cli"]
    fxs = fixtures()
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, text):
        f = workdir / name
        f.write_text(text, encoding="utf-8")
        return str(f)

    graphs = {name: write(f"{name}.json", json.dumps(
        {"n_curves": fx.n, "edges": [list(e) for e in fx.edges]})) for name, fx in fxs.items()}
    ops = []

    def call(label, argv, check, fault=None):
        flags = [a for a in argv[1:] if a.startswith("--") and a not in ("--graph", "--path", "--point")]
        ops.append(Op(" ".join([argv[0], label] + flags), partial(_run_cli, cli, argv), check, fault))

    def ok(label, argv, check, table=False):
        call(label, argv + (["--format", "table"] if table else []), partial(_cli_ok, check, table))

    for name in WEYL_LIGHT:
        ok(name, ["validate", "--graph", graphs[name]], partial(_check_validate, fxs[name]))
    for name in WEYL_LIGHT:
        ok(name, ["weyl", "--graph", graphs[name]], partial(_check_weyl, fxs[name], False))
    for name in WEYL_LISTED:
        ok(name, ["weyl", "--graph", graphs[name], "--list"], partial(_check_weyl, fxs[name], True))
    for name in WEYL_CAPPED:
        call(name, ["weyl", "--graph", graphs[name], "--cap", "300"], partial(_cli_reject, (5,)))

    for idx, (name, fx) in enumerate(fxs.items()):
        rng = gen.rng_for(seed, "cli_calls", name)
        g = graphs[name]
        positive = idx % 2 == 0
        ok(name, ["roots", "--graph", g] + (["--positive"] if positive else []),
           partial(_check_roots, fx, positive), table=idx % 3 == 0)
        pts = gen.point_mix(fx, rng)
        beta, omega = pts[(2, 5)[idx % 2]]
        ok(name, ["classify", "--graph", g, "--point", point_arg(beta, omega)],
           partial(_check_classify, fx, beta, omega), table=idx % 4 == 0)
        beta, omega = pts[(4, 8)[idx % 2]]
        ok(name, ["heart-check", "--graph", g, "--point", point_arg(beta, omega)],
           partial(_check_heart_check, fx, beta, omega))
        call(name, ["heart-check", "--graph", g, "--point", point_arg(*pts[9])],
             partial(_cli_reject, (3,)))
        beta, omega = pts[0]
        a, m = gen.kclass(fx, rng)
        ok(name, ["charge", "--graph", g, "--point", point_arg(beta, omega),
                  "--kclass", json.dumps({"point_mult": a, "curve_mult": list(m)})],
           partial(_check_charge, beta, omega, a, m), table=idx % 2 == 1)
        i, k = (1 if idx % 2 else fx.n), rng.choice((-2, -1, 0, 1, 2))
        argv = ["meridian", "--graph", g, "--curve", str(i), "--strip", str(k)]
        if idx % 3 == 1:
            argv += ["--base", point_arg(gen.rand_vec(rng, fx.n), gen.dominant(fx, rng))]
        ok(name, argv, partial(_check_cli_meridian, fx, i, k))

    for idx, (name, depth, hops, closed, _) in enumerate(LIFT_MIX):
        rng = gen.rng_for(seed, "cli_calls", "lift", idx)
        events = lift_events(depth)
        path = gen.generic_path(fxs[name], rng, depth, hops, closed, events)
        f = write(f"path{idx}.json", path_json(path))
        ok(name, ["lift", "--graph", graphs[name], "--path", f],
           partial(_check_cli_lift, fxs[name], path, events, closed), table=idx % 4 == 3)

    for name in ("A1", "A2", "A3", "D4", "E6"):
        fx = fxs[name]
        k = gen.rng_for(seed, "cli_calls", "plot", name).randrange(-2, 3)
        call(name, ["plot", "--graph", graphs[name], "--curve", str(fx.n), "--meridian", str(k)],
             partial(_cli_svg, 2))
    call("A1", ["demo-conifold"], partial(_cli_ok, _check_demo, False))

    for name, (text, codes, fault) in BAD_GRAPHS.items():
        call(name, ["validate", "--graph", write(f"bad_{name}.json", text)],
             partial(_cli_reject, codes), fault)
    call("A2", ["classify", "--graph", graphs["A2"], "--point", '{"beta": [1'],
         partial(_cli_reject, (1,)))
    call("A2", ["charge", "--graph", graphs["A2"], "--point", point_arg((0, 0), (1, 1)),
                "--kclass", '{"point_mult": 1, "curve_mult": 5}'],
         partial(_cli_reject, (1,)), KCLASS_FAULT)
    for name, path, code in (("forbidden", FORBIDDEN_PATH, 3), ("non_generic", NON_GENERIC_PATH, 4)):
        f = write(f"{name}.json", path_json([(C.vec(b), C.vec(o)) for b, o in path]))
        call(name, ["lift", "--graph", graphs["A1"], "--path", f], partial(_cli_reject, (code,)))
    return ops


WORKLOADS = {
    "point_queries": setup_point_queries,
    "lift_walks": setup_lift_walks,
    "cli_calls": setup_cli_calls,
}

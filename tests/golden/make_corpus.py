"""Build the golden CLI corpus, tests/golden/corpus.json.

Run from the repository root, with no arguments, to rewrite the corpus:

    python3 tests/golden/make_corpus.py

or with --check to rebuild it in memory and compare, writing nothing:

    python3 tests/golden/make_corpus.py --check

--check exits 0 when the rebuilt corpus equals corpus.json byte for byte,
and 1 with the id of the first differing case otherwise.

Every case is one `stabwalk` invocation: its argv, the graph, point and
path files it reads (stored inline, by file name), and the exact stdout,
stderr and exit code it produced.  The inputs come from the benchmark's
seeded generators (bench/gen.py) with seed 1, on the thirteen ADE
fixtures.  tests/test_golden.py replays each case and compares the bytes,
so a refactor that changes any output shows up as a failing case.

Left out on purpose: the benchmark's known-fault inputs (a graph with
edges null or n_curves true, a class literal with an integer
curve_mult) and flag syntax errors, whose output a fix changes by
design.  Regenerate the corpus only for a change that alters output on
purpose, and list the changed cases with the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import gen  # noqa: E402
import oracles as O  # noqa: E402
from test_golden import run_case  # noqa: E402

SEED = 1
OUT = Path(__file__).resolve().parent / "corpus.json"

WEYL_LIGHT = ("A1", "A2", "A3", "A4", "D4")
WEYL_LISTED = ("A1", "A2", "A3", "A4", "D4")

# rank-one paths the CLI must reject: a crossing at an integral beta (exit
# 3) and a breakpoint on the wall (exit 4)
FORBIDDEN_PATH = [(("1/2",), (1,)), ((1,), (1,)), ((1,), (-1,))]
NON_GENERIC_PATH = [(("1/2",), (1,)), (("1/2",), (0,))]
# a rank-one path down through the wall and back up one strip further
A1_SLICE_PATH = [(("1/2",), (1,)), (("1/2",), (-1,)), (("3/2",), (-1,)), (("3/2",), (1,))]


def graph_text(fx: O.Fixture) -> str:
    return json.dumps({"n_curves": fx.n, "edges": [list(e) for e in fx.edges]})


def point_text(beta, omega) -> str:
    return json.dumps({"beta": [str(x) for x in beta], "omega": [str(x) for x in omega]})


def path_text(path) -> str:
    return "[" + ", ".join(point_text(b, o) for b, o in path) + "]"


def build_cases() -> list:
    fxs = {name: O.Fixture(name) for name in O.FIXTURES}
    cases = []

    def case(name, argv, files=None, table=False):
        files = dict(files or {})
        cases.append({"id": name, "argv": argv + (["--format", "table"] if table else []),
                      "files": files})

    def on(fx_name, sub, *rest, files=None, table=False, tag=""):
        fx = fxs[fx_name]
        argv = [sub, "--graph", "graph.json"] + list(rest)
        name = f"{sub}-{fx_name}{tag}{'-table' if table else ''}"
        case(name, argv, {"graph.json": graph_text(fx), **(files or {})}, table)

    for name in WEYL_LIGHT:
        on(name, "validate")
        on(name, "weyl")
    # validate reads its counts off the tree's shape, so it answers on every fixture
    for name in [name for name in fxs if name not in WEYL_LIGHT]:
        on(name, "validate")
    on("A2", "validate", table=True)
    on("A2", "weyl", table=True)
    for name in WEYL_LISTED:
        on(name, "weyl", "--list", tag="-list")
    on("A5", "weyl", "--cap", "100", tag="-cap100")

    for idx, (name, fx) in enumerate(fxs.items()):
        rng = gen.rng_for(SEED, "cli_calls", name)
        on(name, "roots", *(["--positive"] if idx % 2 == 0 else []),
           tag="-positive" if idx % 2 == 0 else "")
        pts = gen.point_mix(fx, rng)
        on(name, "classify", "--point", point_text(*pts[(2, 5)[idx % 2]]))
        on(name, "classify", "--point", point_text(*pts[9]), tag="-forbidden")
        on(name, "heart-check", "--point", point_text(*pts[9]), tag="-forbidden")
        on(name, "heart-check", "--point", point_text(*pts[(4, 8)[idx % 2]]))
        a, m = gen.kclass(fx, rng)
        on(name, "charge", "--point", point_text(*pts[0]),
           "--kclass", json.dumps({"point_mult": a, "curve_mult": list(m)}))
        i, k = (1 if idx % 2 else fx.n), rng.choice((-2, -1, 0, 1, 2))
        base = []
        if idx % 3 == 1:
            base = ["--base", point_text(gen.rand_vec(rng, fx.n), gen.dominant(fx, rng))]
        on(name, "meridian", "--curve", str(i), "--strip", str(k), *base)

        rng = gen.rng_for(SEED, "golden", "lift", name)
        depth = 1 if fx.n == 1 else 2
        closed = idx % 2 == 1
        path = gen.generic_path(fx, rng, depth, 2 + closed, closed, 2 * depth + 2)
        on(name, "lift", "--path", "path.json", files={"path.json": path_text(path)})
        k = gen.rng_for(SEED, "cli_calls", "plot", name).randrange(-2, 3)
        on(name, "plot", "--curve", str(fx.n), "--meridian", str(k))

    for sub, extra in (("roots", []), ("classify", ["--point", point_text(("1/2", "1/3"), (0, 2))]),
                       ("charge", ["--point", point_text(("1/2", "1/3"), (0, 2)),
                                   "--kclass", '{"point_mult": 1, "curve_mult": [1, 0]}']),
                       ("heart-check", ["--point", point_text(("1/2", "1/3"), (0, 2))]),
                       ("meridian", ["--curve", "2", "--strip", "1"]),
                       ("plot", ["--point", point_text(("1/2", "1/3"), (1, 1))])):
        on("A2", sub, *extra, table=True)
    a2_path = gen.generic_path(fxs["A2"], gen.rng_for(SEED, "golden", "plot-path"), 2, 2, False, 6)
    on("A2", "lift", "--path", "path.json", files={"path.json": path_text(a2_path)}, table=True)
    on("A2", "plot", "--path", "path.json", files={"path.json": path_text(a2_path)},
       tag="-off-slice")
    on("A1", "plot", "--path", "path.json", files={"path.json": path_text(A1_SLICE_PATH)},
       tag="-path")
    case("demo-conifold", ["demo-conifold"])
    case("demo-conifold-table", ["demo-conifold"], table=True)

    # unusable input that is not a flag error, and domain rejects for exits 2-5
    case("validate-no-graph", ["validate"])
    case("validate-malformed", ["validate", "--graph", "graph.json"], {"graph.json": "{not json"})
    case("validate-cycle", ["validate", "--graph", "graph.json"],
         {"graph.json": '{"n_curves": 3, "edges": [[1, 2], [2, 3], [3, 1]]}'})
    case("validate-indefinite", ["validate", "--graph", "graph.json"],
         {"graph.json": '{"n_curves": 5, "edges": [[1, 5], [2, 5], [3, 5], [4, 5]]}'})
    on("A2", "classify", "--point", '{"beta": [1', tag="-bad-literal")
    on("A2", "meridian", "--curve", "3", "--strip", "0", tag="-bad-curve")
    on("A1", "lift", "--path", "path.json", files={"path.json": path_text(FORBIDDEN_PATH)},
       tag="-forbidden")
    on("A1", "lift", "--path", "path.json", files={"path.json": path_text(NON_GENERIC_PATH)},
       tag="-non-generic")
    return cases


def run_corpus() -> list:
    """Every case with the exit code, stdout and stderr it produces now."""
    cases = build_cases()
    ids = [c["id"] for c in cases]
    if len(set(ids)) != len(ids):
        raise SystemExit("duplicate case ids")
    with tempfile.TemporaryDirectory() as tmp:
        for c in cases:
            d = Path(tmp) / c["id"]
            d.mkdir()
            code, stdout, stderr = run_case(c, d)
            if tmp in stdout or tmp in stderr:
                raise SystemExit(f"{c['id']}: output depends on the file location")
            c.update(exit=code, stdout=stdout, stderr=stderr)
    return cases


def corpus_text(cases: list) -> str:
    return json.dumps(cases, indent=1, sort_keys=True) + "\n"


def write_corpus() -> None:
    cases = run_corpus()
    OUT.write_text(corpus_text(cases), encoding="utf-8")
    codes = sorted({c["exit"] for c in cases})
    print(f"{len(cases)} cases, exit codes {codes}, {OUT.stat().st_size} bytes")


def check_corpus() -> int:
    """0 when the rebuilt corpus equals corpus.json; else 1, naming a case."""
    cases = run_corpus()
    text = OUT.read_text(encoding="utf-8")
    if corpus_text(cases) == text:
        print(f"{len(cases)} cases match {OUT.name}")
        return 0
    stored = json.loads(text)
    for i in range(max(len(cases), len(stored))):
        new = cases[i] if i < len(cases) else None
        old = stored[i] if i < len(stored) else None
        if new != old:
            print(f"first differing case: {(new or old)['id']}", file=sys.stderr)
            return 1
    print(f"{OUT.name} differs only in layout", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Build the golden CLI corpus.")
    parser.add_argument("--check", action="store_true",
                        help="rebuild in memory and compare with corpus.json; write nothing")
    if parser.parse_args(argv).check:
        return check_corpus()
    write_corpus()
    return 0


if __name__ == "__main__":
    sys.exit(main())

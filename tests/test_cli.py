from __future__ import annotations

import gc
import json

import pytest

from stabwalk.cli import main


def _graph(tmp_path, n, edges, name="graph.json"):
    f = tmp_path / name
    f.write_text(json.dumps({"n_curves": n, "edges": edges}))
    return str(f)


def _run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_a_call_leaves_few_cyclic_objects(tmp_path, capsys):
    g = _graph(tmp_path, 2, [[1, 2]])
    gc.collect()
    gc.disable()
    try:
        code = main(["roots", "--graph", g])
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert code == 0
    # a parser built per call left 383 objects that only the collector frees
    assert unreachable < 100


def test_validate_chain(tmp_path, capsys):
    g = _graph(tmp_path, 2, [[1, 2]])
    data = _run_json(capsys, ["validate", "--graph", g])
    assert data["valid"] is True
    assert data["n_curves"] == 2
    assert data["gram"] == [[-2, 1], [1, -2]]
    assert data["root_count"] == 6
    assert data["weyl_order"] == 6


def test_validate_rejects_indefinite_tree(tmp_path, capsys):
    g = _graph(tmp_path, 5, [[1, 5], [2, 5], [3, 5], [4, 5]])
    code, out, err = _run(capsys, ["validate", "--graph", g])
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "NotNegativeDefinite"


def test_validate_rejects_cycle(tmp_path, capsys):
    g = _graph(tmp_path, 3, [[1, 2], [2, 3], [3, 1]])
    code, _, err = _run(capsys, ["validate", "--graph", g])
    assert code == 2
    assert json.loads(err)["error"] == "NotATree"


def test_parse_failures(tmp_path, capsys):
    code, _, err = _run(capsys, ["validate"])
    assert code == 1 and json.loads(err)["error"] == "ValueError"
    code, _, _ = _run(capsys, ["validate", "--graph", str(tmp_path / "absent.json")])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = _run(capsys, ["validate", "--graph", str(bad)])
    assert code == 1
    g = _graph(tmp_path, 2, [[1, 2]])
    for argv in (["no-such-command"], [], ["weyl", "--graph", g, "--cap", "abc"],
                 ["classify", "--graph", g]):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ArgumentError"


def test_weyl_cap_below_one_is_a_bad_flag(tmp_path, capsys):
    g = _graph(tmp_path, 2, [[1, 2]])
    for cap in ("-1", "0"):
        code, out, err = _run(capsys, ["weyl", "--graph", g, "--cap", cap])
        assert code == 1 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "ValueError" and "--cap" in msg["message"]


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert "classify" in out and "meridian" in out


def test_classify_points(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    pt = json.dumps({"beta": ["1/2"], "omega": [1]})
    data = _run_json(capsys, ["classify", "--graph", g, "--point", pt])
    assert data["kind"] == "ample_chamber"
    assert data["weyl"]["word"] == []

    pt = json.dumps({"beta": ["1/2"], "omega": [0]})
    data = _run_json(capsys, ["classify", "--graph", g, "--point", pt])
    assert data["kind"] == "wall_strip"
    assert (data["curve"], data["strip"]) == (1, 1)

    pt = json.dumps({"beta": [0], "omega": [0]})
    data = _run_json(capsys, ["classify", "--graph", g, "--point", pt])
    assert data["kind"] == "forbidden"
    assert data["root"] == [1]
    assert data["level"] == 0


def test_charge_command(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    data = _run_json(capsys, [
        "charge", "--graph", g,
        "--point", json.dumps({"beta": ["1/2"], "omega": [0]}),
        "--kclass", json.dumps({"point_mult": 1, "curve_mult": [1]}),
    ])
    assert data == {"im": "0", "in_sector": True, "re": "-1/2"}


def test_heart_check_command(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    pt = json.dumps({"beta": ["1/2"], "omega": [0]})
    data = _run_json(capsys, ["heart-check", "--graph", g, "--point", pt])
    assert data["label"]["kind"] == "wall_strip"
    assert data["heart"]["kind"] == "tilted"
    assert data["report"]["passed"] is True
    assert len(data["report"]["entries"]) == 3

    pt = json.dumps({"beta": ["3/2"], "omega": [0]})
    data = _run_json(capsys, ["heart-check", "--graph", g, "--point", pt])
    assert data["label"]["strip"] == 2
    assert data["report"]["passed"] is True


def test_lift_command_roundtrip(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps([
        {"beta": ["1/2"], "omega": [1]},
        {"beta": ["1/2"], "omega": [-1]},
        {"beta": ["1/2"], "omega": [1]},
    ]))
    data = _run_json(capsys, ["lift", "--graph", g, "--path", str(path_file)])
    assert data["stack"] == []
    assert data["theta"] == {"linear": [[1]], "translation": [0]}
    assert [e["action"] for e in data["trace"]] == ["push", "pop"]
    assert data["trace"][0]["time"] == "1/2"


def test_lift_forbidden_exit_code(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps([
        {"beta": ["1/2"], "omega": [1]},
        {"beta": ["-1/2"], "omega": [-1]},
    ]))
    code, _, err = _run(capsys, ["lift", "--graph", g, "--path", str(path_file)])
    assert code == 3
    assert json.loads(err)["error"] == "PathHitsForbidden"


def test_lift_non_generic_exit_code(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps([
        {"beta": ["1/2"], "omega": [1]},
        {"beta": ["1/2"], "omega": [0]},
    ]))
    code, _, err = _run(capsys, ["lift", "--graph", g, "--path", str(path_file)])
    assert code == 4
    assert json.loads(err)["error"] == "NonGenericCrossing"


def test_meridian_command(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    data = _run_json(capsys, ["meridian", "--graph", g, "--curve", "1", "--strip", "0"])
    assert data["word"] == [
        {"twist": [1]}, {"flop": 1}, {"twist": [2]}, {"flop": 1}, {"twist": [1]}]
    assert data["reduced_stack"] == [
        {"curve": 1, "strip": 1}, {"curve": 1, "strip": 2}]
    assert data["theta"] == {"linear": [[1]], "translation": [0]}


def test_table_format(tmp_path, capsys):
    code, out, _ = _run(capsys, ["demo-conifold", "--format", "table"])
    assert code == 0
    lines = out.splitlines()
    assert "chambers_per_strip: 2" in lines
    assert "root_count: 2" in lines
    assert lines == sorted(lines)


def test_demo_conifold_payload(capsys):
    data = _run_json(capsys, ["demo-conifold"])
    assert data["n_curves"] == 1
    assert data["weyl_order"] == 2
    assert data["basepoint_label"]["kind"] == "ample_chamber"
    assert data["chambers_per_strip"] == 2
    assert data["meridian_1_0"]["theta"]["translation"] == [0]


def test_output_bytes_deterministic(tmp_path, capsys):
    g = _graph(tmp_path, 3, [[1, 2], [2, 3]])
    _, out1, _ = _run(capsys, ["roots", "--graph", g])
    _, out2, _ = _run(capsys, ["roots", "--graph", g])
    assert out1 == out2
    f = tmp_path / "roots.json"
    code, _, _ = _run(capsys, ["roots", "--graph", g, "--out", str(f)])
    assert code == 0
    assert f.read_text() == out1


def test_plot_svg(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    f = tmp_path / "slice.svg"
    code, _, err = _run(capsys, [
        "plot", "--graph", g, "--curve", "1", "--meridian", "0", "--out", str(f)])
    assert code == 0, err
    svg = f.read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    assert svg.count('stroke="#cc3300"') == 2
    assert "push 1,1" in svg and "push 1,2" in svg


def test_plot_flag_conflicts(tmp_path, capsys):
    g = _graph(tmp_path, 1, [])
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps([{"beta": ["1/2"], "omega": [1]}]))
    code, _, err = _run(capsys, [
        "plot", "--graph", g, "--path", str(path_file), "--meridian", "0"])
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"
    # plot writes SVG only, so an explicit --format is refused, not ignored
    for fmt in ("json", "table"):
        code, out, err = _run(capsys, ["plot", "--graph", g, "--format", fmt])
        assert code == 1 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "ValueError" and "--format" in msg["message"]


def test_plot_rejects_off_slice_path(tmp_path, capsys):
    g = _graph(tmp_path, 2, [[1, 2]])
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps([
        {"beta": ["1/2", "1/2"], "omega": [1, 1]},
        {"beta": ["1/2", "3/4"], "omega": [1, 1]},
    ]))
    code, _, err = _run(capsys, [
        "plot", "--graph", g, "--curve", "1", "--path", str(path_file)])
    assert code == 5
    assert json.loads(err)["error"] == "UnsupportedSlice"


def test_weyl_and_roots_commands(tmp_path, capsys):
    g = _graph(tmp_path, 2, [[1, 2]])
    data = _run_json(capsys, ["weyl", "--graph", g, "--list"])
    assert data["order"] == 6
    assert len(data["elements"]) == 6
    data = _run_json(capsys, ["roots", "--graph", g, "--positive"])
    assert data["count"] == 3
    assert {tuple(r) for r in data["roots"]} == {(1, 0), (0, 1), (1, 1)}
    code, _, err = _run(capsys, ["weyl", "--graph", g, "--cap", "3"])
    assert code == 5
    assert json.loads(err)["error"] == "CapExceeded"

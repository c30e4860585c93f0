"""Golden CLI corpus: every case must reproduce its recorded bytes exactly.

The cases live in tests/golden/corpus.json and are built by
tests/golden/make_corpus.py.  Each one writes its input files into a
fresh directory, runs `stabwalk` in-process, and compares stdout, stderr
and the exit code with the recorded ones.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stabwalk.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text(encoding="utf-8"))


def run_case(case: dict, workdir: Path) -> tuple:
    """Write the case's files into workdir and run its argv in-process."""
    for fname, text in case["files"].items():
        (workdir / fname).write_text(text, encoding="utf-8")
    argv = [str(workdir / a) if a in case["files"] else a for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CORPUS, ids=[c["id"] for c in CORPUS])
def test_golden_case(case, tmp_path):
    code, stdout, stderr = run_case(case, tmp_path)
    assert stderr == case["stderr"]
    assert stdout == case["stdout"]
    assert code == case["exit"]

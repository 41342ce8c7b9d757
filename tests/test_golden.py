"""Golden outputs: the benchmark's CLI cases and the demos, byte for byte.

``bench/cli_golden.json`` is read, never written. The demo outputs in
``tests/golden/demos`` do not depend on PYTHONHASHSEED; regenerate one
with ``PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.txt``
only when a change of its output is intended.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from compalg.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]
CLI_CASES = json.loads((ROOT / "bench" / "cli_golden.json").read_text())
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("case", CLI_CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_golden_case(case):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(list(case["argv"]))
    assert (code, out.getvalue()) == (0, case["stdout"]), err.getvalue()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    expected = (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_text()
    assert (done.returncode, done.stdout) == (0, expected), done.stderr

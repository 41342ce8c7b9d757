"""Golden outputs: the benchmark's CLI cases and the demos, byte for byte.

``bench/cli_golden.json`` is read, never written. Its cases are rows of the
CLI behaviour corpus (``behaviour_diff.py``), which checks each one's exit
code, stdout and empty stderr. The demo outputs in ``tests/golden/demos``
do not depend on PYTHONHASHSEED; regenerate one with
``PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.txt`` only
when a change of its output is intended.
"""

import os
import subprocess
import sys

import pytest

import behaviour_diff
from behaviour_diff import ROOT

DEMOS = sorted((ROOT / "demos").glob("*.py"))
test_cli_golden_case = behaviour_diff.pytest_functions(behaviour_diff.load_rows())[
    "test_cli_golden_case"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    expected = (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_text()
    assert (done.returncode, done.stdout) == (0, expected), done.stderr

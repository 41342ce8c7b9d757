"""The traced benchmark run wraps every entry point its LAYERS table names.

``bench/tracer.py`` looks each name up without a default, so a rename or
deletion in compalg breaks ``bench/run.py --trace 1``; this test finds
that first.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    missing = []
    for metric, modname, path, _ in tracer.LAYERS:
        obj = importlib.import_module(modname)
        try:
            for attr in path.split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(f"{metric}: {modname}.{path}")
    assert tracer.LAYERS and not missing

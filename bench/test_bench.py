"""Tests of the benchmark itself: failure counting and span bookkeeping.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import random

import harness
import run
from tracer import Tracer

OPS = 40


def _samples(wl, seed: int = 3, count: int = OPS, sabotage=None):
    state = run.fresh_state(wl, seed)
    if sabotage:
        sabotage(state.lib)
    next_op = run.op_stream(wl, state, seed)
    return [harness.run_op(next_op()) for _ in range(count)]


def _fail_frac(samples) -> float:
    metrics = harness.end_to_end(samples, [1.0], 1024)
    return 1 - metrics["op_ok_frac"][0]


def test_clean_runs_have_no_failures():
    for wl in (run.tower, run.cipher):
        assert _fail_frac(_samples(wl)) == 0.0


def test_wrong_verdicts_raise_op_fail_frac():
    def flip(lib):
        cls = lib.composite.CompositeElement
        original = cls.is_irreducible
        cls.is_irreducible = lambda self: not original(self)

    assert _fail_frac(_samples(run.tower, sabotage=flip)) > 0.5


def test_wrong_plaintext_raises_op_fail_frac():
    def corrupt(lib):
        zone = lib.ciphers.zone
        original = zone.zone_decrypt
        zone.zone_decrypt = lambda pairs, key: [v + 1 for v in original(pairs, key)]

    samples = _samples(run.cipher, sabotage=corrupt)
    assert 0 < _fail_frac(samples) < 1


def test_raised_exception_counts_as_failure():
    def boom():
        raise ValueError("deliberate")

    sample = harness.run_op(harness.Op("x", boom, lambda _: True))
    assert not sample.ok


def test_cli_golden_mismatch_is_a_failure():
    state = run.fresh_state(run.cli_mix, 1)
    op = run.cli_mix.make_traced_op(state, random.Random(0), "light")
    result = op.run()
    assert op.check(result)
    assert not op.check((result[0], result[1] + "x"))


def test_self_time_subtracts_children_and_wrappers_reach_importers():
    state = run.fresh_state(run.tower, 5)
    tracer = Tracer()
    tracer.install()
    composite, rings = state.lib.composite, state.lib.rings
    assert composite.embed is rings.embed and hasattr(composite.embed, "__wrapped__")

    tower = state.t9
    values = ((1, 0), (0, 1), (2, 2), (1, 1))
    tracer.run_op(lambda: composite.atomize(
        composite.CompositeElement.make(tower, [tower.top.element(v) for v in values])
    ))
    metrics = tracer.layer_metrics()
    assert metrics["composite.atomize.calls"][0] == 1
    assert metrics["poly.factor.calls"][0] == 1
    assert metrics["rings.embed.calls"][0] > 0
    assert metrics["rings.elem_arith.calls"][0] > 0

    root = 0
    total_ns = tracer.end[root] - tracer.start[root]
    children_self_s = sum(v for k, (v, unit) in metrics.items() if k.endswith(".self_s"))
    assert 0 < children_self_s * 1e9 <= total_ns

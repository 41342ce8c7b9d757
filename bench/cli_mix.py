"""``cli``: sequential ``python -m compalg.cli`` child processes.

Every op starts a fresh interpreter, so this is the only workload that
pays import and argparse cost on every op, and the only one that runs
``cli`` and ``textio``. Each block of 20 ops runs every case of
``cli_golden.json`` once in a seeded order: 16 ``light`` cases
(sub-millisecond dispatch, covering poly, composite, monoid, rsa,
zone, frac, monoidcipher and exchange), where ``op_p50_ms`` falls, and 4
``heavy`` cases (40-90 ms of dispatch), where ``op_p90_ms`` falls. The
seed sets only the order; the inputs and their golden stdout are fixed.

Children run against this checkout's ``src/`` through PYTHONPATH, as the
package is not installed. ``cli.spawn_ms``, a bare ``python -c pass``,
is the interpreter's floor under every op and is reported with the
results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import SRC, Op, percentile

MODULES = ["compalg.cli"]

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
SHARES = {cls: sum(case["cls"] == cls for case in GOLDEN) for cls in ("light", "heavy")}

TRACE_OPS = 40
CHILD_TIMEOUT_S = 60
FLOOR_REPEATS = 5


class State:
    def __init__(self, lib, rng):
        self.lib = lib
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.cases = {cls: [c for c in GOLDEN if c["cls"] == cls] for cls in SHARES}
        self.queues = {cls: [] for cls in SHARES}


def setup(lib, rng) -> State:
    return State(lib, rng)


def _next_case(state: State, rng, cls: str) -> dict:
    """Each case once per block, in a seeded order."""
    queue = state.queues[cls]
    if not queue:
        queue.extend(state.cases[cls])
        rng.shuffle(queue)
    return queue.pop()


def _child(state: State, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=state.env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def make_op(state: State, rng, cls: str) -> Op:
    case = _next_case(state, rng, cls)

    def run():
        return _child(state, ["-m", "compalg.cli", *case["argv"]])

    def check(proc):
        return proc.returncode == 0 and proc.stdout == case["stdout"]

    return Op(cls, run, check)


def make_traced_op(state: State, rng, cls: str) -> Op:
    """The same case dispatched in-process, so the tracer sees it."""
    case = _next_case(state, rng, cls)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = state.lib.cli.dispatch(list(case["argv"]))
        return code, out.getvalue()

    return Op(cls, run, lambda res: res == (0, case["stdout"]))


def peak_rss_kib() -> int:
    """Largest resident set of any child waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def spawn_ms(state: State, code: str = "pass") -> float:
    times = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        proc = _child(state, ["-c", code])
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed: {proc.stderr}")
    return statistics.median(times) * 1e3


def meta(state: State) -> dict:
    return {"cli.spawn_ms": spawn_ms(state)}


def layer_metrics(state: State, plain) -> dict:
    """Interpreter floor, import cost, and in-process parser and dispatch times."""
    floor = spawn_ms(state)
    imported = spawn_ms(state, "import compalg.cli")
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        state.lib.cli.build_parser()
        times.append(time.perf_counter() - t0)
    return {
        "cli.spawn_ms": (floor, "ms"),
        "cli.import_ms": (imported - floor, "ms"),
        "cli.build_parser_ms": (statistics.median(times) * 1e3, "ms"),
        "cli.dispatch_ms": (percentile([s.seconds for s in plain], 0.5) * 1e3, "ms"),
    }

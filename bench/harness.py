"""Closed-loop harness shared by every workload.

One caller, one op at a time: the next op starts only when the previous
one has returned and its result has been checked. Each op is timed on
its own; input generation and the correctness check run between ops,
outside the op's timing, so ``ops_per_s`` is the rate of the program
alone (ops divided by the time spent inside ops).
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: every run, traced or not, completes at least this many ops, so that
#: at least ten samples lie beyond the 90th percentile
MIN_OPS = 100

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 9


@dataclass
class Op:
    """One closed-loop operation: a timed call and an untimed check."""

    cls: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def load_library(modules: list[str]):
    """Import compalg afresh and return a namespace of its modules.

    Purging ``sys.modules`` first makes every call pay the import again
    and start with empty module-level caches, which is what a new
    process of a library user pays.
    """
    if not (SRC / "compalg" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no compalg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "compalg" or n.startswith("compalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()

    lib = types.SimpleNamespace()
    for name in ["compalg"] + modules:
        mod = importlib.import_module(name)
        setattr(lib, name.rsplit(".", 1)[-1], mod)
    return lib


def schedule(rng: random.Random, shares: dict[str, int]):
    """Endless op-class sequence: blocks with exact class counts, shuffled.

    ``shares`` maps class -> ops per block, so every prefix of whole
    blocks has exactly the documented mix.
    """
    block = [cls for cls, n in shares.items() for _ in range(n)]
    while True:
        rng.shuffle(block)
        yield from block


class Rotation:
    """Round robin over each class's fixed input slots.

    Input costs within a class differ by orders of magnitude between
    slots (field, degree, exponent pattern); cycling instead of drawing
    the slot keeps every run's composition the same, so the seed varies
    only the data inside each slot.
    """

    def __init__(self):
        self._next: dict[str, int] = {}

    def pick(self, cls: str, slots):
        i = self._next.get(cls, 0)
        self._next[cls] = i + 1
        return slots[i % len(slots)]


@dataclass
class Sample:
    cls: str
    seconds: float
    ok: bool


def run_op(op: Op) -> Sample:
    """Time one op, then check its result; any exception is a failure."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Sample(op.cls, elapsed, False)
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"benchmark: {op.cls} op failed its check", file=sys.stderr)
    return Sample(op.cls, elapsed, ok)


def closed_loop(next_op: Callable[[], Op], seconds: float) -> list[Sample]:
    """Run ops until ``seconds`` have passed and ``MIN_OPS`` are done."""
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_OPS or time.perf_counter() < deadline:
        samples.append(run_op(next_op()))
    return samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def end_to_end(samples: list[Sample], setup_times: list[float], peak_rss_kib: int):
    lat = [s.seconds for s in samples]
    ok = sum(s.ok for s in samples)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 0.90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
        "op_ok_frac": (ok / len(samples), "fraction"),
    }


def class_summary(samples: list[Sample]) -> dict:
    """Per op class: count, share and median latency, for the meta line."""
    out = {}
    for cls in sorted({s.cls for s in samples}):
        lat = [s.seconds for s in samples if s.cls == cls]
        out[cls] = {
            "ops": len(lat),
            "share": round(len(lat) / len(samples), 4),
            "p50_ms": round(percentile(lat, 0.5) * 1e3, 4),
        }
    return out


def percentile_classes(samples: list[Sample]) -> dict:
    """The class holding each reported percentile, and that class's share
    of the ops within 2.5 percentile ranks of it; a share near 1 means the
    percentile lies well inside one class, not on a class boundary."""
    ordered = sorted(samples, key=lambda s: s.seconds)
    n = len(ordered)
    out = {}
    for name, q in (("p50", 0.50), ("p90", 0.90)):
        i = int(max(1, -(-n * q // 1))) - 1
        window = ordered[max(0, i - n // 40): i + n // 40 + 1]
        cls = ordered[i].cls
        out[name] = {"class": cls,
                     "class_share_nearby": round(sum(s.cls == cls for s in window) / len(window), 3)}
    return out


def source_digest() -> str:
    """SHA-256 over the program's sources, naming the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "compalg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """The checkout's git HEAD, or None when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }

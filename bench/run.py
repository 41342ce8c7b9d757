"""compalg benchmark: four closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload tower --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each of the first ``TRACE_OPS`` ops of the same
seeded sequence untraced and then traced, and reports the per-layer
metrics plus the tracing overhead. The last stdout line is the result
object; the line before it carries the run metadata (machine, Python,
seed, op counts, commit). See README.md for the metrics and for which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time

import cipher
import cli_mix
import harness
import monoid
import tower
from tracer import MAX_SPANS, Tracer

WORKLOADS = {"tower": tower, "monoid": monoid, "cipher": cipher, "cli": cli_mix}

#: layer metrics timed outside the tracer, by the cli workload's
#: ``layer_metrics``; the other workloads report them as 0
CLI_LAYER_METRICS = ("cli.spawn_ms", "cli.import_ms", "cli.build_parser_ms", "cli.dispatch_ms")


def op_stream(wl, state, seed: int, make=None):
    """The seeded op sequence; the same seed gives the same inputs."""
    classes = harness.schedule(random.Random(f"{seed}:classes"), wl.SHARES)
    rng = random.Random(f"{seed}:inputs")
    make = make or wl.make_op
    return lambda: make(state, rng, next(classes))


def fresh_state(wl, seed: int):
    lib = harness.load_library(wl.MODULES)
    return wl.setup(lib, random.Random(f"{seed}:setup"))


def measure(wl, seed: int, seconds: float):
    setup_times = []
    for _ in range(harness.SETUP_REPEATS):
        state = None
        gc.collect()  # free the previous import before timing the next
        t0 = time.perf_counter()
        state = fresh_state(wl, seed)
        setup_times.append(time.perf_counter() - t0)
    gc.collect()
    setup_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = harness.closed_loop(op_stream(wl, state, seed), seconds)
    peak = getattr(wl, "peak_rss_kib", None)
    peak_kib = peak() if peak else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = harness.end_to_end(samples, setup_times, peak_kib)
    extra = wl.meta(state) if hasattr(wl, "meta") else {}
    extra["setup_peak_rss_mib"] = setup_peak_kib / 1024
    return samples, metrics, extra


def measure_traced(wl, seed: int, out_dir):
    """Each of the first TRACE_OPS ops untraced, then traced; per-layer metrics.

    The two passes run on two fresh imports, interleaved op by op, so a
    change of machine speed during the run hits both alike. Only the
    second import carries the tracer's wrappers.
    """
    make = getattr(wl, "make_traced_op", wl.make_op)
    plain_state = fresh_state(wl, seed)
    traced_state = fresh_state(wl, seed)
    tracer = Tracer()
    tracer.install()
    next_plain = op_stream(wl, plain_state, seed, make)
    next_traced = op_stream(wl, traced_state, seed, make)
    plain, traced = [], []
    for _ in range(wl.TRACE_OPS):
        plain.append(harness.run_op(next_plain()))
        op = next_traced()
        traced.append(harness.run_op(harness.Op(op.cls, lambda: tracer.run_op(op.run), op.check)))
        if tracer.full:
            raise SystemExit(f"benchmark: {len(traced)} traced {wl.__name__} ops overflow "
                             f"{MAX_SPANS} spans; lower TRACE_OPS")
    tracer.write(out_dir / f"spans-{wl.__name__}.bin")

    plain_s = sum(s.seconds for s in plain)
    traced_s = sum(s.seconds for s in traced)
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_ops_per_s"] = (len(plain) / plain_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (len(traced) / traced_s, "1/s")
    metrics["trace.ops_per_s_drop"] = (1 - plain_s / traced_s, "fraction")
    metrics.update({name: (0.0, "ms") for name in CLI_LAYER_METRICS})
    layer_metrics = getattr(wl, "layer_metrics", None)
    if layer_metrics:
        metrics.update(layer_metrics(traced_state, plain))
    return plain + traced, metrics, {"traced_ops": len(traced), "spans": len(tracer)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    meta = harness.run_metadata(args.workload, args.seed, args.trace)
    started = time.perf_counter()
    if args.trace:
        samples, metrics, extra = measure_traced(wl, args.seed, harness.ROOT / ".bench_out")
    else:
        samples, metrics, extra = measure(wl, args.seed, args.seconds)
    failed = sum(not s.ok for s in samples)
    meta.update(extra)
    meta["ops"] = len(samples)
    meta["op_fail_frac"] = failed / len(samples)
    meta["classes"] = harness.class_summary(samples)
    meta["percentile_classes"] = harness.percentile_classes(samples)
    meta["wall_s"] = round(time.perf_counter() - started, 3)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

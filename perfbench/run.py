#!/usr/bin/env python3
"""Benchmark of the fortdefense package.

    python3 perfbench/run.py --workload adhoc-w0 --seed 0 --seconds 20 --trace 0

Runs one workload (adhoc-w0, offline-learn or explain) from the root of a
checkout, repeating whole passes over its input and checking each for
about ``--seconds``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and gives the per-layer metrics and the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import harness
import hostspeed


def _end_to_end(passes, nominal_s, setup_s) -> dict:
    """Figures over all the passes of the run, at nominal host speed:
    throughput is operations per second summed over the passes, and the
    latency percentiles are taken over every pass's operations pooled."""
    latencies = [1000.0 * t for r in passes for t in hostspeed.at_nominal(r.ops)]
    done = sum(r.attempted - r.failed for r in passes)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "ops_per_s": (done / sum(nominal_s), "1/s"),
        "op_ms_p50": (harness.percentile(latencies, 0.5), "ms"),
        "op_ms_p90": (harness.percentile(latencies, 0.9), "ms"),
        "pred_accuracy": (passes[0].pred_accuracy, "ratio"),
    }


def _set_up(wl) -> float:
    """Set the workload up ``SETUP_REPEATS`` times, each time with the
    package imported in a fresh interpreter, then do its one-off set-up;
    returns the median set-up plus the one-off part, in seconds at nominal
    host speed."""
    samples = []
    for _ in range(harness.SETUP_REPEATS):
        w0 = time.perf_counter()
        import_s = harness.time_import()
        _, (_, w1, setup_s) = hostspeed.timed(wl.setup)
        # the import ran in another process: judge the host by a few more runs
        hostspeed.SPEED.sample(import_s)
        samples.append((import_s + setup_s) * hostspeed.SPEED.factor(w0, w1))
    _, once = hostspeed.timed(wl.setup_once)
    return statistics.median(samples) + hostspeed.at_nominal([once])[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.SRC, "fortdefense", "__init__.py")):
        print(f"error: no package source at {harness.SRC}/fortdefense", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None

    if args.trace:
        setup_tracer = tracing.Tracer()
        with tracing.layer_patch(setup_tracer):
            wl.setup()
            wl.setup_once()
        setup_s = None
    else:
        setup_s = _set_up(wl)

    passes, errors = [], []
    rounds = 0  # an untraced pass, then with --trace 1 a traced one
    start = time.perf_counter()
    # Whole passes only: start another round while at least half of the
    # mean round still fits in --seconds, and always run the workload's
    # minimum (which the latency percentiles need; the traced run reports
    # none).
    min_rounds = 1 if args.trace else wl.MIN_PASSES
    while rounds < min_rounds or (
        (elapsed := time.perf_counter() - start) + elapsed / rounds / 2 < args.seconds
    ):
        rounds += 1
        passes.append(wl.run_pass())
        if args.trace:
            tracer = tracer or tracing.Tracer()
            with tracing.layer_patch(tracer):
                passes.append(wl.run_pass())
        for r in passes[-1 - args.trace :]:
            errors += wl.check(r)
            r.data = None  # keep one pass's outputs in memory at a time

    # Each pass's CPU seconds at nominal host speed.
    nominal_s = [r.cpu_s * hostspeed.mean_factor(r.spans or r.ops) for r in passes]
    if len({len(r.ops) for r in passes}) != 1:
        errors.append("passes timed different numbers of operations")
    prints = {r.fingerprint for r in passes}
    if len(prints) != 1:
        errors.append(f"{len(prints)} different fingerprints across passes")
    if len({r.pred_accuracy for r in passes}) != 1:
        errors.append("pred_accuracy differs across passes")
    first = passes[0]
    harness.info("fingerprint", {"workload": args.workload, "sha256": first.fingerprint})
    harness.info(
        "workload",
        {
            "name": args.workload,
            "seed": args.seed,
            "passes": len(passes),
            "pass_cpu_s": [round(r.cpu_s, 3) for r in passes],
            "pass_nominal_s": [round(t, 3) for t in nominal_s],
            "timed_ops_per_pass": len(first.ops),
            **first.extra,
        },
    )
    for e in errors[:20]:
        print(f"check failed: {e}", flush=True)

    if args.trace:
        per = tracing.per_pass(setup_tracer, tracer, rounds)
        extra = {k: v for k, v in first.extra.items() if k.startswith("explain.")}
        extra.update(wl.layer_extra)
        metrics = tracing.layer_metrics(per, first.decisions, extra)
        # passes alternate: untraced, traced
        traced = passes[1::2]
        speed = sum(nominal_s[1::2]) / sum(r.cpu_s for r in traced)
        for name, (value, unit) in metrics.items():
            if unit in ("s", "ms"):  # to nominal speed, by the traced passes' factor
                metrics[name] = (value * speed, unit)
        overhead = statistics.median(nominal_s[1::2]) / statistics.median(nominal_s[::2]) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    else:
        metrics = _end_to_end(passes, nominal_s, setup_s)

    print(
        harness.result_line(
            correct=not errors,
            attempted=sum(r.attempted for r in passes),
            failed=sum(r.failed for r in passes),
            metrics=metrics,
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

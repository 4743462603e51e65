"""Set-up timing, the closed operation loop, and the result line.

See run.py for the command line. The end-to-end run times the workload
untraced; the per-layer run splits its time between an untraced and a
traced loop, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import stats
import tracing
import workloads

# Set-up runs this many times before the loop and again after it, so its
# median spans two moments of a machine whose speed drifts over seconds.
SETUP_REPEATS = 5
OUT_DIR = ".bench_out"


def parse(argv):
    parser = argparse.ArgumentParser(description="enqode benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def timed_setup(workload, tracer=None) -> list[float]:
    times = []
    for rep in range(SETUP_REPEATS):
        if tracer:
            tracer.op = f"setup-{rep}"
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


class Loop:
    """Closed loop, one client: whole rounds over the workload's pooled
    inputs until the time is up. Failed operations are counted and carry
    no latency."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.op_inputs: list[int] = []  # pool index of each timed operation
        self.attempted = 0
        self.failed = 0
        self.samples = 0
        self.wall = 0.0

    def run(self, workload, seconds: float, tracer=None) -> "Loop":
        start = time.perf_counter()
        while True:
            for index in range(len(workload.pool)):
                if tracer:
                    tracer.op = self.attempted
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = workload.run(index)
                except Exception:  # noqa: BLE001 - counted, reported, loop goes on
                    self.failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                self.op_seconds.append(time.perf_counter() - t0)
                self.op_inputs.append(index)
                self.samples += workload.samples_per_op
                workload.record(index, result)
            if time.perf_counter() - start >= seconds:
                break
        self.wall = time.perf_counter() - start
        if tracer:
            tracer.op = None
        return self

    def p50_ms(self) -> float:
        return stats.median(self.op_seconds) * 1e3


def end_to_end(workload, args) -> tuple[dict, int, int]:
    setup = timed_setup(workload)
    loop = Loop().run(workload, args.seconds)
    rss = peak_rss_mb()
    setup += timed_setup(workload)
    label, tail_s = stats.input_tail(loop.op_seconds, loop.op_inputs)
    print(f"{workload.name}: {len(loop.op_seconds)} ops on {len(workload.pool)} inputs "
          f"in {loop.wall:.2f} s, op_ms_tail is the {label} over inputs", file=sys.stderr)
    return {
        "setup_s": (stats.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_ms_p50": (loop.p50_ms(), "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "samples_per_s": (loop.samples / loop.wall, "1/s"),
        "fidelity_mean": (workload.fidelity_mean(), "fraction"),
    }, loop.attempted, loop.failed


def per_layer(workload, args, workdir) -> tuple[dict, int, int]:
    tracer = tracing.Tracer()
    tour = None
    tracer.install()
    try:
        timed_setup(workload, tracer)
        tracer.uninstall()
        plain = Loop().run(workload, args.seconds / 2)
        tracer.install()
        loop = Loop().run(workload, args.seconds / 2, tracer)
        if workload.name != "compare-n7":
            tour = workloads.make("compare-n7", args.seed, os.path.join(workdir, "tour"))
            tracer.op = "tour-setup"
            tour.setup()
            tracer.op = "tour-0"
            tour.record(0, tour.run(0))
        tracing.run_probes(tracer)
    finally:
        tracer.uninstall()
    if tour is not None:
        tour.check()

    overhead = loop.p50_ms() / plain.p50_ms() - 1.0
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-{args.seed}.jsonl")
    tracer.write(path, {"workload": workload.name, "seed": args.seed,
                        "untraced_op_ms_p50": plain.p50_ms(),
                        "traced_op_ms_p50": loop.p50_ms(),
                        "tracing_overhead": overhead})
    print(f"{workload.name}: tracing overhead {100 * overhead:+.1f}% on op_ms_p50 "
          f"({plain.p50_ms():.3f} -> {loop.p50_ms():.3f} ms); spans in {path}",
          file=sys.stderr)
    return (tracing.derive(tracer.spans), plain.attempted + loop.attempted,
            plain.failed + loop.failed)


def main(argv) -> int:
    args = parse(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    workload = workloads.make(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(workload, args, workdir)
        else:
            metrics, attempted, failed = end_to_end(workload, args)
        workload.check()
    except workloads.CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        return report(False, 1, 0, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(True, attempted, failed, metrics)


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0

"""Order statistics for the benchmark's reported figures."""

from __future__ import annotations

import statistics

# per-mille percentiles tried from the highest down
TAIL_LADDER = (999, 990, 950, 900, 750)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[str, float]:
    """The highest ladder percentile with at least ten values beyond it, by
    nearest rank. Below forty values no percentile qualifies and the median
    is returned: a higher one would not be a tail."""
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_LADDER:
        rank = -(-permille * n // 1000)  # ceil without float rounding
        if n - rank >= TAIL_MIN_BEYOND:
            return f"p{permille / 10:g}", float(ordered[rank - 1])
    return "p50", median(ordered)


def input_tail(op_seconds, op_inputs) -> tuple[str, float]:
    """`tail` over inputs, each input counted once at the median latency of
    its operations. On a shared virtual machine, hypervisor steal lands on
    random operations: on the 2-vCPU machine of bench/README.md it moved
    the per-operation p99.9 of embed-n8 between 3.5 and 15.3 ms across ten
    seeds, and even the p95 by a quarter. An input's median drops those
    hits, and what is left is the latency of the inputs that take the most
    work."""
    by_input: dict = {}
    for seconds, index in zip(op_seconds, op_inputs):
        by_input.setdefault(index, []).append(seconds)
    return tail([median(v) for v in by_input.values()])


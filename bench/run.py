#!/usr/bin/env python3
"""Benchmark for enqode: one workload per invocation, one JSON line out.

    python3 bench/run.py --workload {train-n10,embed-n8,compare-n7} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root: the package is imported from ./src, so the
checkout under test is what gets measured. Inputs are generated from
--seed. The program's set-up runs several times and its median is
`setup_s`; then whole rounds of operations run until --seconds have
passed, and the outputs are checked (workloads.py).

--trace 0 reports the end-to-end metrics. --trace 1 runs the loop for half
the time untraced and half traced, adds a traced compare-n7 tour and
gate-kind probes (tracing.py), writes the spans to
.bench_out/trace-<workload>-<seed>.jsonl and reports the per-layer
metrics. The last line of standard output is the result object.
"""

import os
import sys

# Fixed before numpy loads OpenBLAS: with its default two threads a small
# product in OverlapModel.loss_and_grad stalls now and then, and compare's
# --jobs workers must be the only compute threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "enqode", "__init__.py")):
        print("error: src/enqode not found; run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

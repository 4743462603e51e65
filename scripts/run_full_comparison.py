#!/usr/bin/env python3
"""Run the whole comparison on fresh synthetic data: generate, prepare,
train, compare.

Everything lands under --out: the raw and prepared CSVs, the trained
library, report.json / report.csv, and the four SVG figures. The compare
step density-simulates each sample's exact-synthesis circuit and ansatz
under noise. At the default eight qubits that costs about 40 and 10 ms
per sample (one BLAS thread, which the script sets unless the environment
already names a count, on a shared 2-vCPU VM), and the whole run at the
default 30 samples takes 2-5 s.
"""

import argparse
import os
import subprocess
import sys

# One BLAS/OpenMP thread unless the caller chose otherwise, set before numpy
# loads through enqode: under OpenBLAS's default of one thread per core the
# whole run takes about twice as long on a 2-vCPU machine. The
# make_synthetic.py child inherits the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from enqode.cli import main as enqode_main  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/full", help="artifact directory")
    parser.add_argument("--qubits", type=int, default=8)
    parser.add_argument("--layers", type=int, default=8)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--per-cluster", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--noise-p1", type=float, default=None)
    parser.add_argument("--noise-p2", type=float, default=None)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    raw = os.path.join(args.out, "raw.csv")
    generate = [
        sys.executable, os.path.join(HERE, "make_synthetic.py"), raw,
        "--qubits", str(args.qubits),
        "--clusters", str(args.clusters),
        "--per-cluster", str(args.per_cluster),
        "--seed", str(args.seed),
    ]
    result = subprocess.run(generate)
    if result.returncode != 0:
        return result.returncode

    common = ["--qubits", str(args.qubits), "--layers", str(args.layers),
              "--seed", str(args.seed), "--out", args.out]
    if args.noise_p1 is not None:
        common += ["--noise-p1", str(args.noise_p1)]
    if args.noise_p2 is not None:
        common += ["--noise-p2", str(args.noise_p2)]

    for step in (["prepare", raw, *common],
                 ["train", *common],
                 ["compare", *common, "--jobs", str(args.jobs)]):
        code = enqode_main(step)
        if code != 0:
            print(f"step {step[0]!r} exited with {code}", file=sys.stderr)
            return code

    print(f"\nartifacts in {args.out}; try: enqode inspect {args.out}/report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())

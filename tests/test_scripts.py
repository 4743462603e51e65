"""Smoke test for the end-to-end script in scripts/."""

import csv
import json
import os
import subprocess
import sys

import enqode

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_full_comparison_script_runs_end_to_end(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(enqode.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "full"
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "run_full_comparison.py"),
         "--qubits", "2", "--layers", "2", "--per-cluster", "4", "--jobs", "1",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(out / "prepared.csv", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh))
    report = json.loads((out / "report.json").read_text())
    assert rows == 12  # three clusters of four
    assert report["aggregate"]["samples_compared"] == rows

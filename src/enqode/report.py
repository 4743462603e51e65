"""Comparison report assembly: per-sample rows, aggregates, ratios, writers.

One row per (sample, method). Aggregates and ratios are computed over the
samples present for both methods so partial failures cannot skew the
comparison. Ratios are improvement factors of the trained-ansatz method
over the exact baseline: depth_ratio and gate_ratio divide baseline means
by ansatz means, fidelity_ratio_noisy divides the ansatz mean by the
baseline mean, so larger is better for all three.

Rerunning with the same config and seed reproduces every field except
wall-clock measurements. `strip_volatile` removes the timestamp and zeroes
every *seconds field, giving the canonical form used for byte-identity
checks between runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "REFERENCE_RATIOS",
    "SampleRow",
    "build_report",
    "report_to_json",
    "write_report_csv",
    "strip_volatile",
]

SCHEMA_VERSION = 1

# Published full-scale reference points for context; desk-scale runs assert
# direction and floors, not these magnitudes.
REFERENCE_RATIOS = {
    "depth": 28.0,
    "total_gates": 12.0,
    "one_qubit": 11.0,
    "two_qubit": 12.0,
    "noisy_fidelity": 14.0,
}

METHOD_ANSATZ = "enqode"
METHOD_BASELINE = "baseline"


@dataclass(frozen=True)
class SampleRow:
    sample_id: int
    method: str  # METHOD_ANSATZ or METHOD_BASELINE
    depth: int
    one_qubit: int
    two_qubit: int
    total_physical: int
    ideal_fidelity: float
    noisy_fidelity: float
    compile_seconds: float
    cluster_id: int | None = None

    def __post_init__(self):
        if self.method not in (METHOD_ANSATZ, METHOD_BASELINE):
            raise ValueError(f"unknown method {self.method!r}")

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in _COLUMNS}
        if self.cluster_id is None:
            del d["cluster_id"]
        return d


# The row schema, in field order: the CSV header and the JSON row keys.
_COLUMNS = tuple(f.name for f in fields(SampleRow))
# Every column but the identifying ones is a measure averaged per method.
_STAT_COLUMNS = tuple(c for c in _COLUMNS if c not in ("sample_id", "method", "cluster_id"))


def _method_stats(rows: list[SampleRow]) -> dict:
    stats: dict = {"count": len(rows)}
    for name in _STAT_COLUMNS:
        values = np.array([getattr(r, name) for r in rows], dtype=float)
        stats[f"{name}_mean"] = float(values.mean())
        stats[f"{name}_std"] = float(values.std())
    return stats


def _ratio(numerator: float, denominator: float) -> float | None:
    if denominator == 0.0:
        return None
    return numerator / denominator


def build_report(rows: list[SampleRow], metadata: dict | None = None,
                 failures: list[dict] | None = None) -> dict:
    """Assemble the report document; rows are ordered by (sample_id, method)
    and duplicate (sample, method) pairs are rejected."""
    seen = set()
    for row in rows:
        key = (row.sample_id, row.method)
        if key in seen:
            raise ValueError(f"duplicate row for sample {row.sample_id} method {row.method}")
        seen.add(key)
    ordered = sorted(rows, key=lambda r: (r.sample_id, r.method))

    by_method: dict[str, dict[int, SampleRow]] = {METHOD_ANSATZ: {}, METHOD_BASELINE: {}}
    for row in ordered:
        by_method[row.method][row.sample_id] = row
    shared = sorted(set(by_method[METHOD_ANSATZ]) & set(by_method[METHOD_BASELINE]))
    ansatz_rows = [by_method[METHOD_ANSATZ][i] for i in shared]
    baseline_rows = [by_method[METHOD_BASELINE][i] for i in shared]

    aggregate: dict = {"samples_compared": len(shared)}
    if shared:
        a_stats = _method_stats(ansatz_rows)
        b_stats = _method_stats(baseline_rows)
        aggregate[METHOD_ANSATZ] = a_stats
        aggregate[METHOD_BASELINE] = b_stats
        aggregate["ratios"] = {
            "depth_ratio": _ratio(b_stats["depth_mean"], a_stats["depth_mean"]),
            "gate_ratio": _ratio(b_stats["total_physical_mean"], a_stats["total_physical_mean"]),
            "fidelity_ratio_noisy": _ratio(a_stats["noisy_fidelity_mean"],
                                           b_stats["noisy_fidelity_mean"]),
        }

    meta = dict(metadata or {})
    meta.setdefault("timestamp", datetime.now(timezone.utc).isoformat())
    meta["reference_ratios"] = dict(REFERENCE_RATIOS)
    if failures:
        meta["failures"] = failures

    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": meta,
        "samples": [row.to_dict() for row in ordered],
        "aggregate": aggregate,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_report_csv(report: dict, path) -> None:
    """Flat per-sample table; every figure in the report is derivable from it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for row in report["samples"]:
            writer.writerow([row.get(col, "") for col in _COLUMNS])


def strip_volatile(doc):
    """Copy of a JSON document with wall-clock content removed: `timestamp`
    keys dropped and every key naming a seconds measurement (including the
    derived aggregate stats) zeroed. Two runs of the same seeded
    configuration agree byte-for-byte on this form."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key == "timestamp":
                continue
            if "seconds" in key:
                out[key] = 0.0
            else:
                out[key] = strip_volatile(value)
        return out
    if isinstance(doc, list):
        return [strip_volatile(item) for item in doc]
    return doc

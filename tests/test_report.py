"""Report document shape, aggregation rules, scrubbing, CSV and SVG writers."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from enqode.plots import render_report_svgs
from enqode.report import (
    REFERENCE_RATIOS,
    SCHEMA_VERSION,
    SampleRow,
    build_report,
    report_to_json,
    strip_volatile,
    write_report_csv,
)


def _row(sample_id, method, **overrides):
    base = dict(
        sample_id=sample_id,
        method=method,
        depth=10 if method == "enqode" else 80,
        one_qubit=24 if method == "enqode" else 30,
        two_qubit=6 if method == "enqode" else 70,
        total_physical=30 if method == "enqode" else 100,
        ideal_fidelity=0.97 if method == "enqode" else 1.0,
        noisy_fidelity=0.9 if method == "enqode" else 0.45,
        compile_seconds=0.01,
        cluster_id=0 if method == "enqode" else None,
    )
    base.update(overrides)
    return SampleRow(**base)


def _paired_rows(count):
    rows = []
    for i in range(count):
        rows.append(_row(i, "enqode"))
        rows.append(_row(i, "baseline"))
    return rows


# -- SampleRow ---------------------------------------------------------------


def test_sample_row_rejects_unknown_method():
    with pytest.raises(ValueError):
        _row(0, "exact")


def test_sample_row_dict_omits_missing_cluster():
    assert "cluster_id" not in _row(0, "baseline").to_dict()
    assert _row(0, "enqode").to_dict()["cluster_id"] == 0


_ROW_KEYS = ["sample_id", "method", "depth", "one_qubit", "two_qubit", "total_physical",
             "ideal_fidelity", "noisy_fidelity", "compile_seconds", "cluster_id"]


def test_report_row_keys_and_stat_keys_keep_their_order():
    report = build_report(_paired_rows(1))
    baseline, ansatz = report["samples"]
    assert list(ansatz) == _ROW_KEYS
    assert list(baseline) == _ROW_KEYS[:-1]
    stats = ["count"] + [f"{name}_{what}" for name in _ROW_KEYS[2:-1]
                         for what in ("mean", "std")]
    assert list(report["aggregate"]["enqode"]) == stats
    assert list(report["aggregate"]["baseline"]) == stats


# -- build_report ------------------------------------------------------------


def test_report_document_shape():
    report = build_report(_paired_rows(3), metadata={"seed": 5})
    assert set(report) == {"schema_version", "metadata", "samples", "aggregate"}
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["metadata"]["seed"] == 5
    assert report["metadata"]["reference_ratios"] == REFERENCE_RATIOS
    assert "timestamp" in report["metadata"]
    assert len(report["samples"]) == 6

    agg = report["aggregate"]
    assert agg["samples_compared"] == 3
    assert agg["enqode"]["count"] == 3
    assert agg["baseline"]["depth_mean"] == 80.0
    assert agg["baseline"]["depth_std"] == 0.0

    ratios = agg["ratios"]
    assert ratios["depth_ratio"] == pytest.approx(8.0)
    assert ratios["gate_ratio"] == pytest.approx(100 / 30)
    assert ratios["fidelity_ratio_noisy"] == pytest.approx(2.0)


def test_report_orders_rows_and_rejects_duplicates():
    rows = list(reversed(_paired_rows(3)))
    report = build_report(rows)
    keys = [(r["sample_id"], r["method"]) for r in report["samples"]]
    assert keys == sorted(keys)

    with pytest.raises(ValueError, match="duplicate"):
        build_report([_row(1, "enqode"), _row(1, "enqode")])


def test_report_aggregates_only_shared_samples():
    rows = _paired_rows(2)
    rows.append(_row(9, "enqode", depth=999, noisy_fidelity=0.0))  # no baseline partner
    report = build_report(rows)
    agg = report["aggregate"]
    assert agg["samples_compared"] == 2
    assert agg["enqode"]["depth_mean"] == 10.0  # unpaired row excluded
    assert len(report["samples"]) == 5  # but still listed per sample


def test_report_with_no_shared_samples_has_no_ratios():
    report = build_report([_row(0, "enqode"), _row(1, "baseline")])
    assert report["aggregate"] == {"samples_compared": 0}


def test_report_zero_denominator_ratio_is_null():
    rows = [
        _row(0, "enqode", depth=0),
        _row(0, "baseline", noisy_fidelity=0.0),
    ]
    ratios = build_report(rows)["aggregate"]["ratios"]
    assert ratios["depth_ratio"] is None
    assert ratios["fidelity_ratio_noisy"] is None


def test_report_failures_recorded_in_metadata():
    failures = [{"sample_id": 4, "error": "optimizer aborted"}]
    report = build_report(_paired_rows(1), failures=failures)
    assert report["metadata"]["failures"] == failures
    assert "failures" not in build_report(_paired_rows(1))["metadata"]


# -- writers -----------------------------------------------------------------


def test_report_json_round_trips():
    report = build_report(_paired_rows(2))
    text = report_to_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == report


def test_report_csv_is_flat_and_complete(tmp_path):
    report = build_report(_paired_rows(2))
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert path.read_text().splitlines()[0] == ",".join(_ROW_KEYS)
    assert rows[0]["method"] == "baseline"
    assert rows[0]["cluster_id"] == ""  # baseline rows carry no cluster
    assert rows[1]["cluster_id"] == "0"
    # aggregate means are derivable from the flat table
    depths = [float(r["depth"]) for r in rows if r["method"] == "enqode"]
    assert np.mean(depths) == report["aggregate"]["enqode"]["depth_mean"]


# -- strip_volatile ----------------------------------------------------------


def test_strip_volatile_removes_wall_clock_content():
    report = build_report(_paired_rows(2), metadata={"seed": 1})
    scrubbed = strip_volatile(report)
    assert "timestamp" not in scrubbed["metadata"]
    assert scrubbed["metadata"]["seed"] == 1
    for row in scrubbed["samples"]:
        assert row["compile_seconds"] == 0.0
    agg = scrubbed["aggregate"]["enqode"]
    assert agg["compile_seconds_mean"] == 0.0
    assert agg["compile_seconds_std"] == 0.0
    assert agg["depth_mean"] == 10.0  # non-volatile stats survive


def test_strip_volatile_equalizes_timing_noise():
    slow = build_report(_paired_rows(2), metadata={"seed": 1})
    fast = build_report(
        [_row(i, m, compile_seconds=5.0) for i in range(2) for m in ("enqode", "baseline")],
        metadata={"seed": 1},
    )
    a, b = strip_volatile(slow), strip_volatile(fast)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_strip_volatile_leaves_input_untouched():
    report = build_report(_paired_rows(1))
    before = json.dumps(report)
    strip_volatile(report)
    assert json.dumps(report) == before


# -- SVG rendering -----------------------------------------------------------


def test_render_report_svgs_writes_four_parsable_files(tmp_path):
    report = build_report(_paired_rows(4))
    paths = render_report_svgs(report, tmp_path)
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == sorted(
        ["depth.svg", "gate_counts.svg", "fidelity.svg", "compile_time.svg"]
    )
    for path in paths:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root)) > 3  # axis, bars, labels


def test_render_report_svgs_log_axis_for_wide_spreads(tmp_path):
    rows = []
    for i in range(4):
        rows.append(_row(i, "enqode", compile_seconds=0.001))
        rows.append(_row(i, "baseline", compile_seconds=40.0 + i))
    report = build_report(rows)
    render_report_svgs(report, tmp_path)
    text = (tmp_path / "compile_time.svg").read_text()
    assert "(log)" in text  # decade axis kicks in for a 4-decade spread
    assert "1e-3" in text

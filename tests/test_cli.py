"""End-to-end command tests: exit codes, artifacts, config merging, inspect."""

import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import datasets
from enqode import cli
from enqode.cli import EXIT_ALL_FAILED, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main
from enqode.dataio import load_csv
from enqode.report import strip_volatile


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_csv(path, values, labels=None):
    lines = []
    for i, row in enumerate(np.asarray(values, dtype=float)):
        cells = [repr(float(v)) for v in row]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _blob_csv(tmp_path, name="raw.csv", num_qubits=2, per_cluster=4, seed=0, scale=1.0):
    values, _ = datasets.clustered_dataset(num_qubits=num_qubits,
                                           per_cluster=per_cluster, seed=seed)
    return _write_csv(tmp_path / name, values * scale)


def _trained(tmp_path, capsys, num_qubits=2, layers=2):
    raw = _blob_csv(tmp_path, num_qubits=num_qubits)
    out = str(tmp_path / "run")
    args = ["--qubits", str(num_qubits), "--layers", str(layers), "--out", out]
    assert run_cli(["prepare", raw, *args], capsys)[0] == EXIT_OK
    assert run_cli(["train", *args], capsys)[0] == EXIT_OK
    return out


# -- prepare -----------------------------------------------------------------


def test_prepare_normalizes_and_reports(tmp_path, capsys):
    raw = _blob_csv(tmp_path, scale=3.0)  # rows need rescaling
    out = str(tmp_path / "run")
    code, stdout, _ = run_cli(["prepare", raw, "--qubits", "2", "--out", out], capsys)
    assert code == EXIT_OK
    assert "prepared 12 rows x 4 dims" in stdout
    prepared = load_csv(f"{out}/prepared.csv")
    norms = np.linalg.norm(prepared.values, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_prepare_applies_pca_labels_and_subsampling(tmp_path, capsys):
    rng = np.random.default_rng(4)
    values = rng.normal(size=(30, 10))
    labels = np.repeat([0, 1, 2], 10)
    raw = _write_csv(tmp_path / "labeled.csv", values, labels)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"has_labels": True, "per_class": 5}))
    out = str(tmp_path / "run")
    code, stdout, _ = run_cli(
        ["prepare", raw, "--config", str(config), "--qubits", "2", "--out", out],
        capsys)
    assert code == EXIT_OK
    assert "prepared 15 rows x 4 dims" in stdout
    sidecar = json.loads((tmp_path / "run" / "prepared.csv.provenance.json").read_text())
    assert sidecar["has_labels"] is True
    steps = " | ".join(sidecar["provenance"])
    assert "subsampled to <= 5 rows per class" in steps
    assert "pca 10 -> 4 dims" in steps


def test_prepare_missing_input_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["prepare", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")],
        capsys)
    assert code == EXIT_INPUT
    assert "absent.csv" in stderr


def test_prepare_impossible_target_dims_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(1)
    raw = _write_csv(tmp_path / "tiny.csv", rng.normal(size=(3, 8)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"qubits": 2}))
    code, _, stderr = run_cli(
        ["prepare", raw, "--config", str(config), "--out", str(tmp_path / "o")],
        capsys)
    assert code == EXIT_INPUT
    assert stderr.strip() == (
        "error: qubits 2: PCA to 4 dims needs at least 4 rows and 4 features, "
        "got 3 rows x 8 features")


def test_prepare_rejects_nan_cell_with_one_line_message(tmp_path, capsys):
    values, _ = datasets.clustered_dataset(num_qubits=2, per_cluster=4, seed=0)
    raw = _write_csv(tmp_path / "raw.csv", values)
    lines = (tmp_path / "raw.csv").read_text().splitlines()
    cells = lines[6].split(",")
    cells[2] = "nan"
    lines[6] = ",".join(cells)
    (tmp_path / "raw.csv").write_text("\n".join(lines) + "\n")
    assert len(lines) == 12 and len(cells) == 4
    out = tmp_path / "run"
    code, stdout, stderr = run_cli(["prepare", raw, "--qubits", "2", "--out", str(out)], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert "non-finite cell on line 7, column 3" in stderr
    assert not (out / "prepared.csv").exists()


@pytest.mark.parametrize("label", ["1.5", "1e30"], ids=["fractional", "out_of_int64"])
def test_prepare_rejects_a_label_that_is_not_an_integer_class(tmp_path, label, capsys):
    rng = np.random.default_rng(5)
    raw = _write_csv(tmp_path / "labeled.csv", rng.normal(size=(12, 4)), np.repeat([0, 1], 6))
    lines = (tmp_path / "labeled.csv").read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + "," + label
    (tmp_path / "labeled.csv").write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"has_labels": True}))
    out = tmp_path / "run"
    code, stdout, stderr = run_cli(
        ["prepare", raw, "--config", str(config), "--qubits", "2", "--out", str(out)], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert stderr.strip() == (
        f"error: {raw}: label on line 5, column 5 is not an integer class: '{label}'")
    assert not (out / "prepared.csv").exists()


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    raw = _blob_csv(tmp_path)
    config = tmp_path / "c.json"
    for key in ("bogus", "target_dims"):
        config.write_text(json.dumps({key: 1}))
        code, _, stderr = run_cli(["prepare", raw, "--config", str(config)], capsys)
        assert code == EXIT_INPUT
        assert f"unknown config keys: ['{key}']" in stderr

    for key in ("turbo", "wolfe_c1"):
        config.write_text(json.dumps({"optimizer": {key: 0.5}}))
        code, _, stderr = run_cli(["prepare", raw, "--config", str(config)], capsys)
        assert code == EXIT_INPUT
        assert f"unknown optimizer config keys: ['{key}']" in stderr


@pytest.mark.parametrize("doc, message", [
    ({"optimizer": {"random_restart": "no"}},
     'optimizer config random_restart must be true or false, got "no"'),
    ({"jobs": True}, "config jobs must be an integer, got true"),
    ({"kmax": 2.5}, "config kmax must be an integer or null, got 2.5"),
    ({"noise_p1": "0.1"}, 'config noise_p1 must be a number, got "0.1"'),
    ({"qubits": "8"}, 'config qubits must be an integer, got "8"'),
    ({"seed": 1.5}, "config seed must be an integer, got 1.5"),
    ({"floor": "0.9"}, 'config floor must be a number, got "0.9"'),
], ids=["restart_string", "jobs_bool", "kmax_float", "noise_string", "qubits_string",
        "seed_float", "floor_string"])
def test_mistyped_config_values_exit_2(tmp_path, capsys, doc, message):
    raw = _blob_csv(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code, stdout, stderr = run_cli(
        ["prepare", raw, "--config", str(config), "--out", str(out)], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr == f"error: {message}\n"
    assert not out.exists()


def test_config_accepts_integer_floats_and_null_optionals(tmp_path, capsys):
    raw = _blob_csv(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"floor": 1, "noise_p1": 0, "kmax": None,
                                  "per_class": None, "qubits": 2}))
    code, stdout, _ = run_cli(
        ["prepare", raw, "--config", str(config), "--out", str(tmp_path / "run")], capsys)
    assert code == EXIT_OK
    assert "prepared 12 rows" in stdout


# -- train -------------------------------------------------------------------


@pytest.mark.parametrize("sidecar, message", [
    ([], "must be a JSON object"),
    ({"provenance": []}, "is missing key 'has_labels'"),
    ({"has_labels": "false", "provenance": []},
     'has_labels must be true or false, got "false"'),
    ({"has_labels": False, "provenance": 5}, "provenance must be a list, got 5"),
    ({"has_labels": False, "provenance": ["loaded raw.csv", 5]},
     "provenance[1] must be a string, got 5"),
], ids=["array", "missing_has_labels", "string_has_labels", "int_provenance",
        "int_provenance_step"])
def test_train_rejects_malformed_dataset_sidecar(tmp_path, capsys, sidecar, message):
    raw = _blob_csv(tmp_path)
    out = tmp_path / "run"
    args = ["--qubits", "2", "--layers", "2", "--out", str(out)]
    assert run_cli(["prepare", raw, *args], capsys)[0] == EXIT_OK
    path = out / "prepared.csv.provenance.json"
    path.write_text(json.dumps(sidecar))
    code, stdout, stderr = run_cli(["train", *args], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr == f"error: {path} {message}\n"
    assert "Traceback" not in stderr
    assert not (out / "library.json").exists()


@pytest.mark.parametrize("change, message", [
    ({"rows": 99}, "rows is 99 but {csv} has 12"),
    ({"dims": 7}, "dims is 7 but {csv} has 4"),
    ({"rows": "12"}, 'rows must be an integer, got "12"'),
], ids=["rows_off", "dims_off", "string_rows"])
def test_train_rejects_a_sidecar_that_does_not_match_its_csv(tmp_path, capsys, change, message):
    raw = _blob_csv(tmp_path)
    out = tmp_path / "run"
    args = ["--qubits", "2", "--layers", "2", "--out", str(out)]
    assert run_cli(["prepare", raw, *args], capsys)[0] == EXIT_OK
    path = out / "prepared.csv.provenance.json"
    sidecar = json.loads(path.read_text())
    assert (sidecar["rows"], sidecar["dims"]) == (12, 4)
    path.write_text(json.dumps({**sidecar, **change}))
    code, stdout, stderr = run_cli(["train", *args], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr == f"error: {path} {message.format(csv=out / 'prepared.csv')}\n"
    assert "Traceback" not in stderr
    assert not (out / "library.json").exists()



def test_train_three_blobs_finds_three_clusters(tmp_path, capsys):
    # the blob separation only forces three clusters from four qubits up
    raw = _blob_csv(tmp_path, num_qubits=4)
    out = str(tmp_path / "run")
    args = ["--qubits", "4", "--layers", "4", "--out", out]
    run_cli(["prepare", raw, *args], capsys)
    code, stdout, _ = run_cli(["train", *args], capsys)
    assert code == EXIT_OK
    assert "trained 3 clusters" in stdout
    library = json.loads((tmp_path / "run" / "library.json").read_text())
    assert len(library["clusters"]) == 3


def test_train_identical_rows_collapse_to_one_cluster(tmp_path, capsys):
    row = datasets.product_state([0.4, 1.0])
    raw = _write_csv(tmp_path / "same.csv", np.tile(row, (5, 1)))
    out = str(tmp_path / "run")
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    run_cli(["prepare", raw, *args], capsys)
    code, stdout, _ = run_cli(["train", *args], capsys)
    assert code == EXIT_OK
    assert "trained 1 clusters" in stdout


def test_train_infeasible_floor_exits_3(tmp_path, capsys):
    raw = _write_csv(tmp_path / "ortho.csv", np.eye(4))
    out = str(tmp_path / "run")
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    run_cli(["prepare", raw, *args], capsys)
    code, _, stderr = run_cli(["train", *args, "--kmax", "2"], capsys)
    assert code == EXIT_INFEASIBLE
    assert "infeasible at k = 2" in stderr
    assert "best achievable floor" in stderr
    assert not (tmp_path / "run" / "library.json").exists()


def test_train_rerun_reproduces_library(tmp_path, capsys):
    out = _trained(tmp_path, capsys)
    first = json.loads((tmp_path / "run" / "library.json").read_text())
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    assert run_cli(["train", *args], capsys)[0] == EXIT_OK
    second = json.loads((tmp_path / "run" / "library.json").read_text())
    assert strip_volatile(first) == strip_volatile(second)
    assert first["clusters"] == second["clusters"]  # only wall time may move


# -- compare -----------------------------------------------------------------


def _mixed_csv(tmp_path):
    """Blob samples plus sparse targets so baseline circuit sizes spread out."""
    values, _ = datasets.clustered_dataset(num_qubits=2, per_cluster=4, seed=0)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    half = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    return _write_csv(tmp_path / "mixed.csv", np.vstack([values, e0, half]))


def test_compare_writes_report_and_plots(tmp_path, capsys):
    out = _trained(tmp_path, capsys)
    mixed = _mixed_csv(tmp_path)
    args = ["--qubits", "2", "--layers", "2", "--out", out, "--jobs", "2"]
    code, stdout, stderr = run_cli(
        ["compare", mixed, f"{out}/library.json", *args], capsys)
    assert code == EXIT_OK
    assert "compared 14 samples" in stdout
    assert "depth ratio" in stdout
    assert stderr == ""

    report = json.loads((tmp_path / "run" / "report.json").read_text())
    agg = report["aggregate"]
    assert agg["samples_compared"] == 14
    # the trained ansatz is one fixed circuit; the exact method tracks the data
    assert agg["enqode"]["depth_std"] == 0.0
    assert agg["enqode"]["total_physical_std"] == 0.0
    assert agg["baseline"]["depth_std"] > 0.0
    assert set(agg["ratios"]) == {"depth_ratio", "gate_ratio", "fidelity_ratio_noisy"}
    assert report["metadata"]["config"]["qubits"] == 2
    assert report["metadata"]["config"]["optimizer"]["max_iters"] == 500
    assert report["metadata"]["reference_ratios"]["depth"] == 28.0

    for name in ("report.csv", "depth.svg", "gate_counts.svg",
                 "fidelity.svg", "compile_time.svg"):
        assert (tmp_path / "run" / name).exists()

    sample_ids = [r["sample_id"] for r in report["samples"]]
    assert sample_ids == sorted(sample_ids)


def test_compare_partial_failure_warns_but_succeeds(tmp_path, capsys):
    out = _trained(tmp_path, capsys)
    values, _ = datasets.clustered_dataset(num_qubits=2, per_cluster=2, seed=0)
    rows = np.vstack([values, [0.9, 0.0, 0.0, 0.0]])  # last row is not unit norm
    bad = _write_csv(tmp_path / "bad.csv", rows)
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    code, stdout, stderr = run_cli(["compare", bad, f"{out}/library.json", *args], capsys)
    assert code == EXIT_OK
    assert "compared 6 samples" in stdout
    assert "1 of 7 samples failed" in stderr
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["metadata"]["failures"][0]["sample_id"] == 6


def test_compare_report_is_identical_for_any_jobs(tmp_path, capsys):
    raw = _blob_csv(tmp_path, num_qubits=4, per_cluster=12)  # 36 rows
    out = str(tmp_path / "run")
    args = ["--qubits", "4", "--layers", "2", "--out", out]
    assert run_cli(["prepare", raw, *args], capsys)[0] == EXIT_OK
    assert run_cli(["train", *args], capsys)[0] == EXIT_OK
    reports = []
    for jobs in (1, 2, 3):
        code, _, _ = run_cli(["compare", f"{out}/prepared.csv", f"{out}/library.json",
                              *args, "--jobs", str(jobs)], capsys)
        assert code == EXIT_OK
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["metadata"]["config"]["jobs"] == jobs
        assert report["aggregate"]["samples_compared"] == 36
        report["metadata"]["config"]["jobs"] = None  # the only field that may differ
        reports.append(json.dumps(strip_volatile(report), sort_keys=True))
    assert reports[0] == reports[1] == reports[2]


def test_compare_failures_are_in_sample_order_at_any_timing(tmp_path, capsys, monkeypatch):
    out = _trained(tmp_path, capsys)
    mixed = _mixed_csv(tmp_path)
    real = cli._compare_one

    def flaky(sample_id, *rest):
        if sample_id == 1:
            time.sleep(0.2)  # finishes after sample 4 fails on the other worker
            raise RuntimeError("injected failure in sample 1")
        if sample_id == 4:
            raise RuntimeError("injected failure in sample 4")
        return real(sample_id, *rest)

    monkeypatch.setattr(cli, "_compare_one", flaky)
    args = ["--qubits", "2", "--layers", "2", "--out", out, "--jobs", "2"]
    reports = []
    for _ in range(2):
        code, _, stderr = run_cli(["compare", mixed, f"{out}/library.json", *args], capsys)
        assert code == EXIT_OK
        assert "2 of 14 samples failed" in stderr
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        reports.append(json.dumps(strip_volatile(report), sort_keys=True))
        failures = report["metadata"]["failures"]
        assert [f["sample_id"] for f in failures] == [1, 4]
        assert failures[0]["error"] == "injected failure in sample 1"
    assert reports[0] == reports[1]


def test_compare_all_failed_exits_4(tmp_path, capsys):
    out = _trained(tmp_path, capsys)
    values, _ = datasets.clustered_dataset(num_qubits=2, per_cluster=2, seed=0)
    short = _write_csv(tmp_path / "short.csv", 0.9 * values)  # no row is unit norm
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    code, _, stderr = run_cli(["compare", short, f"{out}/library.json", *args], capsys)
    assert code == EXIT_ALL_FAILED
    assert "all samples failed" in stderr
    assert "sample 0:" in stderr


def _drop_config(library):
    del library["config"]


def _shorten_theta(library):
    library["clusters"][1]["theta_star"].pop()


def _scale_centroid(library):
    library["clusters"][0]["centroid"] = [2.0 * v for v in library["clusters"][0]["centroid"]]


def _repeat_id(library):
    library["clusters"][1]["id"] = library["clusters"][0]["id"]


@pytest.mark.parametrize("doctor, message", [
    (_drop_config, "library is missing key 'config'"),
    (_shorten_theta, "library cluster 1: theta_star must be 4 finite numbers"),
    (_scale_centroid, "library cluster 0: centroid is not unit norm (norm 2)"),
    (_repeat_id, "library cluster id 0 is not unique"),
])
def test_compare_rejects_malformed_library(tmp_path, capsys, doctor, message):
    out = _trained(tmp_path, capsys)
    library = json.loads((tmp_path / "run" / "library.json").read_text())
    assert len(library["clusters"]) == 2
    doctor(library)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(library))
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    code, stdout, stderr = run_cli(
        ["compare", f"{out}/prepared.csv", str(doctored), *args], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr.startswith(f"error: {message}")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert not (tmp_path / "run" / "report.json").exists()


def test_compare_dimension_mismatch_exits_2(tmp_path, capsys):
    out = _trained(tmp_path, capsys)
    rng = np.random.default_rng(0)
    wide = rng.normal(size=(4, 8))
    wide /= np.linalg.norm(wide, axis=1)[:, None]
    other = _write_csv(tmp_path / "wide.csv", wide)
    code, _, stderr = run_cli(
        ["compare", other, f"{out}/library.json", "--out", out], capsys)
    assert code == EXIT_INPUT
    assert "8 dims" in stderr


# -- inspect -----------------------------------------------------------------


def test_inspect_recognizes_all_documents(tmp_path, capsys):
    out = _trained(tmp_path, capsys)
    mixed = _mixed_csv(tmp_path)
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    run_cli(["compare", mixed, f"{out}/library.json", *args], capsys)

    code, stdout, _ = run_cli(["inspect", f"{out}/library.json"], capsys)
    assert code == EXIT_OK
    assert "trained library: 2 clusters" in stdout

    code, stdout, _ = run_cli(["inspect", f"{out}/report.json"], capsys)
    assert code == EXIT_OK
    assert "comparison report" in stdout
    assert "depth_ratio" in stdout

    unknown = tmp_path / "junk.json"
    unknown.write_text(json.dumps({"foo": 1}))
    code, _, stderr = run_cli(["inspect", str(unknown)], capsys)
    assert code == EXIT_INPUT
    assert "not a library or report document" in stderr


def test_inspect_rejects_documents_missing_keys(tmp_path, capsys):
    out = _trained(tmp_path, capsys)
    mixed = _mixed_csv(tmp_path)
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    run_cli(["compare", mixed, f"{out}/library.json", *args], capsys)

    library = json.loads((tmp_path / "run" / "library.json").read_text())
    del library["config"]
    broken = tmp_path / "no_config.json"
    broken.write_text(json.dumps(library))
    code, stdout, stderr = run_cli(["inspect", str(broken)], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr == "error: library is missing key 'config'\n"

    library = json.loads((tmp_path / "run" / "library.json").read_text())
    del library["clusters"][0]["train_fidelity"]
    broken.write_text(json.dumps(library))
    code, _, stderr = run_cli(["inspect", str(broken)], capsys)
    assert code == EXIT_INPUT
    assert stderr == "error: library cluster is missing key 'train_fidelity'\n"

    report = json.loads((tmp_path / "run" / "report.json").read_text())
    del report["schema_version"]
    broken.write_text(json.dumps(report))
    code, _, stderr = run_cli(["inspect", str(broken)], capsys)
    assert code == EXIT_INPUT
    assert stderr == "error: report is missing key 'schema_version'\n"

    report = json.loads((tmp_path / "run" / "report.json").read_text())
    del report["aggregate"]["baseline"]["depth_std"]
    broken.write_text(json.dumps(report))
    code, _, stderr = run_cli(["inspect", str(broken)], capsys)
    assert code == EXIT_INPUT
    assert "'baseline' is missing key 'depth_std'" in stderr
    assert "Traceback" not in stderr


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A trained library and its comparison report, as parsed JSON."""
    tmp = tmp_path_factory.mktemp("documents")
    raw = _blob_csv(tmp)
    out = str(tmp / "run")
    args = ["--qubits", "2", "--layers", "2", "--out", out]
    for argv in (["prepare", raw, *args], ["train", *args], ["compare", *args]):
        assert main(argv) == EXIT_OK
    return {name: json.loads((tmp / "run" / f"{name}.json").read_text())
            for name in ("library", "report")}


@pytest.mark.parametrize("name, breakage, message", [
    ("report", lambda doc: doc["aggregate"]["enqode"].__setitem__("depth_mean", "abc"),
     "report aggregate 'enqode' depth_mean must be a number"),
    ("report", lambda doc: doc["aggregate"]["ratios"].__setitem__("gate_ratio", "abc"),
     "report ratios gate_ratio must be a number or null"),
    ("library", lambda doc: doc.__setitem__("fingerprint", 5),
     "library fingerprint must be a string, got 5"),
    ("library", lambda doc: doc["clusters"][1].__setitem__("train_fidelity", "abc"),
     "library cluster 1 train_fidelity must be a number"),
    ("library", lambda doc: doc.__setitem__("offline_seconds", "abc"),
     "library offline_seconds must be a number"),
], ids=["report_depth_mean", "report_ratio", "library_fingerprint",
        "library_train_fidelity", "library_offline_seconds"])
def test_inspect_rejects_mistyped_documents(tmp_path, capsys, documents, name, breakage,
                                            message):
    doc = json.loads(json.dumps(documents[name]))
    breakage(doc)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(["inspect", str(broken)], capsys)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr.startswith(f"error: {message}")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr


# -- config merging ----------------------------------------------------------


def test_flags_override_config_file(tmp_path, capsys):
    values, _ = datasets.clustered_dataset(num_qubits=4, per_cluster=2, seed=0)
    raw = _write_csv(tmp_path / "raw16.csv", values)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"qubits": 2, "seed": 7, "out": str(tmp_path / "a")}))
    out = str(tmp_path / "b")
    code, stdout, _ = run_cli(
        ["prepare", raw, "--config", str(config), "--qubits", "4", "--out", out],
        capsys)
    assert code == EXIT_OK
    assert "16 dims" in stdout  # flag qubits=4 beat config qubits=2
    assert (tmp_path / "b" / "prepared.csv").exists()
    assert not (tmp_path / "a").exists()


def test_config_file_supplies_positional_paths(tmp_path, capsys):
    raw = _blob_csv(tmp_path)
    out = str(tmp_path / "run")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"input": raw, "qubits": 2, "out": out}))
    code, stdout, _ = run_cli(["prepare", "--config", str(config)], capsys)
    assert code == EXIT_OK
    assert "prepared 12 rows" in stdout

    code, _, stderr = run_cli(["prepare", "--out", out], capsys)
    assert code == EXIT_INPUT
    assert "prepare needs an input CSV" in stderr


def _readme_config_section():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return readme.read_text(encoding="utf-8").split("### Config files", 1)[1].split("\n## ", 1)[0]


def test_readme_config_example_and_keys_match_run_config(tmp_path):
    section = _readme_config_section()
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    config = tmp_path / "run.json"
    config.write_text(example)
    args = cli._build_parser().parse_args(["train", "--config", str(config)])
    echo = cli.load_run_config(args).echo()
    for key, value in json.loads(example).items():
        if key == "optimizer":
            assert value.items() <= echo[key].items()
        else:
            assert echo[key] == value

    # each bullet names config-only keys in backticks before its colon
    config_only = {name for line in section.splitlines() if line.startswith("- ")
                   for name in re.findall(r"`(\w+)`", line.split(":", 1)[0])}
    assert {"basis", "has_labels", "per_class", "input", "optimizer"} <= config_only
    assert config_only <= {f.name for f in dataclasses.fields(cli.RunConfig)}

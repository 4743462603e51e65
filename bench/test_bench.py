"""Tests of the benchmark itself: the tail rule, the oracle, and that each
correctness check rejects a perturbed output.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402
from enqode import pipeline, simulator  # noqa: E402
from enqode.ansatz import AnsatzConfig  # noqa: E402
from enqode.circuit import Circuit  # noqa: E402

N = 4


@pytest.mark.parametrize("count, label, rank", [
    (1, "p50", None), (39, "p50", None), (40, "p75", 30), (99, "p75", 75),
    (100, "p90", 90), (1000, "p99", 990), (9999, "p99", 9900), (10000, "p99.9", 9990),
])
def test_tail_rule(count, label, rank):
    values = list(range(count, 0, -1))  # shuffled order must not matter
    got_label, got = stats.tail(values)
    assert got_label == label
    assert got == (stats.median(values) if rank is None else rank)


def test_input_tail_takes_each_input_at_its_median():
    # 40 inputs, each run three times; one hit per input by a 50 ms stall
    seconds, inputs = [], []
    for index in range(40):
        for value in (50.0, index, index):
            seconds.append(value)
            inputs.append(index)
    assert stats.input_tail(seconds, inputs) == ("p75", 29)
    assert stats.input_tail(seconds[:30], inputs[:30]) == ("p50", 4.5)


def test_oracle_matches_package_density_simulation():
    rng = np.random.default_rng(3)
    circuit = Circuit(3)
    for _ in range(40):
        kind = rng.integers(4)
        q = int(rng.integers(3))
        if kind == 0:
            circuit.sx(q)
        elif kind == 1:
            circuit.rz(q, angle=float(rng.normal()))
        elif kind == 2:
            circuit.x(q)
        else:
            circuit.cx(q, (q + 1 + int(rng.integers(2))) % 3)
    noise = simulator.NoiseModel(p1=0.01, p2=0.05)
    expected = simulator.simulate_noisy(circuit, None, noise).data
    np.testing.assert_allclose(oracle.noisy_density(circuit, None, 0.01, 0.05), expected,
                               atol=1e-12)
    np.testing.assert_allclose(oracle.statevector(circuit), simulator.simulate_ideal(circuit),
                               atol=1e-12)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(5)
    train, held = workloads.split_blobs(N, 10, 4, rng)
    clustering = pipeline.cluster(train, fidelity_floor=workloads.FLOOR)
    library = pipeline.train_offline(train, AnsatzConfig(N, workloads.LAYERS), clustering)
    circuit = pipeline._bundle_for(library.config).logical_circuit
    return train, held, clustering, library, circuit


def test_clustering_check_rejects_a_row_below_the_floor(trained):
    train, _, clustering, _, _ = trained
    workloads.check_clustering(train, clustering, workloads.FLOOR)
    moved = np.array(clustering.assignments)
    moved[0] = (moved[0] + 1) % clustering.k  # row 0 now sits with a far centroid
    with pytest.raises(CheckFailed, match="below the floor"):
        workloads.check_clustering(train, dataclasses.replace(clustering, assignments=moved),
                                   workloads.FLOOR)


def test_library_check_rejects_a_fidelity_off_by_1e6(trained):
    _, _, clustering, library, circuit = trained
    workloads.check_library(library, clustering, circuit)
    bad = copy.copy(library)
    first = library.clusters[0]
    bad.clusters = [dataclasses.replace(first, train_fidelity=first.train_fidelity + 1e-6),
                    *library.clusters[1:]]
    with pytest.raises(CheckFailed, match="train fidelity"):
        workloads.check_library(bad, clustering, circuit)


def test_embedding_check_rejects_perturbed_results(trained):
    _, held, _, library, circuit = trained
    x = held[0]
    result = pipeline.embed_online(x, library)
    workloads.check_embedding(x, result, library, circuit)

    off = dataclasses.replace(result, ideal_fidelity=result.ideal_fidelity - 1e-6)
    with pytest.raises(CheckFailed, match="dense overlap"):
        workloads.check_embedding(x, off, library, circuit)

    wrong = dataclasses.replace(result, cluster_id=(result.cluster_id + 1) % len(library.clusters))
    with pytest.raises(CheckFailed, match="nearest"):
        workloads.check_embedding(x, wrong, library, circuit)

    theta = np.full_like(result.theta, 0.7)
    worse = dataclasses.replace(result, theta=theta,
                                ideal_fidelity=oracle.overlap_sq(circuit, theta, x))
    with pytest.raises(CheckFailed, match="warm start"):
        workloads.check_embedding(x, worse, library, circuit)


@pytest.fixture(scope="module")
def compared(tmp_path_factory, trained):
    """One real `enqode compare` op at n=4 through the compare workload."""
    train, held, _, _, _ = trained
    work = workloads.CompareN7(seed=0, workdir=str(tmp_path_factory.mktemp("compare")))
    work.num_qubits = N
    work.train, work.pool = train, [held[:2]]
    work.setup()
    report = work.run(0)
    work.record(0, report)
    return work, report


def test_compare_check_accepts_the_program_output(compared):
    work, _ = compared
    work.check()


def test_report_check_rejects_a_dropped_sample(compared):
    _, report = compared
    dropped = copy.deepcopy(report)
    dropped["samples"] = [r for r in dropped["samples"] if r["sample_id"] != 1]
    with pytest.raises(CheckFailed, match="do not cover"):
        workloads.check_report(dropped, 2)


def test_report_check_rejects_noisy_above_ideal(compared):
    _, report = compared
    bad = copy.deepcopy(report)
    row = bad["samples"][0]
    row["noisy_fidelity"] = row["ideal_fidelity"] + 1e-6
    with pytest.raises(CheckFailed, match="exceeds ideal"):
        workloads.check_report(bad, 2)


@pytest.mark.parametrize("method", ["enqode", "baseline"])
def test_sample_check_rejects_a_noisy_fidelity_off_by_1e6(compared, method):
    work, report = compared
    bad = copy.deepcopy(report)
    for row in bad["samples"]:
        if row["sample_id"] == work.checked_sample and row["method"] == method:
            row["noisy_fidelity"] -= 1e-6
    library = pipeline.load_library(work.library_path)
    with pytest.raises(CheckFailed, match="noisy fidelity"):
        workloads.check_compare_sample(bad, work.pool[0], work.checked_sample, library,
                                       2e-4, 7e-3)


def test_tracer_restores_every_patched_name():
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.TRACED] == originals


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, "cli.main", 0.0, 10.0, None, 0, None),
             (2, "cli.compare_one", 1.0, 6.0, 1, 0, None),
             (3, "cli.compare_one", 4.0, 8.0, 1, 0, None)]
    assert tracing._Spans(spans).self_time("cli.main", 1.0) == pytest.approx(3.0)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(tmp_path, monkeypatch, capsys, trace, section):
    """A short run prints exactly the metrics BENCHMARK.json lists, with
    their units (the traced one includes the compare-n7 tour)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "embed-n8", "--seed", "1", "--seconds", "0.2", "--trace", str(trace)]
    assert harness.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 128
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted


def test_a_repeated_input_must_repeat_its_result():
    work = workloads.EmbedN8(seed=0, pool_size=3)
    work.setup()
    first = work.run(0)
    work.record(0, first)
    work.record(0, work.run(0))
    moved = dataclasses.replace(first, theta=first.theta + 1e-12)
    with pytest.raises(CheckFailed, match="first round"):
        work.record(0, moved)

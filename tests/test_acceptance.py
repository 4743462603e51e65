"""Acceptance gate: eleven end-to-end checks, one printed verdict line each.

Each test prints `criterion NN: PASS/FAIL - detail` before asserting, so the
full scoreboard survives in captured output even when a criterion fails.
The eight-qubit fixtures are shared across the slower checks.
"""

import json
import time

import numpy as np
import pytest

import datasets
import oracles
from enqode.ansatz import AnsatzConfig, ansatz_physical, build, invert_epilogue
from enqode.baseline import BasisConfig, compile_exact, permute_state
from enqode.circuit import Circuit, metrics
from enqode.cli import main as cli_main
from enqode.optimizer import OptimizerOptions, minimize
from enqode.pipeline import cluster, embed_online, train_offline
from enqode.report import strip_volatile
from enqode.simulator import NoiseModel, fidelity_to_pure, simulate_ideal, simulate_noisy
from enqode.symbolic import OverlapModel, init_plus_i

OPTS = OptimizerOptions()
NOISE = NoiseModel(p1=2e-4, p2=7e-3)
BASIS = BasisConfig()


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_table_circuit(rng, num_qubits, length):
    state = init_plus_i(num_qubits)
    circuit = Circuit(num_qubits)
    slot = 0
    for _ in range(length):
        if rng.random() < 0.5:
            q = int(rng.integers(num_qubits))
            state = state.apply_rz(q, slot)
            circuit.rz(q, slot=slot)
            slot += 1
        else:
            c, t = rng.choice(num_qubits, size=2, replace=False)
            state = state.apply_cy(int(c), int(t))
            circuit.cy(int(c), int(t))
    return state, circuit


@pytest.fixture(scope="module")
def eight_qubit_run():
    """Shared n=8 dataset, clustering, trained library, and training wall time."""
    data, _ = datasets.clustered_dataset(num_qubits=8, per_cluster=10, seed=23)
    clustering = cluster(data)
    config = AnsatzConfig(num_qubits=8, layers=8)
    start = time.perf_counter()
    library = train_offline(data, config, clustering, OPTS)
    train_wall = time.perf_counter() - start
    return data, clustering, library, train_wall


@pytest.fixture(scope="module")
def four_qubit_run():
    data, _ = datasets.clustered_dataset(num_qubits=4, per_cluster=8, seed=11)
    clustering = cluster(data)
    library = train_offline(data, AnsatzConfig(num_qubits=4, layers=4), clustering, OPTS)
    return data, library


def test_criterion_01_symbolic_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        length = int(rng.integers(0, 41))
        state, circuit = _random_table_circuit(rng, n, length)
        theta = rng.uniform(-np.pi, np.pi, size=state.num_params)
        dense = oracles.circuit_unitary(circuit, theta) @ oracles.plus_i_state(n)
        worst = max(worst, float(np.max(np.abs(state.evaluate(theta) - dense))))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"200 random RZ/CY circuits, max amplitude error {worst:.2e} "
        f"(limit 1e-10), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_analytic_gradient():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        config = AnsatzConfig(num_qubits=int(rng.integers(2, 5)),
                              layers=int(rng.integers(1, 5)))
        bundle = build(config)
        x = rng.normal(size=1 << config.num_qubits)
        x /= np.linalg.norm(x)
        model = OverlapModel(bundle.symbolic, invert_epilogue(bundle, x))
        theta = rng.uniform(-np.pi, np.pi, size=config.num_params)
        _, grad = model.loss_and_grad(theta)
        numeric = oracles.finite_difference_grad(model.loss, theta, h=1e-6)
        scale = np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(np.max(np.abs(grad - numeric) / scale)))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst <= 1e-5 and elapsed < 30.0,
        f"100 random instances, max per-component relative gradient error "
        f"{worst:.2e} (limit 1e-5), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_03_ideal_embedding_fidelity(eight_qubit_run):
    data, _, library, train_wall = eight_qubit_run
    start = time.perf_counter()
    fidelities = [
        embed_online(x, library, OPTS, sample_id=i).ideal_fidelity
        for i, x in enumerate(data)
    ]
    elapsed = train_wall + (time.perf_counter() - start)
    mean = float(np.mean(fidelities))
    _verdict(
        3,
        mean >= 0.85 and elapsed < 300.0,
        f"n=8 layers=8, mean online fidelity {mean:.4f} over {len(fidelities)} "
        f"samples (floor 0.85), {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_04_baseline_exactness():
    rng = np.random.default_rng(404)
    worst = 1.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        x = rng.normal(size=1 << n)
        x /= np.linalg.norm(x)
        compiled = compile_exact(x, BASIS)
        state = simulate_ideal(compiled.physical_circuit)
        target = permute_state(x.astype(complex), compiled.layout)
        worst = min(worst, float(abs(np.vdot(target, state)) ** 2))
    _verdict(
        4,
        worst >= 1.0 - 1e-8,
        f"50 random targets at n=3..6, worst baseline fidelity {worst:.12f} "
        f"(floor 1-1e-8)",
    )


def _heterogeneous_set(num_qubits: int, rng) -> np.ndarray:
    """Mix of sparse and dense unit vectors so exact-synthesis sizes spread."""
    dims = 1 << num_qubits
    rows = []
    for support in (1, 1, 2, 2, 4, 4):
        x = np.zeros(dims)
        idx = rng.choice(dims, size=support, replace=False)
        x[idx] = rng.normal(size=support)
        rows.append(x / np.linalg.norm(x))
    while len(rows) < 20:
        x = rng.normal(size=dims)
        rows.append(x / np.linalg.norm(x))
    return np.array(rows)


def test_criterion_05_zero_variance_structure(four_qubit_run):
    _, library = four_qubit_run
    rng = np.random.default_rng(505)
    samples = _heterogeneous_set(4, rng)
    physical = ansatz_physical(library.config, BASIS)

    ansatz_depths, ansatz_totals = [], []
    baseline_depths, baseline_totals = [], []
    for i, x in enumerate(samples):
        embed_online(x, library, OPTS, sample_id=i)  # parameters vary per sample
        counts = metrics(physical)  # the circuit structure does not
        ansatz_depths.append(counts.depth_physical)
        ansatz_totals.append(counts.total_physical)
        compiled = compile_exact(x, BASIS)
        baseline_depths.append(compiled.metrics.depth_physical)
        baseline_totals.append(compiled.metrics.total_physical)

    ansatz_var = float(np.var(ansatz_depths) + np.var(ansatz_totals))
    base_depth_var = float(np.var(baseline_depths))
    base_total_var = float(np.var(baseline_totals))
    _verdict(
        5,
        ansatz_var == 0.0 and base_depth_var > 0.0 and base_total_var > 0.0,
        f"20 heterogeneous samples: ansatz depth/count variance {ansatz_var}, "
        f"baseline depth variance {base_depth_var:.1f}, "
        f"total variance {base_total_var:.1f}",
    )


def test_criterion_06_reduction_ratios(eight_qubit_run):
    data, _, library, _ = eight_qubit_run
    counts = metrics(ansatz_physical(library.config, BASIS))
    rng = np.random.default_rng(606)
    picks = data[rng.choice(len(data), size=5, replace=False)]
    base = [compile_exact(x, BASIS).metrics for x in picks]
    depth_ratio = float(np.mean([m.depth_physical for m in base])) / counts.depth_physical
    two_qubit_ratio = (float(np.mean([m.two_qubit_physical for m in base]))
                       / counts.two_qubit_physical)
    _verdict(
        6,
        depth_ratio >= 5.0 and two_qubit_ratio >= 3.0,
        f"n=8 depth ratio {depth_ratio:.1f}x (floor 5x), "
        f"two-qubit ratio {two_qubit_ratio:.1f}x (floor 3x)",
    )


def test_criterion_07_noisy_fidelity_ordering(eight_qubit_run):
    data, _, library, _ = eight_qubit_run
    physical = ansatz_physical(library.config, BASIS)
    wins = 0
    total = 10
    margins = []
    for i in range(total):
        x = data[i * 3 % len(data)]  # stride across all three clusters
        embed = embed_online(x, library, OPTS, sample_id=i)
        f_ansatz = fidelity_to_pure(simulate_noisy(physical, embed.theta, NOISE), x)
        compiled = compile_exact(x, BASIS)
        target = permute_state(x.astype(complex), compiled.layout)
        f_base = fidelity_to_pure(
            simulate_noisy(compiled.physical_circuit, None, NOISE), target)
        wins += f_ansatz > f_base
        margins.append(f_ansatz / f_base if f_base > 0 else np.inf)
    fraction = wins / total
    _verdict(
        7,
        fraction >= 0.95,
        f"n=8 noisy fidelity: ansatz beat baseline on {wins}/{total} samples "
        f"({fraction:.0%}, floor 95%), median margin {np.median(margins):.0f}x",
    )


def test_criterion_08_warm_start_benefit(four_qubit_run):
    _, library = four_qubit_run
    rng = np.random.default_rng(808)
    bundle = build(library.config)
    warm, cold = [], []
    for i in range(100):
        centroid = library.clusters[i % len(library.clusters)].centroid
        x = datasets.blob_rows(centroid, 1, 0.01, rng)[0]
        warm.append(embed_online(x, library, OPTS, sample_id=i).iterations)
        model = OverlapModel(bundle.symbolic, invert_epilogue(bundle, x))
        cold.append(minimize(model.loss_and_grad,
                             np.zeros(library.config.num_params), OPTS).iterations)
    warm_median = float(np.median(warm))
    cold_median = float(np.median(cold))
    _verdict(
        8,
        warm_median < cold_median,
        f"100 near-centroid samples: median warm iterations {warm_median:.0f} "
        f"< median cold iterations {cold_median:.0f}",
    )


def test_criterion_09_offline_budget(eight_qubit_run):
    _, clustering, library, train_wall = eight_qubit_run
    _verdict(
        9,
        clustering.k <= 16 and train_wall < 200.0,
        f"n=8 offline training: k={clustering.k} (cap 16) in {train_wall:.1f}s "
        f"(limit 200s)",
    )


def test_criterion_10_cluster_floor_guarantee():
    rng = np.random.default_rng(1010)
    cases = []
    blob_data, _ = datasets.clustered_dataset(num_qubits=4, per_cluster=8, seed=3)
    cases.append((blob_data, 0.95, None))
    tight = datasets.blob_rows(datasets.product_state([0.3, 0.7, 1.1]), 12, 0.01, rng)
    cases.append((tight, 0.95, None))
    cases.append((np.tile(datasets.product_state([0.5, 0.5]), (5, 1)), 0.95, None))
    spread = rng.normal(size=(12, 8))
    spread /= np.linalg.norm(spread, axis=1)[:, None]
    cases.append((spread, 0.80, None))
    cases.append((np.eye(4), 0.95, 2))  # infeasible at this cap

    ok = True
    details = []
    for data, floor, k_max in cases:
        result = cluster(data, fidelity_floor=floor, k_max=k_max, seed=1)
        # independent recomputation from the returned centroids
        recomputed = float(np.min(np.max(data @ result.centroids.T, axis=1) ** 2))
        ok &= abs(recomputed - result.min_overlap_sq) <= 1e-12
        if result.feasible:
            ok &= result.min_overlap_sq >= floor
            details.append(f"k={result.k} overlap {result.min_overlap_sq:.4f}>={floor}")
        else:
            ok &= result.min_overlap_sq < floor
            details.append(f"k={result.k} infeasible at {result.min_overlap_sq:.4f}")
    _verdict(10, ok, f"cluster floor guarantee: {'; '.join(details)}")


def test_criterion_11_determinism(tmp_path):
    values, _ = datasets.clustered_dataset(num_qubits=2, per_cluster=4, seed=0)
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n")
    out = tmp_path / "run"
    args = ["--qubits", "2", "--layers", "2", "--seed", "5", "--out", str(out)]

    def run_all():
        assert cli_main(["prepare", str(raw), *args]) == 0
        assert cli_main(["train", *args]) == 0
        assert cli_main(["compare", *args]) == 0
        report = json.loads((out / "report.json").read_text())
        library = json.loads((out / "library.json").read_text())
        return strip_volatile(report), strip_volatile(library)

    first_report, first_library = run_all()
    second_report, second_library = run_all()
    reports_match = json.dumps(first_report) == json.dumps(second_report)
    libraries_match = json.dumps(first_library) == json.dumps(second_library)
    _verdict(
        11,
        reports_match and libraries_match,
        "rerun with identical config and seed reproduces report and library "
        "byte-for-byte outside wall-clock fields",
    )

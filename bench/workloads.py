"""The three workloads: seeded inputs, program set-up, one operation, checks.

Each workload is a closed loop with one client in one process. Inputs come
only from the run's seed; the program sees the generated arrays (or, for
compare, the CSV and library files written from them). A round is one
operation per pooled input, and a run always attempts whole rounds.

Checks compare the program's outputs with `oracle` (which shares no code
with `enqode.simulator` or `enqode.symbolic`) or with properties the method
must have, and raise `CheckFailed` naming the first violation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle
from enqode import ansatz, baseline, cli, dataio, pipeline
from enqode.ansatz import AnsatzConfig
from enqode.circuit import GateKind

FLOOR = 0.95  # the package's default cluster fidelity floor
LAYERS = 8
TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def product_state(angles) -> np.ndarray:
    """Real product state: qubit q holds (cos angles[q], sin angles[q])."""
    state = np.array([1.0])
    for a in reversed(angles):
        state = np.kron(state, np.array([np.cos(a), np.sin(a)]))
    return state


def blob_rows(centroid, count, sigma, rng) -> np.ndarray:
    rows = centroid[None, :] + rng.normal(0.0, sigma, size=(count, centroid.size))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def three_blobs(num_qubits: int, rng) -> list[np.ndarray]:
    """Three product-state centroids at pi/4 + (-0.24, 0, +0.24) per qubit
    with +-0.03 jitter: no two can share a cluster at the 0.95 floor, so
    k = 3 on every seed (the acceptance-suite data shape)."""
    return [product_state(np.pi / 4 + s + rng.uniform(-0.03, 0.03, num_qubits))
            for s in (-0.24, 0.0, 0.24)]


def train_dataset(rng, num_qubits=10, distinct=7, per_blob=20, sigma=0.003) -> np.ndarray:
    """Eight product-state blobs of 20 rows, two of them near-twins.

    The seven distinct centroids sit at pi/4 +- 0.25 per qubit on sign
    patterns at Hamming distance >= 2, so no two of them can share a
    cluster at the floor; the eighth is the first one moved by at most
    0.01 per qubit and always merges with it. The k-search therefore ends
    at k = 7 on every seed, which keeps op cost from depending on the seed.
    sigma = 0.003 keeps every row's overlap with its blob near 0.99 at 1024
    dims."""
    while True:
        codes = rng.choice([-1.0, 1.0], size=(distinct, num_qubits))
        hamming = (codes[:, None, :] != codes[None, :, :]).sum(axis=2)
        if (hamming + 2 * np.eye(distinct, dtype=int)).min() >= 2:
            break
    angles = [np.pi / 4 + 0.25 * c + rng.uniform(-0.02, 0.02, num_qubits) for c in codes]
    angles.append(angles[0] + rng.uniform(-0.01, 0.01, num_qubits))
    values = np.vstack([blob_rows(product_state(a), per_blob, sigma, rng) for a in angles])
    return values[rng.permutation(len(values))]


def split_blobs(num_qubits: int, per_cluster: int, held_out: int, rng):
    """Training rows and held-out samples drawn from the same three blobs
    with independent noise (sigma 0.01). Held-out sample i comes from blob
    i mod 3: the blobs train to different fidelities, and drawing them at
    random would move fidelity_mean by several percent from seed to seed."""
    centroids = three_blobs(num_qubits, rng)
    train = np.vstack([blob_rows(c, per_cluster, 0.01, rng) for c in centroids])
    held = np.vstack([blob_rows(centroids[i % 3], 1, 0.01, rng) for i in range(held_out)])
    return train, held


# ------------------------------------------------------------ workloads


@dataclass
class Workload:
    """Set-up state and per-input results of one workload in one run."""

    name: str
    num_qubits: int
    pool: list  # the inputs of one round
    samples_per_op: int
    first: dict = field(default_factory=dict)  # input index -> first result

    @property
    def config(self) -> AnsatzConfig:
        return AnsatzConfig(self.num_qubits, LAYERS)

    def setup(self) -> None:
        """Program-side set-up, from a cold ansatz cache."""
        raise NotImplementedError

    def run(self, index: int):
        raise NotImplementedError

    def record(self, index: int, result) -> None:
        """Keep the first result per input; later rounds must repeat it."""
        if index not in self.first:
            self.first[index] = result
            return
        _require(self.same(result, self.first[index]),
                 f"{self.name} input {index}: result differs from the first round's")

    def same(self, result, ref) -> bool:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def fidelity_mean(self) -> float:
        raise NotImplementedError


class TrainN10(Workload):
    """Op: cluster + train_offline on one n=10 dataset (160 rows x 1024)."""

    def __init__(self, seed: int, pool_size: int = 40):
        rng = np.random.default_rng([seed, 10])
        pool = [train_dataset(rng) for _ in range(pool_size)]
        super().__init__("train-n10", 10, pool, samples_per_op=len(pool[0]))

    def setup(self):
        pipeline._bundle_for.cache_clear()
        pipeline._bundle_for(self.config)  # the n=10 symbolic tables

    def run(self, index: int):
        data = self.pool[index]
        clustering = pipeline.cluster(data, fidelity_floor=FLOOR)
        return clustering, pipeline.train_offline(data, self.config, clustering)

    def same(self, result, ref):
        library, ref_library = result[1], ref[1]
        return (len(library.clusters) == len(ref_library.clusters)
                and all(np.array_equal(a.theta_star, b.theta_star)
                        for a, b in zip(library.clusters, ref_library.clusters)))

    def check(self):
        circuit = pipeline._bundle_for(self.config).logical_circuit
        for index, (clustering, library) in self.first.items():
            check_clustering(self.pool[index], clustering, FLOOR)
            check_library(library, clustering, circuit)

    def fidelity_mean(self):
        return float(np.mean([c.train_fidelity for _, lib in self.first.values()
                              for c in lib.clusters]))


class EmbedN8(Workload):
    """Op: embed_online of one held-out sample against a trained n=8 library."""

    def __init__(self, seed: int, pool_size: int = 128):
        rng = np.random.default_rng([seed, 8])
        self.train, held = split_blobs(8, 10, pool_size, rng)
        super().__init__("embed-n8", 8, list(held), samples_per_op=1)
        self.library = None

    def setup(self):
        pipeline._bundle_for.cache_clear()
        clustering = pipeline.cluster(self.train, fidelity_floor=FLOOR)
        self.library = pipeline.train_offline(self.train, self.config, clustering)

    def run(self, index):
        return pipeline.embed_online(self.pool[index], self.library, sample_id=index)

    def same(self, result, ref):
        return (result.cluster_id == ref.cluster_id
                and result.ideal_fidelity == ref.ideal_fidelity
                and np.array_equal(result.theta, ref.theta))

    def check(self):
        circuit = pipeline._bundle_for(self.config).logical_circuit
        for index, result in self.first.items():
            check_embedding(self.pool[index], result, self.library, circuit)

    def fidelity_mean(self):
        return float(np.mean([r.ideal_fidelity for r in self.first.values()]))


class CompareN7(Workload):
    """Op: in-process `enqode compare --jobs 2` on a 2-row prepared dataset."""

    def __init__(self, seed: int, workdir: str, pool_size: int = 3, rows: int = 2):
        rng = np.random.default_rng([seed, 7])
        self.train, held = split_blobs(7, 10, pool_size * rows, rng)
        pool = [held[i * rows:(i + 1) * rows] for i in range(pool_size)]
        super().__init__("compare-n7", 7, pool, samples_per_op=rows)
        self.workdir = workdir
        self.library_path = os.path.join(workdir, "library.json")
        self.jobs = min(2, os.cpu_count() or 1)
        self.checked_sample = seed % rows

    def dataset_path(self, index):
        return os.path.join(self.workdir, f"prepared-{index}.csv")

    def setup(self):
        pipeline._bundle_for.cache_clear()
        os.makedirs(self.workdir, exist_ok=True)
        clustering = pipeline.cluster(self.train, fidelity_floor=FLOOR)
        library = pipeline.train_offline(self.train, self.config, clustering)
        pipeline.save_library(library, self.library_path)
        for index, rows in enumerate(self.pool):
            dataio.save_dataset(dataio.Dataset(rows), self.dataset_path(index))

    def run(self, index):
        out = os.path.join(self.workdir, "out")
        argv = ["compare", self.dataset_path(index), self.library_path,
                "--qubits", str(self.num_qubits), "--layers", str(LAYERS),
                "--out", out, "--jobs", str(self.jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"enqode compare exited with {code}")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def record(self, index, report):
        check_report(report, len(self.pool[index]))
        super().record(index, report)

    def same(self, report, ref):
        return _without_seconds(report) == _without_seconds(ref)

    def check(self):
        library = pipeline.load_library(self.library_path)
        report = self.first[0]
        config = report["metadata"]["config"]
        check_compare_sample(report, self.pool[0], self.checked_sample, library,
                             config["noise_p1"], config["noise_p2"])

    def fidelity_mean(self):
        return float(np.mean([row["noisy_fidelity"] for report in self.first.values()
                              for row in report["samples"] if row["method"] == "enqode"]))


def _without_seconds(report):
    return [{k: v for k, v in row.items() if "seconds" not in k} for row in report["samples"]]


WORKLOADS = {"train-n10": TrainN10, "embed-n8": EmbedN8, "compare-n7": CompareN7}


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "compare-n7":
        return CompareN7(seed, os.path.join(workdir, name))
    return WORKLOADS[name](seed)


# --------------------------------------------------------------- checks


def check_clustering(data, clustering, floor) -> None:
    """Every row's squared overlap with its assigned (unit) centroid >= floor."""
    centroids = np.asarray(clustering.centroids)
    _require(np.allclose(np.linalg.norm(centroids, axis=1), 1.0, atol=1e-9),
             "a centroid is not unit norm")
    assigned = centroids[np.asarray(clustering.assignments)]
    overlap_sq = np.sum(np.asarray(data) * assigned, axis=1) ** 2
    worst = int(np.argmin(overlap_sq))
    _require(overlap_sq[worst] >= floor,
             f"row {worst} has squared overlap {overlap_sq[worst]:.6f} with its centroid, "
             f"below the floor {floor}")


def check_library(library, clustering, circuit) -> None:
    """Each cluster's train_fidelity equals the dense overlap of U(theta*)|0>
    with its centroid."""
    _require(len(library.clusters) == clustering.k,
             f"{len(library.clusters)} trained clusters for k = {clustering.k}")
    for model, centroid in zip(library.clusters, clustering.centroids):
        _require(np.array_equal(model.centroid, centroid),
                 f"cluster {model.cluster_id} was trained on another centroid")
        expected = oracle.overlap_sq(circuit, model.theta_star, centroid)
        _require(abs(model.train_fidelity - expected) <= TOL,
                 f"cluster {model.cluster_id}: train fidelity {model.train_fidelity!r}, "
                 f"dense overlap {expected!r}")


def check_embedding(x, result, library, circuit) -> None:
    """The reported ideal fidelity is the dense overlap at the returned theta,
    the chosen cluster is the nearest centroid, and the result is no worse
    than that cluster's theta* on the same sample."""
    expected = oracle.overlap_sq(circuit, result.theta, x)
    _require(abs(result.ideal_fidelity - expected) <= TOL,
             f"sample {result.sample_id}: ideal fidelity {result.ideal_fidelity!r}, "
             f"dense overlap {expected!r}")
    distances = [np.linalg.norm(x - model.centroid) for model in library.clusters]
    nearest = library.clusters[int(np.argmin(distances))]
    _require(result.cluster_id == nearest.cluster_id,
             f"sample {result.sample_id}: chose cluster {result.cluster_id}, "
             f"nearest is {nearest.cluster_id}")
    start = oracle.overlap_sq(circuit, nearest.theta_star, x)
    _require(result.ideal_fidelity >= start - TOL,
             f"sample {result.sample_id}: fidelity {result.ideal_fidelity!r} is worse "
             f"than the warm start's {start!r}")


def check_report(report, rows: int) -> None:
    """Every sample has both methods, none failed, baseline ideal fidelity is
    1, and no noisy fidelity exceeds its ideal one."""
    failures = report["metadata"].get("failures")
    _require(not failures, f"samples failed: {failures}")
    seen = {(row["sample_id"], row["method"]) for row in report["samples"]}
    wanted = {(i, m) for i in range(rows) for m in ("enqode", "baseline")}
    _require(seen == wanted and len(report["samples"]) == len(wanted),
             f"report rows {sorted(seen)} do not cover samples 0..{rows - 1} once per method")
    _require(report["aggregate"]["samples_compared"] == rows,
             f"{report['aggregate']['samples_compared']} samples compared, expected {rows}")
    for row in report["samples"]:
        where = f"sample {row['sample_id']} {row['method']}"
        if row["method"] == "baseline":
            _require(row["ideal_fidelity"] >= 1.0 - TOL,
                     f"{where}: exact synthesis has ideal fidelity {row['ideal_fidelity']!r}")
        _require(row["noisy_fidelity"] <= row["ideal_fidelity"] + TOL,
                 f"{where}: noisy fidelity {row['noisy_fidelity']!r} exceeds ideal "
                 f"{row['ideal_fidelity']!r}")


def ansatz_physical(config: AnsatzConfig):
    """The ansatz lowered and routed for the chain, as `enqode compare` runs it."""
    logical = ansatz.build(config).logical_circuit
    routed = baseline.route_linear(baseline.lower_to_basis(logical))
    return baseline.lower_to_basis(routed.circuit)


def check_compare_sample(report, rows, sample_id, library, p1, p2) -> None:
    """Re-derive one sample's four fidelities outside the timed loop: both
    circuits are evolved by `oracle.noisy_density`, the baseline also by
    `oracle.statevector`."""
    x = np.asarray(rows[sample_id], dtype=float)
    got = {row["method"]: row for row in report["samples"] if row["sample_id"] == sample_id}

    embed = pipeline.embed_online(x, library, sample_id=sample_id)
    _require(embed.ideal_fidelity == got["enqode"]["ideal_fidelity"]
             and embed.cluster_id == got["enqode"]["cluster_id"],
             f"sample {sample_id}: re-embedding does not reproduce the report")
    rho = oracle.noisy_density(ansatz_physical(library.config), embed.theta, p1, p2)
    _close(oracle.pure_fidelity(rho, x), got["enqode"]["noisy_fidelity"],
           f"sample {sample_id}: enqode noisy fidelity")

    compiled = baseline.compile_exact(x)
    _require(not any(g.kind is GateKind.SWAP for g in compiled.physical_circuit.gates),
             "baseline physical circuit still holds SWAPs")
    target = oracle.to_physical(x, compiled.layout)
    _close(oracle.overlap_sq(compiled.physical_circuit, None, target),
           got["baseline"]["ideal_fidelity"], f"sample {sample_id}: baseline ideal fidelity")
    rho = oracle.noisy_density(compiled.physical_circuit, None, p1, p2)
    _close(oracle.pure_fidelity(rho, target), got["baseline"]["noisy_fidelity"],
           f"sample {sample_id}: baseline noisy fidelity")


def _close(expected: float, reported: float, what: str) -> None:
    _require(abs(expected - reported) <= TOL,
             f"{what} {reported!r}, independent density evolution {expected!r}")
